#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <thread>

#include <sys/resource.h>

#include "analysis/metrics.h"
#include "flow/edge_connectivity.h"
#include "flow/mincut.h"
#include "flow/vertex_connectivity.h"
#include "serve/result_cache.h"
#include "util/rng.h"
#include "util/sha1.h"

namespace perfbench {

double now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double process_cpu_s() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
           static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

double thread_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mib() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int hardware_threads() {
    return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double block_quantile(const std::vector<double>& values, double q, std::size_t block) {
    const std::size_t blocks = std::max<std::size_t>(1, values.size() / block);
    std::vector<double> per_block;
    for (std::size_t b = 0; b < blocks; ++b) {
        const auto first = values.begin() + static_cast<std::ptrdiff_t>(b * values.size() / blocks);
        const auto last =
            values.begin() + static_cast<std::ptrdiff_t>((b + 1) * values.size() / blocks);
        per_block.push_back(quantile(std::vector<double>(first, last), q));
    }
    return median(std::move(per_block));
}

// --- Tracer ----------------------------------------------------------------

namespace {
thread_local int t_open_span = -1;
}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* name)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
    if (tracer_ == nullptr) return;
    saved_parent_ = t_open_span;
    {
        std::lock_guard lock(tracer_->mutex_);
        index_ = static_cast<int>(tracer_->spans_.size());
        tracer_->spans_.push_back({name, 0.0, 0.0, saved_parent_});
    }
    t_open_span = index_;
    const double start = now_s();
    std::lock_guard lock(tracer_->mutex_);
    tracer_->spans_[static_cast<std::size_t>(index_)].start = start;
}

Tracer::Scope::~Scope() {
    if (tracer_ == nullptr) return;
    const double end = now_s();
    t_open_span = saved_parent_;
    std::lock_guard lock(tracer_->mutex_);
    tracer_->spans_[static_cast<std::size_t>(index_)].end = end;
}

std::map<std::string, double> Tracer::layer_self_times() const {
    std::lock_guard lock(mutex_);
    std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
    for (const auto& s : spans_) {
        if (s.parent >= 0) {
            children[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
        }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        auto& kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double reach = s.start;
        for (const auto& [start, end] : kids) {
            const double from = std::max(start, reach);
            const double to = std::min(end, s.end);
            if (to > from) covered += to - from;
            reach = std::max(reach, to);
        }
        const std::string layer = s.name.substr(0, s.name.find('.'));
        self[layer] += (s.end - s.start) - covered;
    }
    return self;
}

void Tracer::write(const std::string& path, const std::string& workload,
                   const std::string& run_id) const {
    std::lock_guard lock(mutex_);
    std::ofstream out(path);
    if (!out) return;
    const double origin = spans_.empty() ? 0.0 : spans_.front().start;
    out << std::setprecision(17) << "{\"workload\":\"" << workload << "\",\"run\":\""
        << run_id << "\",\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << (i > 0 ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
            << "\",\"parent\":" << s.parent << ",\"start_s\":" << (s.start - origin)
            << ",\"end_s\":" << (s.end - origin) << ",\"workload\":\"" << workload
            << "\",\"run\":\"" << run_id << "\"}";
    }
    out << "]}\n";
}

// --- Report ----------------------------------------------------------------

void Report::metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
}

void Report::op(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    }
}

void Report::check(bool ok, const std::string& what) {
    op(ok, what);
    if (!ok) correct_ = false;
}

int Report::finish(bool trace) const {
    const double failed_frac = attempted_ == 0
                                   ? 0.0
                                   : static_cast<double>(failed_) /
                                         static_cast<double>(attempted_);
    std::ostringstream json;
    json << std::setprecision(17) << "{\"correct\": " << (correct_ ? "true" : "false")
         << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
         << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric& m = metrics_[i];
        std::printf("%-28s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
        json << (i > 0 ? ", " : "") << '"' << m.name << "\": {\"value\": " << m.value
             << ", \"unit\": \"" << m.unit << "\"}";
    }
    std::printf("%-28s %.9g %s   (%llu of %llu operations; %s run)\n", "failed_frac",
                failed_frac, "ratio", static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_),
                trace ? "traced" : "untraced");
    json << "}}";
    std::printf("%s\n", json.str().c_str());
    std::fflush(stdout);
    // Failed checks and operations are the result's to report, not the
    // exit code's: a run that printed its result exits 0.
    return 0;
}

// --- checks ----------------------------------------------------------------

std::string rows_digest(const std::vector<core::ResilienceSample>& rows) {
    util::Sha1 h;
    for (const auto& s : rows) {
        h.update(serve::ResultCache::format_sample_row(s));
        h.update(std::string_view("\n"));
    }
    return util::to_hex(h.finish());
}

void check_digest(Report& report, const Options& options, const std::string& digest) {
    std::printf("digest %s seed %llu\n", digest.c_str(),
                static_cast<unsigned long long>(options.seed));
    if (!options.expect_digest.empty()) {
        report.check(digest == options.expect_digest,
                     "row digest " + digest + " != recorded " + options.expect_digest);
    }
}

void check_invariants(Report& report, const std::vector<core::ResilienceSample>& rows) {
    for (const auto& s : rows) {
        const int degree_cap = std::min(s.out_degree_min, s.in_degree_min);
        report.check(s.kappa_min <= s.lambda_min && s.lambda_min <= degree_cap,
                     "kappa <= lambda <= degree at t=" + std::to_string(s.time_min) +
                         ": " + serve::ResultCache::format_sample_row(s));
    }
}

// --- shared inputs ---------------------------------------------------------

core::AnalyzerOptions registry_analyzer_options() {
    core::AnalyzerOptions options;
    options.sample_c = 0.02;
    options.min_sources = 4;
    return options;
}

std::vector<std::pair<int, int>> sample_pairs(const graph::Digraph& g,
                                              std::uint64_t seed, int count) {
    std::vector<std::pair<int, int>> pairs;
    const int n = g.vertex_count();
    if (n < 3) return pairs;
    util::Rng rng(seed);
    pairs.reserve(static_cast<std::size_t>(count));
    // Bounded: a (nearly) complete graph has few or no non-adjacent pairs.
    for (long attempts = 64L * count; attempts > 0 && static_cast<int>(pairs.size()) < count;
         --attempts) {
        const int u = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
        const int v = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
        if (u != v && !g.has_edge(u, v)) pairs.emplace_back(u, v);
    }
    return pairs;
}

std::vector<double> time_pair_cuts(Report& report,
                                   const std::vector<graph::RoutingSnapshot>& snaps,
                                   const std::vector<core::ResilienceSample>& rows,
                                   std::uint64_t seed, int per_snapshot,
                                   exec::ThreadPool& pool, Tracer* tracer) {
    std::vector<double> us;
    for (std::size_t i = 0; i < snaps.size(); ++i) {
        const graph::Digraph g = snaps[i].to_digraph();
        const flow::FlowNetwork net = flow::mincut_witness_network(g);
        const std::vector<int> in_degree = g.in_degrees();
        const auto pairs = sample_pairs(g, seed ^ (0x9e37 + i), per_snapshot);
        std::vector<double> times(pairs.size());
        std::vector<int> kappa(pairs.size());
        // Pairs are dealt round-robin to the lanes, each with its own
        // workspace on the shared witness network, as concurrent PAIR
        // queries run in the daemon. One core is left idle, and each call is
        // timed in its thread's CPU time, so a preemption by another process
        // does not land in the tail; parallel_for runs one lane on the caller.
        const int lanes = std::max(1, pool.size() - 1);
        pool.parallel_for(0, lanes, [&](int lane) {
            flow::FlowWorkspace workspace;
            workspace.attach(net);
            for (std::size_t p = static_cast<std::size_t>(lane); p < pairs.size();
                 p += static_cast<std::size_t>(lanes)) {
                const double start = thread_cpu_s();
                {
                    Tracer::Scope span(tracer, "flow.cut");
                    kappa[p] = static_cast<int>(
                        flow::min_vertex_cut(g, net, workspace, pairs[p].first,
                                             pairs[p].second)
                            .size());
                }
                times[p] = (thread_cpu_s() - start) * 1e6;
            }
        });
        for (std::size_t p = 0; p < pairs.size(); ++p) {
            const auto [u, v] = pairs[p];
            const int cap = std::min(g.out_degree(u), in_degree[static_cast<std::size_t>(v)]);
            report.check(kappa[p] >= rows[i].kappa_min && kappa[p] <= cap,
                         "pair kappa within [kappa_min, degree cap]");
        }
        us.insert(us.end(), times.begin(), times.end());
    }
    return us;
}

// --- simulator layers -----------------------------------------------------

void SimLayer::add(const scen::Runner& runner, double run_seconds,
                   double callback_seconds) {
    const scen::RunnerTotals totals = runner.totals();
    run_s += run_seconds;
    callback_s += callback_seconds;
    capture_us += runner.snapshot_capture_us();
    events += totals.events_executed;
    rpcs_sent += totals.protocol.rpcs_sent;
    rpcs_failed += totals.protocol.rpcs_failed;
    lookups_completed += totals.protocol.lookups_completed;
    net_sent += totals.network.sent;
    net_dropped += totals.network.dropped_loss + totals.network.dropped_dead;
    arena_bytes += runner.arena_memory_bytes();
    queue_bytes += runner.queue_memory_bytes();
}

void report_sim_layer(Report& report, const SimLayer& sim) {
    const auto count = [&report](const char* name, std::uint64_t value) {
        report.metric(name, static_cast<double>(value), "count");
    };
    report.metric("scen.step_s", sim.step_s(), "s");
    count("sim.events", sim.events);
    report.metric("sim.events_per_s",
                  sim.step_s() > 0.0 ? static_cast<double>(sim.events) / sim.step_s() : 0.0,
                  "1/s");
    count("kad.rpcs_sent", sim.rpcs_sent);
    count("kad.rpcs_failed", sim.rpcs_failed);
    count("kad.lookups_completed", sim.lookups_completed);
    count("net.sent", sim.net_sent);
    count("net.dropped", sim.net_dropped);
    report.metric("scen.arena_bytes", static_cast<double>(sim.arena_bytes), "bytes");
    report.metric("scen.queue_bytes", static_cast<double>(sim.queue_bytes), "bytes");
    report.metric("graph.capture_s", static_cast<double>(sim.capture_us) * 1e-6, "s");
}

// --- decomposition ---------------------------------------------------------

Decomposition decompose(Report& report, const std::vector<graph::RoutingSnapshot>& snaps,
                        exec::ThreadPool& pool, Tracer& tracer) {
    const core::AnalyzerOptions options = registry_analyzer_options();
    const core::ConnectivityAnalyzer analyzer(options);
    Decomposition d;
    for (const auto& snap : snaps) {
        double t = now_s();
        const graph::Digraph g = [&] {
            Tracer::Scope span(&tracer, "graph.csr");
            return snap.to_digraph(&pool);
        }();
        d.csr_s += now_s() - t;
        d.n += static_cast<std::uint64_t>(g.vertex_count());
        d.m += static_cast<std::uint64_t>(g.edge_count());

        flow::ConnectivityOptions kappa_options;
        kappa_options.sample_fraction = options.sample_c;
        kappa_options.min_sources = options.min_sources;
        kappa_options.pool = &pool;
        t = now_s();
        flow::ConnectivityResult kappa;
        {
            Tracer::Scope span(&tracer, "flow.kappa");
            kappa = flow::vertex_connectivity(g, kappa_options);
        }
        d.kappa_s += now_s() - t;
        d.kappa_pairs += kappa.pairs_evaluated;
        d.kappa_capped += kappa.flows_capped;
        d.arcs_touched += kappa.arcs_touched;
        d.arena_bytes = std::max(d.arena_bytes, kappa.arena_bytes);

        flow::EdgeConnectivityOptions lambda_options;
        lambda_options.sample_fraction = options.sample_c;
        lambda_options.min_sources = options.min_sources;
        lambda_options.pool = &pool;
        t = now_s();
        flow::EdgeConnectivityResult lambda;
        {
            Tracer::Scope span(&tracer, "flow.lambda");
            lambda = flow::edge_connectivity(g, lambda_options);
        }
        d.lambda_s += now_s() - t;
        d.lambda_pairs += lambda.pairs_evaluated;
        d.lambda_capped += lambda.flows_capped;

        const analysis::MetricContext context{g, options.sample_c, options.min_sources,
                                              &pool};
        analysis::ResilienceMetrics metrics;
        t = now_s();
        {
            Tracer::Scope span(&tracer, "analysis.structure");
            analysis::ReachabilityMetric().analyze(context, metrics);
            analysis::CutStructureMetric().analyze(context, metrics);
            analysis::DegreeMetric().analyze(context, metrics);
        }
        d.structure_s += now_s() - t;

        t = now_s();
        core::ResilienceSample sample;
        {
            Tracer::Scope span(&tracer, "core.analyze");
            sample = analyzer.analyze(snap, &pool);
        }
        d.analyze_s += now_s() - t;
        d.rows.push_back(sample);

        // The parts must compose to the whole.
        report.check(kappa.kappa_min == sample.kappa_min &&
                         kappa.pairs_evaluated == sample.pairs_evaluated &&
                         lambda.lambda_min == sample.lambda_min &&
                         metrics.scc_count == sample.scc_count &&
                         metrics.articulation_points == sample.articulation_points &&
                         metrics.out_degree_min == sample.out_degree_min,
                     "decomposed parts agree with analyze() at t=" +
                         std::to_string(sample.time_min));
    }
    return d;
}

void report_decomposition(Report& report, const Decomposition& d,
                          const std::vector<double>& cut_us) {
    report.metric("graph.csr_s", d.csr_s, "s");
    report.metric("graph.n", static_cast<double>(d.n), "count");
    report.metric("graph.m", static_cast<double>(d.m), "count");
    report.metric("flow.kappa_s", d.kappa_s, "s");
    report.metric("flow.lambda_s", d.lambda_s, "s");
    report.metric("flow.kappa_pairs", static_cast<double>(d.kappa_pairs), "count");
    report.metric("flow.kappa_flows_capped", static_cast<double>(d.kappa_capped), "count");
    report.metric("flow.kappa_capped_ratio",
                  d.kappa_pairs == 0 ? 0.0
                                     : static_cast<double>(d.kappa_capped) /
                                           static_cast<double>(d.kappa_pairs),
                  "ratio");
    report.metric("flow.lambda_pairs", static_cast<double>(d.lambda_pairs), "count");
    report.metric("flow.lambda_flows_capped", static_cast<double>(d.lambda_capped),
                  "count");
    report.metric("flow.arcs_touched", static_cast<double>(d.arcs_touched), "count");
    report.metric("flow.arena_bytes", static_cast<double>(d.arena_bytes), "bytes");
    report.metric("flow.cut_us_p50", median(cut_us), "us");
    report.metric("flow.cut_samples", static_cast<double>(cut_us.size()), "count");
    report.metric("analysis.structure_s", d.structure_s, "s");
    const double parts = d.csr_s + d.kappa_s + d.lambda_s + d.structure_s;
    report.metric("core.compose_ratio", parts > 0.0 ? d.analyze_s / parts : 0.0, "ratio");
}

void finish_trace(Report& report, const Options& options, const Tracer& tracer) {
    const auto self = tracer.layer_self_times();
    for (const char* layer : {"scen", "graph", "flow", "analysis", "core", "serve"}) {
        const auto it = self.find(layer);
        report.metric(std::string("self.") + layer + "_s",
                      it == self.end() ? 0.0 : it->second, "s");
    }
    const std::string run_id = options.workload + "-" + std::to_string(options.seed);
    const std::string path = options.out_dir + "/trace-" + run_id + ".json";
    tracer.write(path, options.workload, run_id);
    std::printf("trace %s\n", path.c_str());
}

void report_absent(Report& report, const std::vector<std::string>& names) {
    for (const auto& name : names) {
        const std::string unit = name.ends_with("_us_p50") || name.ends_with("_us_p99")
                                     ? "us"
                                 : name.ends_with("_ms_p50") || name.ends_with("_ms_max")
                                     ? "ms"
                                     : "count";
        report.metric(name, 0.0, unit);
    }
}

}  // namespace perfbench
