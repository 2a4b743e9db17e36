// daemon_mixed: the real `resilience_daemon serve` as a child process,
// configured as its CLI runs it (snapshot-delta reuse on) with a fresh cache
// directory. One writer connection sends INGEST open-loop on a fixed
// schedule, each followed by METRICS for that snapshot; one closed-loop
// reader connection sends PAIR queries for seeded non-adjacent pairs on
// analyzed snapshots. The only workload through the serve layer.
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <csignal>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common.h"
#include "core/registry.h"
#include "flow/mincut.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr int kFirstMin = 150;  // first churn-phase snapshot
constexpr int kOverlays = 4;

struct Inputs {
    std::vector<graph::RoutingSnapshot> snaps;
    std::vector<std::string> bytes;   ///< binary serialization, as sent
    std::vector<std::string> hashes;  ///< expected INGEST reply hashes
    std::vector<graph::Digraph> graphs;
    std::vector<std::vector<std::pair<int, int>>> pairs;
    SimLayer sim;
};

/// One-minute-cadence churn-phase series of n = 500 overlays (metrics
/// family settings: churn 1/1, no traffic), overlay after overlay.
Inputs make_inputs(const Options& options, Tracer* tracer) {
    const int per_overlay = options.tiny ? 2 : 9;
    Inputs in;
    for (int j = 0; j < kOverlays; ++j) {
        core::ReproScale scale;
        scale.seed = overlay_seed(options.seed, j);
        core::ExperimentConfig cfg = core::PaperScenarios(scale).metrics_1000();
        cfg.scenario.initial_size = options.tiny ? 60 : 500;
        cfg.scenario.phases.set_end(sim::minutes(kFirstMin + per_overlay - 1));
        scen::Runner runner(cfg.scenario);
        double callback_s = 0.0;
        const double start = now_s();
        {
            Tracer::Scope span(tracer, "scen.run");
            runner.run(sim::minutes(1), [&](const graph::RoutingSnapshot& snap) {
                const double t = now_s();
                if (snap.time_ms >= sim::minutes(kFirstMin)) in.snaps.push_back(snap);
                callback_s += now_s() - t;
            });
        }
        in.sim.add(runner, now_s() - start, callback_s);
    }
    for (std::size_t i = 0; i < in.snaps.size(); ++i) {
        std::ostringstream out(std::ios::binary);
        in.snaps[i].save_binary(out);
        in.bytes.push_back(out.str());
        // The daemon sees only the bytes, which carry no Runner-filled
        // companions; the offline reference analyzes the same bytes.
        std::istringstream bytes(in.bytes.back(), std::ios::binary);
        in.snaps[i] = graph::RoutingSnapshot::parse(bytes);
        in.hashes.push_back(serve::Daemon::content_hash(in.snaps[i]));
        in.graphs.push_back(in.snaps[i].to_digraph());
        in.pairs.push_back(sample_pairs(in.graphs.back(), options.seed ^ (0x51 + i), 4096));
    }
    return in;
}

/// Ingest order: every snapshot once, overlay after overlay, each overlay's
/// first snapshot followed by two re-sends of it (the dedupe path). That
/// first analysis has no delta to reuse and takes several slots; the
/// re-sends give it two slots of slack, so the warm snapshots after it are
/// not all answered late (with the delay spread over the next warm
/// snapshots, answer_ms_p50 moved by up to 0.25 between seeds).
std::vector<int> ingest_plan(int count) {
    const int per_overlay = std::max(1, count / kOverlays);
    std::vector<int> plan;
    for (int i = 0; i < count; ++i) {
        plan.push_back(i);
        if (i % per_overlay == 0) plan.insert(plan.end(), 2, i);
    }
    return plan;
}

/// A client connection speaking the framed protocol.
class Connection {
public:
    explicit Connection(const std::string& socket_path) {
        std::string error;
        fd_ = serve::connect_unix(socket_path, error);
    }
    ~Connection() {
        if (fd_ >= 0) ::close(fd_);
    }
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    [[nodiscard]] bool ok() const noexcept { return fd_ >= 0; }

    /// One round trip; transport failures come back as "ERR ...".
    std::string request(std::string_view payload) {
        if (serve::write_frame(fd_, payload) != serve::FrameResult::kOk) {
            return "ERR send failed";
        }
        std::string reply;
        if (serve::read_frame(fd_, reply) != serve::FrameResult::kOk) {
            return "ERR no reply";
        }
        return reply;
    }

private:
    int fd_ = -1;
};

/// The daemon child process: started with a fresh cache directory, stopped
/// with SHUTDOWN, reaped with its rusage.
class DaemonProcess {
public:
    DaemonProcess(const Options& options, const std::string& dir, int threads)
        : dir_(dir), socket_(dir + ".sock") {
        std::filesystem::create_directories(dir_);
        const std::string cache = dir_ + "/cache";
        const std::string thread_arg = std::to_string(threads);
        pid_ = ::fork();
        if (pid_ == 0) {
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            const int devnull = ::open("/dev/null", O_WRONLY);
            if (devnull >= 0) ::dup2(devnull, STDOUT_FILENO);
            ::execl(options.daemon_path.c_str(), "resilience_daemon", "serve", "--socket",
                    socket_.c_str(), "--cache", cache.c_str(), "--threads",
                    thread_arg.c_str(), "--queue", "32", static_cast<char*>(nullptr));
            ::_exit(127);
        }
        // Ready once a PING round-trips.
        for (int attempt = 0; attempt < 1000 && pid_ > 0; ++attempt) {
            Connection probe(socket_);
            if (probe.ok() && probe.request("PING").rfind("OK", 0) == 0) {
                ready_ = true;
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    }
    ~DaemonProcess() { stop(); }
    DaemonProcess(const DaemonProcess&) = delete;
    DaemonProcess& operator=(const DaemonProcess&) = delete;

    [[nodiscard]] bool ready() const noexcept { return ready_; }
    [[nodiscard]] const std::string& socket() const noexcept { return socket_; }

    /// SHUTDOWN, then wait (SIGKILL after 20 s). True on a clean exit 0.
    bool stop() {
        if (pid_ <= 0) return false;
        {
            Connection c(socket_);
            if (c.ok()) (void)c.request("SHUTDOWN");
        }
        int status = 0;
        for (int waited = 0;; waited += 10) {
            const pid_t r = ::wait4(pid_, &status, WNOHANG, &usage_);
            if (r == pid_ || (r < 0 && errno != EINTR)) break;
            if (waited == 20000) ::kill(pid_, SIGKILL);
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        pid_ = 0;
        std::error_code ignored;
        std::filesystem::remove_all(dir_, ignored);
        std::filesystem::remove(socket_, ignored);
        clean_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        return clean_;
    }

    [[nodiscard]] double cpu_s() const {
        return static_cast<double>(usage_.ru_utime.tv_sec + usage_.ru_stime.tv_sec) +
               static_cast<double>(usage_.ru_utime.tv_usec + usage_.ru_stime.tv_usec) *
                   1e-6;
    }
    [[nodiscard]] double peak_rss_mib() const {
        return static_cast<double>(usage_.ru_maxrss) / 1024.0;
    }

private:
    std::string dir_;
    std::string socket_;
    pid_t pid_ = -1;
    bool ready_ = false;
    bool clean_ = false;
    rusage usage_{};
};

/// COUNTERS reply lines "key=value"; never throws (the writer loop must
/// reach the reader's join).
std::map<std::string, double> parse_counters(const std::string& reply) {
    std::map<std::string, double> out;
    std::istringstream in(reply);
    std::string line;
    while (std::getline(in, line)) {
        const auto eq = line.find('=');
        if (eq != std::string::npos) {
            out[line.substr(0, eq)] = std::strtod(line.c_str() + eq + 1, nullptr);
        }
    }
    return out;
}

struct PairAnswer {
    int snapshot;
    int u;
    int v;
    int kappa;
};

struct Traffic {
    double wall_s = 0.0;
    std::vector<double> answer_ms;   ///< fresh snapshots: due → METRICS reply
    std::vector<double> ingest_us;   ///< INGEST round trips
    std::vector<double> wait_ms;     ///< INGEST reply → METRICS reply
    std::vector<double> late_ms;     ///< generator lateness per INGEST
    std::vector<double> pair_us;
    std::vector<PairAnswer> answers;
    std::vector<std::string> rows;   ///< METRICS rows of the fresh snapshots
    double queue_depth_max = 0.0;
    std::map<std::string, double> counters;
};

Traffic drive(Report& report, const Options& options, const Inputs& in,
              const std::string& socket, Tracer* tracer) {
    Traffic t;
    const std::vector<int> plan = ingest_plan(static_cast<int>(in.snaps.size()));
    const double interval = options.seconds / static_cast<double>(plan.size());
    std::mutex mutex;
    std::vector<int> analyzed;  // guarded by mutex
    std::atomic<bool> done{false};

    // Closed-loop reader: mostly the latest analyzed snapshot, sometimes an
    // older one (through the hot LRU or the spool).
    std::thread reader([&] {
        Connection conn(socket);
        util::Rng rng(options.seed ^ 0x7ead);
        std::vector<std::size_t> cursor(in.snaps.size(), 0);
        while (!done.load()) {
            int j = -1;
            {
                std::lock_guard lock(mutex);
                if (!analyzed.empty()) {
                    j = rng.next_below(4) != 0
                            ? analyzed.back()
                            : analyzed[rng.next_below(analyzed.size())];
                }
            }
            if (j < 0) {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
                continue;
            }
            const auto& pairs = in.pairs[static_cast<std::size_t>(j)];
            const auto [u, v] = pairs[cursor[static_cast<std::size_t>(j)]++ % pairs.size()];
            const std::string request = "PAIR " + in.hashes[static_cast<std::size_t>(j)] +
                                        " " + std::to_string(u) + " " + std::to_string(v);
            const double start = now_s();
            std::string reply;
            {
                Tracer::Scope span(tracer, "serve.pair");
                reply = conn.request(request);
            }
            const double us = (now_s() - start) * 1e6;
            std::lock_guard lock(mutex);
            report.op(reply.rfind("OK kappa=", 0) == 0, "PAIR: " + reply.substr(0, 80));
            if (reply.rfind("OK kappa=", 0) == 0) {
                t.pair_us.push_back(us);
                t.answers.push_back({j, u, v, std::atoi(reply.c_str() + 9)});
            }
        }
    });

    // Open-loop writer.
    Connection conn(socket);
    std::vector<bool> seen(in.snaps.size(), false);
    const double t0 = now_s() + 0.05;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        const auto j = static_cast<std::size_t>(plan[i]);
        const double due = t0 + interval * static_cast<double>(i);
        while (now_s() < due) {
            std::this_thread::sleep_for(std::chrono::duration<double>(due - now_s()));
        }
        const double sent = now_s();
        std::string reply;
        {
            Tracer::Scope span(tracer, "serve.ingest");
            reply = conn.request("INGEST bench-" + std::to_string(j) + "\n" + in.bytes[j]);
        }
        const double ingested = now_s();
        const std::string counters = conn.request("COUNTERS");
        std::string metrics;
        {
            Tracer::Scope span(tracer, "serve.metrics");
            metrics = conn.request("METRICS " + in.hashes[j]);
        }
        const double answered = now_s();
        std::lock_guard lock(mutex);
        report.op(reply == "OK " + in.hashes[j], "INGEST " + std::to_string(j) + ": " + reply);
        report.op(metrics.rfind("OK ", 0) == 0, "METRICS " + std::to_string(j) + ": " + metrics);
        t.late_ms.push_back((sent - due) * 1e3);
        t.ingest_us.push_back((ingested - sent) * 1e6);
        t.queue_depth_max = std::max(t.queue_depth_max, parse_counters(counters)["queue_depth"]);
        if (!seen[j]) {
            seen[j] = true;
            t.answer_ms.push_back((answered - due) * 1e3);
            t.wait_ms.push_back((answered - ingested) * 1e3);
            t.rows.push_back(metrics.size() > 3 ? metrics.substr(3) : metrics);
            analyzed.push_back(static_cast<int>(j));
        }
    }
    t.wall_s = now_s() - t0;
    done.store(true);
    reader.join();
    const std::string counters = conn.request("COUNTERS");
    report.op(counters.rfind("OK", 0) == 0, "COUNTERS");
    t.counters = parse_counters(counters);
    return t;
}

/// The offline analyzer configured as the daemon's CLI configures it.
core::AnalyzerOptions daemon_analyzer_options() {
    core::AnalyzerOptions options = registry_analyzer_options();
    options.use_delta = true;
    return options;
}

}  // namespace

int run_daemon_mixed(const Options& options) {
    Report report;
    Tracer tracer(options.trace);
    const int threads = std::max(1, hardware_threads() - 2);
    const std::string base = options.out_dir + "/daemon-" + std::to_string(::getpid());

    // Setup, repeated: the input series plus a started daemon. Earlier
    // repetitions' daemons are stopped at once; the last one serves.
    std::vector<double> setup_times;
    Inputs in;
    std::unique_ptr<DaemonProcess> daemon;
    for (int rep = 0; rep < 3; ++rep) {
        if (daemon) report.check(daemon->stop(), "setup daemon exits cleanly");
        const double start = now_s();
        Inputs next = make_inputs(options, rep == 0 ? &tracer : nullptr);
        daemon = std::make_unique<DaemonProcess>(options, base + "-" + std::to_string(rep),
                                                 threads);
        setup_times.push_back(now_s() - start);
        report.check(rep == 0 || next.hashes == in.hashes, "setup is deterministic");
        if (rep == 0) in = std::move(next);
        report.check(daemon->ready(), "daemon answers PING");
    }
    // No daemon, no workload: exit non-zero without a result.
    if (!daemon->ready()) throw std::runtime_error("resilience_daemon did not start");

    const Traffic t = drive(report, options, in, daemon->socket(), &tracer);
    report.check(daemon->stop(), "daemon exits 0 after SHUTDOWN");

    // Output checks against the offline analyzer on the same snapshots.
    exec::ThreadPool pool(hardware_threads());
    const core::ConnectivityAnalyzer offline(daemon_analyzer_options());
    std::vector<core::ResilienceSample> rows;
    const double offline_start = now_s();
    for (const auto& snap : in.snaps) rows.push_back(offline.analyze(snap, &pool));
    const double offline_s = now_s() - offline_start;
    check_digest(report, options, rows_digest(rows));
    check_invariants(report, rows);
    report.check(t.rows.size() == rows.size(), "one METRICS row per snapshot");
    for (std::size_t i = 0; i < std::min(t.rows.size(), rows.size()); ++i) {
        report.check(t.rows[i] == serve::ResultCache::format_sample_row(rows[i]),
                     "METRICS row byte-equal to offline row " + std::to_string(i));
    }
    for (const auto& a : t.answers) {
        const auto& g = in.graphs[static_cast<std::size_t>(a.snapshot)];
        const int cap = std::min(g.out_degree(a.u), g.in_degrees()[static_cast<std::size_t>(a.v)]);
        report.check(a.kappa >= rows[static_cast<std::size_t>(a.snapshot)].kappa_min &&
                         a.kappa <= cap,
                     "PAIR kappa within [kappa_min, degree cap]");
    }
    const auto counter = [&t](const char* name) {
        const auto it = t.counters.find(name);
        return it == t.counters.end() ? -1.0 : it->second;
    };
    const std::size_t resends = ingest_plan(static_cast<int>(in.snaps.size())).size() -
                                in.snaps.size();
    report.check(counter("duplicates") == static_cast<double>(resends),
                 "re-sends deduplicated");
    report.check(counter("rejected") == 0.0, "no ingest rejected");
    report.check(t.pair_us.size() >= (options.tiny ? 10u : 1000u),
                 "enough PAIR samples for p99");

    if (!options.trace) {
        report.metric("setup_s", median(setup_times), "s");
        report.metric("wall_s", t.wall_s, "s");
        report.metric("cpu_s", daemon->cpu_s(), "s");
        report.metric("peak_rss_mib", daemon->peak_rss_mib(), "MiB");
        report.metric("answer_ms_p50", median(t.answer_ms), "ms");
        report.metric("pair_us_p50", quantile(t.pair_us, 0.50), "us");
        report.metric("pair_us_p99", block_quantile(t.pair_us, 0.99), "us");
        std::printf("snapshots %zu, ingests %zu, pair samples %zu, generator late max %.3f ms\n",
                    in.snaps.size(), t.late_ms.size(), t.pair_us.size(),
                    quantile(t.late_ms, 1.0));
        return report.finish(false);
    }

    // Traced: recompute the offline rows (the call both runs make) and the
    // per-layer decomposition plus a sample of min_vertex_cut calls.
    const core::ConnectivityAnalyzer traced(daemon_analyzer_options());
    std::vector<core::ResilienceSample> traced_rows;
    const double traced_start = now_s();
    for (const auto& snap : in.snaps) {
        Tracer::Scope span(&tracer, "core.analyze");
        traced_rows.push_back(traced.analyze(snap, &pool));
    }
    const double traced_s = now_s() - traced_start;
    report.check(rows_digest(traced_rows) == rows_digest(rows),
                 "traced offline rows identical");
    const Decomposition d = decompose(report, in.snaps, pool, tracer);
    const std::vector<double> cut_us =
        time_pair_cuts(report, in.snaps, rows, options.seed, options.tiny ? 20 : 100, pool, &tracer);

    const analysis::DeltaStats kappa = traced.delta_cache()->kappa_stats();
    const analysis::DeltaStats lambda = traced.delta_cache()->lambda_stats();
    const double lookups = static_cast<double>(kappa.lookups + lambda.lookups);
    report_sim_layer(report, in.sim);
    report_decomposition(report, d, cut_us);
    report.metric("analysis.delta_reuse_ratio",
                  lookups > 0.0 ? static_cast<double>(kappa.hits + lambda.hits) / lookups : 0.0,
                  "ratio");
    report.metric("analysis.delta_lookups", lookups, "count");
    report.metric("core.analyze_s", traced_s, "s");
    report.metric("exec.cpu_util", daemon->cpu_s() / (t.wall_s * threads), "ratio");
    report.metric("serve.ingest_us_p50", median(t.ingest_us), "us");
    report.metric("serve.wait_ms_p50", median(t.wait_ms), "ms");
    report.metric("serve.query_us_p50", counter("query_latency_p50_us"), "us");
    report.metric("serve.query_us_p99", counter("query_latency_p99_us"), "us");
    for (const char* name : {"hot_hits", "hot_misses", "hot_evictions", "result_cache_hits",
                             "duplicates", "rejected"}) {
        report.metric(std::string("serve.") + name, counter(name), "count");
    }
    report.metric("serve.queue_depth_max", t.queue_depth_max, "count");
    report.metric("loadgen.late_ms_max", quantile(t.late_ms, 1.0), "ms");
    report.metric("trace.overhead_s", traced_s - offline_s, "s");
    report.metric("trace.overhead_frac", (traced_s - offline_s) / offline_s, "ratio");
    finish_trace(report, options, tracer);
    return report.finish(true);
}

}  // namespace perfbench
