// analysis_churn: churn-phase snapshots of metrics-family overlays (churn
// 1/1, no traffic, 30-minute snapshots) captured in setup; the timed phase
// is core::ConnectivityAnalyzer::analyze(snap, &pool) per snapshot on an
// nproc pool with the registry's options (delta off). Bound by the analysis.
#include <cerrno>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include <sys/wait.h>
#include <unistd.h>

#include "common.h"
#include "core/registry.h"
#include "serve/daemon.h"

namespace perfbench {
namespace {

constexpr double kChurnFromMin = 150.0;
constexpr int kOverlays = 8;
constexpr int kSize = 500;
constexpr int kPairsPerSnapshot = 640;

struct Inputs {
    std::vector<graph::RoutingSnapshot> snaps;
    SimLayer sim;
};

/// The seeded simulations: per overlay, Runner::run over the metrics_1000
/// scenario resized to kSize nodes, keeping the snapshots taken at
/// t ≥ 150 min (t = 150 and 180).
Inputs simulate(const Options& options, Tracer* tracer) {
    Inputs inputs;
    for (int j = 0; j < kOverlays; ++j) {
        core::ReproScale scale;
        scale.seed = overlay_seed(options.seed, j);
        core::ExperimentConfig cfg = core::PaperScenarios(scale).metrics_1000();
        cfg.scenario.initial_size = options.tiny ? 80 : kSize;
        scen::Runner runner(cfg.scenario);
        double callback_s = 0.0;
        const double start = now_s();
        {
            Tracer::Scope span(tracer, "scen.run");
            runner.run(cfg.snapshot_interval, [&](const graph::RoutingSnapshot& snap) {
                const double t = now_s();
                if (static_cast<double>(snap.time_ms) / 60000.0 >= kChurnFromMin) {
                    inputs.snaps.push_back(snap);
                }
                callback_s += now_s() - t;
            });
        }
        inputs.sim.add(runner, now_s() - start, callback_s);
    }
    return inputs;
}

/// The snapshots as binary KSNP records, each behind its 8-byte length.
std::string to_bytes(const std::vector<graph::RoutingSnapshot>& snaps) {
    std::string blob;
    for (const auto& snap : snaps) {
        std::ostringstream out(std::ios::binary);
        snap.save_binary(out);
        const std::string bytes = out.str();
        const std::uint64_t size = bytes.size();
        blob.append(reinterpret_cast<const char*>(&size), sizeof size);
        blob += bytes;
    }
    return blob;
}

std::vector<graph::RoutingSnapshot> from_bytes(const std::string& blob) {
    std::vector<graph::RoutingSnapshot> snaps;
    std::size_t at = 0;
    while (at + sizeof(std::uint64_t) <= blob.size()) {
        std::uint64_t size = 0;
        std::memcpy(&size, blob.data() + at, sizeof size);
        at += sizeof size;
        if (size > blob.size() - at) throw std::runtime_error("truncated snapshot record");
        std::istringstream in(blob.substr(at, size), std::ios::binary);
        snaps.push_back(graph::RoutingSnapshot::parse(in));
        at += size;
    }
    return snaps;
}

/// Untraced runs simulate in a forked child and read the snapshots back
/// through a pipe, so this process's peak RSS is the analysis's alone. In
/// one process, whether the simulations' frees had raised glibc's dynamic
/// mmap threshold decided, seed by seed, whether the analysis buffers added
/// about 9 MiB to the simulations' peak (24 or 33 MiB).
std::vector<graph::RoutingSnapshot> simulate_in_child(const Options& options) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
        ::close(fds[0]);
        int code = 0;
        try {
            const std::string blob = to_bytes(simulate(options, nullptr).snaps);
            for (std::size_t at = 0; at < blob.size();) {
                const ssize_t n = ::write(fds[1], blob.data() + at, blob.size() - at);
                if (n < 0 && errno == EINTR) continue;
                if (n <= 0) throw std::runtime_error("write failed");
                at += static_cast<std::size_t>(n);
            }
        } catch (...) {
            code = 1;
        }
        ::_exit(code);
    }
    ::close(fds[1]);
    std::string blob;
    char buffer[1 << 16];
    for (;;) {
        const ssize_t n = ::read(fds[0], buffer, sizeof buffer);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        blob.append(buffer, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        throw std::runtime_error("set-up child failed");
    }
    return from_bytes(blob);
}

std::string inputs_digest(const std::vector<graph::RoutingSnapshot>& snaps) {
    std::string all;
    for (const auto& snap : snaps) all += serve::Daemon::content_hash(snap);
    return all;
}

}  // namespace

int run_analysis_churn(const Options& options) {
    Report report;
    Tracer tracer(options.trace);
    const int threads = hardware_threads();

    // Setup, repeated: the snapshots must come out identical every time.
    // Both paths hand the analysis the snapshots parsed from their bytes;
    // the traced run simulates in process, for the simulator's spans and
    // counters.
    std::vector<double> setup_times;
    Inputs inputs;
    std::string setup_digest;
    for (int rep = 0; rep < 3; ++rep) {
        const double start = now_s();
        if (options.trace) {
            inputs = simulate(options, rep == 0 ? &tracer : nullptr);
            inputs.snaps = from_bytes(to_bytes(inputs.snaps));
        } else {
            inputs.snaps = simulate_in_child(options);
        }
        setup_times.push_back(now_s() - start);
        const std::string digest = inputs_digest(inputs.snaps);
        report.check(rep == 0 || digest == setup_digest, "setup is deterministic");
        setup_digest = digest;
    }
    report.check(!inputs.snaps.empty(), "churn-phase snapshots captured");
    exec::ThreadPool pool(threads);
    const core::ConnectivityAnalyzer analyzer(registry_analyzer_options());

    // Timed phase: passes of analyze() over every snapshot until the run's
    // seconds are spent, at least two.
    std::vector<double> wall;
    std::vector<double> cpu;
    std::vector<double> answer_ms;
    std::vector<std::vector<core::ResilienceSample>> passes;
    const double phase_start = now_s();
    do {
        std::vector<core::ResilienceSample> rows;
        const double start = now_s();
        const double cpu_start = process_cpu_s();
        for (const auto& snap : inputs.snaps) {
            const double t = now_s();
            rows.push_back(analyzer.analyze(snap, &pool));
            answer_ms.push_back((now_s() - t) * 1e3);
            report.op(true, "analyze");
        }
        wall.push_back(now_s() - start);
        cpu.push_back(process_cpu_s() - cpu_start);
        passes.push_back(std::move(rows));
    } while (wall.size() < 2 || now_s() - phase_start + wall.back() <= options.seconds);

    const std::string digest = rows_digest(passes.front());
    for (std::size_t i = 1; i < passes.size(); ++i) {
        report.check(rows_digest(passes[i]) == digest, "repeat pass rows identical");
    }
    check_digest(report, options, digest);
    check_invariants(report, passes.front());

    if (!options.trace) {
        const std::vector<double> pair_us = time_pair_cuts(
            report, inputs.snaps, passes.front(), options.seed,
            options.tiny ? 10 : kPairsPerSnapshot, pool, nullptr);
        report.metric("setup_s", median(setup_times), "s");
        report.metric("wall_s", median(wall), "s");
        report.metric("cpu_s", median(cpu), "s");
        report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
        report.metric("answer_ms_p50", median(answer_ms), "ms");
        report.metric("pair_us_p50", quantile(pair_us, 0.50), "us");
        report.metric("pair_us_p99", block_quantile(pair_us, 0.99), "us");
        std::printf("passes %zu, snapshots per pass %zu, pair samples %zu\n", passes.size(),
                    inputs.snaps.size(), pair_us.size());
        return report.finish(false);
    }

    // Traced run: the decomposition pass calls each part separately, then
    // analyze() itself — the call both runs make.
    const Decomposition d = decompose(report, inputs.snaps, pool, tracer);
    report.check(rows_digest(d.rows) == digest, "traced rows identical to untraced rows");
    const std::vector<double> cut_us = time_pair_cuts(
        report, inputs.snaps, passes.front(), options.seed, options.tiny ? 10 : kPairsPerSnapshot,
        pool, &tracer);

    report_sim_layer(report, inputs.sim);
    report_decomposition(report, d, cut_us);
    report.metric("analysis.delta_reuse_ratio", 0.0, "ratio");
    report.metric("analysis.delta_lookups", 0.0, "count");
    report.metric("core.analyze_s", d.analyze_s, "s");
    report.metric("exec.cpu_util", cpu.front() / (wall.front() * threads), "ratio");
    report_absent(report, {"serve.ingest_us_p50", "serve.wait_ms_p50",
                           "serve.query_us_p50", "serve.query_us_p99", "serve.hot_hits",
                           "serve.hot_misses", "serve.hot_evictions",
                           "serve.result_cache_hits", "serve.duplicates",
                           "serve.rejected", "serve.queue_depth_max",
                           "loadgen.late_ms_max"});
    report.metric("trace.overhead_s", d.analyze_s - wall.front(), "s");
    report.metric("trace.overhead_frac", (d.analyze_s - wall.front()) / wall.front(),
                  "ratio");
    finish_trace(report, options, tracer);
    return report.finish(true);
}

}  // namespace perfbench
