// fig06_batch: the four Simulation E configs behind Figure 6 (k = 5, 10, 20,
// 30; n = 250; churn 1/1; traffic on; 30-minute snapshots) through
// core::run_experiment_batch on an nproc pool — the path bench::run_figure
// takes, minus its on-disk series cache. Bound by the simulator.
#include <algorithm>
#include <exception>
#include <mutex>

#include "common.h"
#include "core/experiment.h"
#include "core/registry.h"
#include "serve/daemon.h"
#include "serve/result_cache.h"

namespace perfbench {
namespace {

constexpr int kBuckets[] = {5, 10, 20, 30};

core::ReproScale scale_for(const Options& options) {
    core::ReproScale scale;
    scale.seed = options.seed;
    scale.size_small = options.tiny ? 60 : 250;
    // Setup (to 30 min) + stabilization (to 120) + half an hour of churn:
    // five snapshots per config, the last one in the churn phase.
    scale.churn_figs_end = sim::minutes(150);
    scale.threads = hardware_threads();
    return scale;
}

std::vector<core::ExperimentConfig> make_configs(const Options& options) {
    const core::PaperScenarios scenarios(scale_for(options));
    std::vector<core::ExperimentConfig> configs;
    for (const int k : kBuckets) configs.push_back(scenarios.sim_e(k));
    return configs;
}

constexpr int kProbeOverlays = 8;

/// Input of the in-process PAIR probes: metrics_250 overlays (no traffic)
/// at the first churn-phase snapshot, t = 150 min.
std::vector<graph::RoutingSnapshot> pair_probe_snapshots(const Options& options) {
    std::vector<graph::RoutingSnapshot> snaps;
    for (int j = 0; j < kProbeOverlays; ++j) {
        core::ReproScale scale = scale_for(options);
        scale.seed = overlay_seed(options.seed, j);
        core::ExperimentConfig cfg = core::PaperScenarios(scale).metrics_250();
        cfg.scenario.initial_size = scale.size_small;
        cfg.scenario.phases.set_end(sim::minutes(150));
        scen::Runner runner(cfg.scenario);
        runner.step_to(sim::minutes(150));
        snaps.push_back(runner.snapshot());
    }
    return snaps;
}

std::vector<core::ResilienceSample> flatten(const std::vector<core::ExperimentSeries>& all) {
    std::vector<core::ResilienceSample> rows;
    for (const auto& series : all) {
        rows.insert(rows.end(), series.samples.begin(), series.samples.end());
    }
    return rows;
}

std::string joined_rows(const std::vector<core::ResilienceSample>& rows) {
    std::string out;
    for (const auto& s : rows) out += serve::ResultCache::format_sample_row(s) + "\n";
    return out;
}

struct BatchRun {
    std::vector<core::ResilienceSample> rows;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double row_ms = 0.0;  ///< lane time per row: Σ lanes' last-row times ÷ rows
};

BatchRun run_batch(const std::vector<core::ExperimentConfig>& configs,
                   exec::ThreadPool& pool) {
    BatchRun run;
    std::mutex mutex;
    const double start = now_s();
    std::vector<double> last(configs.size(), start);
    const double cpu = process_cpu_s();
    const auto series = core::run_experiment_batch(
        configs, &pool, [&](std::size_t index, const core::ResilienceSample&) {
            const double t = now_s();
            std::lock_guard lock(mutex);
            last[index] = t;
        });
    run.wall_s = now_s() - start;
    run.cpu_s = process_cpu_s() - cpu;
    run.rows = flatten(series);
    double lanes_s = 0.0;
    for (const double t : last) lanes_s += t - start;
    run.row_ms = lanes_s * 1e3 / static_cast<double>(std::max<std::size_t>(1, run.rows.size()));
    return run;
}

/// The batch task's body, per config and traced: Runner::run with analyze()
/// in the snapshot callback, exactly as run_experiment_batch's tasks do.
struct TracedLane {
    std::vector<core::ResilienceSample> rows;
    std::vector<graph::RoutingSnapshot> snaps;
    double analyze_s = 0.0;
};

TracedLane traced_lane(const core::ExperimentConfig& config, Tracer& tracer,
                       SimLayer& sim, std::mutex& sim_mutex) {
    TracedLane lane;
    Tracer::Scope lane_span(&tracer, "bench.lane");
    scen::Runner runner(config.scenario);
    const core::ConnectivityAnalyzer analyzer(config.analyzer);
    double callback_s = 0.0;
    const double start = now_s();
    {
        Tracer::Scope span(&tracer, "scen.run");
        runner.run(config.snapshot_interval, [&](const graph::RoutingSnapshot& snap) {
            const double t = now_s();
            {
                Tracer::Scope copy(&tracer, "bench.copy");
                lane.snaps.push_back(snap);
            }
            const double t_analyze = now_s();
            {
                Tracer::Scope analyze(&tracer, "core.analyze");
                lane.rows.push_back(analyzer.analyze(snap));
            }
            lane.analyze_s += now_s() - t_analyze;
            callback_s += now_s() - t;
        });
    }
    const double run_s = now_s() - start;
    std::lock_guard lock(sim_mutex);
    sim.add(runner, run_s, callback_s);
    return lane;
}

}  // namespace

int run_fig06_batch(const Options& options) {
    Report report;
    Tracer tracer(options.trace);
    const int threads = hardware_threads();

    // Setup: the configs, the pool and the PAIR-probe input; repeated, and
    // the probe snapshots must come out identical every time.
    std::vector<double> setup_times;
    std::vector<core::ExperimentConfig> configs;
    std::unique_ptr<exec::ThreadPool> pool;
    std::vector<graph::RoutingSnapshot> probes;
    std::string probe_digest;
    for (int rep = 0; rep < 3; ++rep) {
        pool.reset();
        const double start = now_s();
        configs = make_configs(options);
        pool = std::make_unique<exec::ThreadPool>(threads);
        probes = pair_probe_snapshots(options);
        setup_times.push_back(now_s() - start);
        std::string digest;
        for (const auto& snap : probes) digest += serve::Daemon::content_hash(snap);
        report.check(rep == 0 || digest == probe_digest, "setup is deterministic");
        probe_digest = digest;
    }

    // Timed phase: whole batches until the run's seconds are spent, at least
    // two, so a slow host's run still has a median over batches. The peak RSS is read after the first batch: later batches deal the configs
    // to pool threads whose malloc arenas already hold another config's
    // high-water mark, so the process peak creeps up with the batch count
    // and with how the configs happened to be dealt.
    std::vector<BatchRun> runs;
    double rss_mib = 0.0;
    const double phase_start = now_s();
    do {
        runs.push_back(run_batch(configs, *pool));
        report.op(runs.back().rows.size() == configs.size() * 5, "batch produced every row");
        if (runs.size() == 1) rss_mib = peak_rss_mib();
    } while (runs.size() < 2 ||
             now_s() - phase_start + runs.back().wall_s <= options.seconds);

    const std::string digest = rows_digest(runs.front().rows);
    for (std::size_t i = 1; i < runs.size(); ++i) {
        report.check(rows_digest(runs[i].rows) == digest, "repeat batch rows identical");
    }
    check_digest(report, options, digest);
    check_invariants(report, runs.front().rows);

    // PAIR probes on the setup snapshots (untimed by wall_s).
    std::vector<core::ResilienceSample> probe_rows;
    for (const auto& snap : probes) {
        probe_rows.push_back(
            core::ConnectivityAnalyzer(registry_analyzer_options()).analyze(snap, pool.get()));
    }
    const int pairs_per_probe = options.tiny ? 50 : 1280;
    const std::vector<double> pair_us = time_pair_cuts(report, probes, probe_rows,
                                                       options.seed, pairs_per_probe, *pool, nullptr);

    std::vector<double> wall;
    std::vector<double> cpu;
    std::vector<double> row_ms;
    for (const auto& run : runs) {
        wall.push_back(run.wall_s);
        cpu.push_back(run.cpu_s);
        row_ms.push_back(run.row_ms);
    }

    if (!options.trace) {
        report.metric("setup_s", median(setup_times), "s");
        report.metric("wall_s", median(wall), "s");
        report.metric("cpu_s", median(cpu), "s");
        report.metric("peak_rss_mib", rss_mib, "MiB");
        report.metric("answer_ms_p50", median(row_ms), "ms");
        report.metric("pair_us_p50", quantile(pair_us, 0.50), "us");
        report.metric("pair_us_p99", block_quantile(pair_us, 0.99), "us");
        std::printf("batches %zu, rows per batch %zu, pair samples %zu\n", runs.size(),
                    runs.front().rows.size(), pair_us.size());
        return report.finish(false);
    }

    // Traced run: each config's Runner::run with analyze() in the callback,
    // concurrently on the pool like the batch tasks.
    SimLayer sim;
    std::mutex sim_mutex;
    std::vector<TracedLane> lanes(configs.size());
    const double traced_start = now_s();
    {
        std::vector<std::future<TracedLane>> futures;
        for (const auto& config : configs) {
            futures.push_back(pool->submit([&config, &tracer, &sim, &sim_mutex] {
                return traced_lane(config, tracer, sim, sim_mutex);
            }));
        }
        // Every lane references this frame: join them all before rethrowing.
        std::exception_ptr error;
        for (std::size_t i = 0; i < futures.size(); ++i) {
            try {
                lanes[i] = pool->wait_get(futures[i]);
            } catch (...) {
                if (!error) error = std::current_exception();
            }
        }
        if (error) std::rethrow_exception(error);
    }
    const double traced_wall = now_s() - traced_start;
    std::vector<core::ResilienceSample> traced_rows;
    std::vector<graph::RoutingSnapshot> snaps;
    double lane_analyze_s = 0.0;
    for (auto& lane : lanes) {
        traced_rows.insert(traced_rows.end(), lane.rows.begin(), lane.rows.end());
        snaps.insert(snaps.end(), lane.snaps.begin(), lane.snaps.end());
        lane_analyze_s += lane.analyze_s;
    }
    report.check(joined_rows(traced_rows) == joined_rows(runs.front().rows),
                 "traced rows byte-equal to untraced rows");

    const Decomposition d = decompose(report, snaps, *pool, tracer);
    const std::vector<double> cut_us =
        time_pair_cuts(report, probes, probe_rows, options.seed, pairs_per_probe, *pool, &tracer);

    report_sim_layer(report, sim);
    report_decomposition(report, d, cut_us);
    report.metric("analysis.delta_reuse_ratio", 0.0, "ratio");
    report.metric("analysis.delta_lookups", 0.0, "count");
    report.metric("core.analyze_s", lane_analyze_s, "s");
    report.metric("exec.cpu_util", cpu.front() / (wall.front() * threads), "ratio");
    report_absent(report, {"serve.ingest_us_p50", "serve.wait_ms_p50",
                           "serve.query_us_p50", "serve.query_us_p99", "serve.hot_hits",
                           "serve.hot_misses", "serve.hot_evictions",
                           "serve.result_cache_hits", "serve.duplicates",
                           "serve.rejected", "serve.queue_depth_max",
                           "loadgen.late_ms_max"});
    report.metric("trace.overhead_s", traced_wall - wall.front(), "s");
    report.metric("trace.overhead_frac", (traced_wall - wall.front()) / wall.front(),
                  "ratio");
    finish_trace(report, options, tracer);
    return report.finish(true);
}

}  // namespace perfbench
