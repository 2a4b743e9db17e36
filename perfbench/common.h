// Shared pieces of the benchmark harness: run options, clocks and rusage,
// the in-memory span tracer, the result report (metrics, checks, the final
// JSON line), output checks shared by every workload, and the per-layer
// decomposition pass the traced runs use.
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "exec/thread_pool.h"
#include "graph/snapshot.h"
#include "scen/runner.h"

namespace perfbench {

using namespace kadsim;

struct Options {
    std::string workload;
    std::uint64_t seed = 20170327;
    double seconds = 20.0;
    bool trace = false;
    bool tiny = false;              ///< self-test size: every path, seconds of work
    std::string expect_digest;      ///< recorded row digest for this seed ("" = none)
    std::string daemon_path;        ///< resilience_daemon binary (daemon_mixed)
    /// Traces and daemon scratch, relative to the checkout root (the
    /// daemon's socket path must stay under the AF_UNIX length limit).
    std::string out_dir = ".bench_out";
};

// --- clocks and resource usage ---------------------------------------------

[[nodiscard]] double now_s();          ///< steady clock, seconds
[[nodiscard]] double process_cpu_s();  ///< user + system CPU of this process
[[nodiscard]] double thread_cpu_s();   ///< CPU time of the calling thread
[[nodiscard]] double peak_rss_mib();   ///< ru_maxrss of this process
[[nodiscard]] int hardware_threads();

/// Value at sorted index ceil(q·n) − 1 (nearest rank); 0 for an empty set.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
    return quantile(std::move(values), 0.5);
}

/// Samples per block of block_quantile: the fewest for which a p99 is
/// admissible (ten samples beyond it).
inline constexpr std::size_t kQuantileBlock = 1000;

/// The q-quantile of each block of `block` consecutive samples (at least
/// one block; the remainder is spread over the blocks), median over blocks.
/// A burst of interference on the shared host lifts the tail of the blocks
/// it lands in, not the run's figure.
[[nodiscard]] double block_quantile(const std::vector<double>& values, double q,
                                    std::size_t block = kQuantileBlock);

// --- tracing ---------------------------------------------------------------

/// Spans recorded from the harness around calls into each layer. Kept in
/// memory (one mutex-guarded vector) and written out once at exit; a span's
/// parent is the innermost span open on the same thread when it started.
class Tracer {
public:
    struct Span {
        std::string name;  ///< "<layer>.<call>"
        double start = 0.0;
        double end = 0.0;
        int parent = -1;
    };

    /// RAII span; a no-op when the tracer is null or disabled.
    class Scope {
    public:
        Scope(Tracer* tracer, const char* name);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Tracer* tracer_;
        int index_ = -1;
        int saved_parent_ = -1;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    /// Self time per layer (the name's prefix before '.'): each span's
    /// duration minus the union of its children's intervals.
    [[nodiscard]] std::map<std::string, double> layer_self_times() const;

    /// Writes every span as one JSON document (Chrome trace-event style
    /// fields plus the parent index, workload and run id).
    void write(const std::string& path, const std::string& workload,
               const std::string& run_id) const;

private:
    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;  // guarded by mutex_
};

// --- report ----------------------------------------------------------------

/// Everything one run prints: named metrics with units, the operation and
/// check tally, and the row digest.
class Report {
public:
    void metric(const std::string& name, double value, const std::string& unit);
    /// Counts one operation; a false `ok` counts it failed and names why.
    void op(bool ok, const std::string& what);
    /// An output check: counted as an operation, and a failure marks the
    /// run incorrect.
    void check(bool ok, const std::string& what);

    [[nodiscard]] bool correct() const noexcept { return correct_; }

    /// Human-readable metric lines, then the one-line JSON result (last
    /// line of stdout). Returns the process exit code: 0, since the result
    /// carries the failed checks and operations.
    int finish(bool trace) const;

private:
    struct Metric {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool correct_ = true;
};

// --- output checks ---------------------------------------------------------

/// SHA-1 (hex) over the ResultCache::format_sample_row rows, one per line.
[[nodiscard]] std::string rows_digest(const std::vector<core::ResilienceSample>& rows);

/// Prints the digest and checks it against the recorded one (when given).
void check_digest(Report& report, const Options& options, const std::string& digest);

/// κ_min ≤ λ_min ≤ min(out_degree_min, in_degree_min), one check per sample.
void check_invariants(Report& report, const std::vector<core::ResilienceSample>& rows);

// --- workloads' shared inputs ----------------------------------------------

/// Analyzer options of the registry's scenarios (sample c = 0.02, at least
/// four sources, delta off).
[[nodiscard]] core::AnalyzerOptions registry_analyzer_options();

/// Seed of the j-th independent overlay of a run (j = 0 is the run seed).
/// Workloads average over several overlays so one seed's graph shape does
/// not set a run's figures.
[[nodiscard]] inline std::uint64_t overlay_seed(std::uint64_t seed, int j) {
    return seed ^ (static_cast<std::uint64_t>(j) * 0x9E3779B97F4A7C15ULL);
}

/// `count` seeded non-adjacent ordered pairs (u ≠ v) of `g`.
[[nodiscard]] std::vector<std::pair<int, int>> sample_pairs(const graph::Digraph& g,
                                                            std::uint64_t seed,
                                                            int count);

/// Times flow::min_vertex_cut (the daemon's PAIR computation) in process
/// over seeded pairs of each snapshot, `per_snapshot` calls each, on all but
/// one lane of `pool` at once. Returns each call's thread CPU time in
/// microseconds; checks each κ against [κ_min, degree cap].
[[nodiscard]] std::vector<double> time_pair_cuts(
    Report& report, const std::vector<graph::RoutingSnapshot>& snaps,
    const std::vector<core::ResilienceSample>& rows, std::uint64_t seed,
    int per_snapshot, exec::ThreadPool& pool, Tracer* tracer);

// --- simulator layers -----------------------------------------------------

/// The scen/sim/kad/net counters of one or more Runner::run calls.
struct SimLayer {
    double run_s = 0.0;      ///< wall time inside Runner::run
    double callback_s = 0.0; ///< harness time inside the snapshot callbacks
    std::uint64_t capture_us = 0;
    std::uint64_t events = 0;
    std::uint64_t rpcs_sent = 0;
    std::uint64_t rpcs_failed = 0;
    std::uint64_t lookups_completed = 0;
    std::uint64_t net_sent = 0;
    std::uint64_t net_dropped = 0;
    std::uint64_t arena_bytes = 0;
    std::uint64_t queue_bytes = 0;

    /// Adds a finished runner's totals and footprints.
    void add(const scen::Runner& runner, double run_seconds, double callback_seconds);
    /// Time stepping the simulation: run time minus callbacks and capture.
    [[nodiscard]] double step_s() const {
        return run_s - callback_s - static_cast<double>(capture_us) * 1e-6;
    }
};

void report_sim_layer(Report& report, const SimLayer& sim);

// --- per-layer decomposition -----------------------------------------------

/// One pass over `snaps` that calls each analysis part separately at full
/// pool width — CSR build, κ sweep, λ sweep, the structure metrics — then
/// analyze() itself, recording spans and the flow kernels' counters.
struct Decomposition {
    double csr_s = 0.0;
    double kappa_s = 0.0;
    double lambda_s = 0.0;
    double structure_s = 0.0;
    double analyze_s = 0.0;
    std::uint64_t n = 0;
    std::uint64_t m = 0;
    std::uint64_t kappa_pairs = 0;
    std::uint64_t kappa_capped = 0;
    std::uint64_t lambda_pairs = 0;
    std::uint64_t lambda_capped = 0;
    std::uint64_t arcs_touched = 0;
    std::uint64_t arena_bytes = 0;
    std::vector<core::ResilienceSample> rows;  ///< analyze() output
};

[[nodiscard]] Decomposition decompose(Report& report,
                                      const std::vector<graph::RoutingSnapshot>& snaps,
                                      exec::ThreadPool& pool, Tracer& tracer);

/// Reports the graph/flow/analysis/core/exec per-layer metrics of a
/// decomposition (core.analyze_s and exec.cpu_util are the caller's: they
/// belong to the workload's own analyze() calls).
void report_decomposition(Report& report, const Decomposition& d,
                          const std::vector<double>& cut_us);

/// Reports each layer's self time as self.<layer>_s and writes the spans to
/// <out_dir>/trace-<workload>-<seed>.json.
void finish_trace(Report& report, const Options& options, const Tracer& tracer);

/// Metrics every trace reports for layers a workload does not exercise, so
/// the per-layer set is the same on every workload (value 0, documented as
/// not applicable in perfbench/README.md).
void report_absent(Report& report, const std::vector<std::string>& names);

// --- workloads -------------------------------------------------------------

int run_fig06_batch(const Options& options);
int run_analysis_churn(const Options& options);
int run_daemon_mixed(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H
