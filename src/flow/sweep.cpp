#include "flow/sweep.h"

#include <algorithm>
#include <atomic>
#include <future>
#include <limits>
#include <optional>
#include <vector>

#include "exec/thread_pool.h"
#include "flow/dinic.h"
#include "flow/even_transform.h"
#include "flow/pair_reuse.h"
#include "flow/sampling.h"
#include "flow/witness.h"
#include "graph/certificate.h"
#include "util/assert.h"

namespace kadsim::flow {

namespace {

/// Reach budget of the sub-bound min-cut walk: a pair whose residual source
/// side exceeds this many network nodes is not stored — its revalidation
/// BFS would explore the same region on every later snapshot, eating the
/// reuse win. Bottlenecks hug the smallest-out-degree sources in practice,
/// so the typical source side is a handful of nodes.
constexpr std::size_t kMaxCutReach = 256;

/// One metric's aggregate over the pairs a job evaluated. Every field is an
/// integer min or sum, so merging per-job tallies is bit-identical for any
/// job count and work distribution.
struct Tally {
    int min = std::numeric_limits<int>::max();
    std::uint64_t sum = 0;
    std::uint64_t pairs = 0;
    std::uint64_t skipped = 0;  ///< bound 0: settled without a flow
    std::uint64_t capped = 0;   ///< settled at the degree bound
    std::uint64_t reused = 0;   ///< settled from the reuse hook
    std::uint64_t arcs_touched = 0;
    std::uint64_t resets_avoided = 0;
    std::uint64_t workspace_bytes = 0;

    void add(int value) {
        min = std::min(min, value);
        sum += static_cast<std::uint64_t>(value);
        ++pairs;
    }

    void merge(const Tally& other) {
        min = std::min(min, other.min);
        sum += other.sum;
        pairs += other.pairs;
        skipped += other.skipped;
        capped += other.capped;
        reused += other.reused;
        arcs_touched += other.arcs_touched;
        resets_avoided += other.resets_avoided;
        workspace_bytes += other.workspace_bytes;
    }
};

struct PartialResult {
    Tally kappa;
    Tally lambda;
};

/// Read-only inputs of one sweep, shared by reference across its jobs.
///
/// Certificate mode: `gsel` is the original graph — it drives source
/// degrees, sink bounds and κ's adjacency exclusion, which must match the
/// plain sweep bit-for-bit — while `gflow` (== gsel when the certificate is
/// off) is the graph the networks, the reverse rows and the seeding walk:
/// κ and λ computed on it equal their values on gsel for every pair capped
/// below the certificate order (graph/certificate.h).
struct Sweep {
    const graph::Digraph& gsel;
    const graph::Digraph& gflow;
    const graph::Digraph& rev;  ///< gflow reversed: each sink's in-row
    const std::vector<int>& in_degrees;
    const std::vector<int>& sources;
    const FlowNetwork* even;  ///< κ's Even network; nullptr = κ off
    const FlowNetwork* unit;  ///< λ's unit-capacity network; nullptr = λ off
    PairReuseHook* kappa_reuse;
    PairReuseHook* lambda_reuse;
};

/// One metric's state within a job: its workspace on the metric's network
/// (residual capacities, undo log, solver scratch — built by the first pair
/// that needs a flow) and its tally.
struct MetricLane {
    const FlowNetwork* net = nullptr;
    PairReuseHook* reuse = nullptr;
    bool vertex = false;  ///< κ (vertex cuts) or λ (edge cuts)
    std::optional<FlowWorkspace> ws;
    Tally tally;

    FlowWorkspace& workspace() {
        if (!ws) ws.emplace(*net);
        return *ws;
    }
};

/// Evaluates every pair of the sources it is handed, κ and λ together.
///
/// Degree-bound fast path: κ(u,v) ≤ λ(u,v) ≤ min(out_degree(u),
/// in_degree(v)) — every u→v path consumes a distinct out-edge of u and
/// in-edge of v. A zero bound settles the pair without touching a network;
/// otherwise the bound caps the Dinic run, which stops augmenting (skipping
/// the final certifying BFS) the moment it is reached. And once κ of a
/// non-adjacent pair sits at the bound, λ is pinned there too (Whitney), so
/// λ needs no work at all. Every recorded value is exact.
///
/// Path seeding: the direct edge u→v (λ only — κ pairs are non-adjacent)
/// plus one two-hop path u→w→v per common neighbour w ∈ out(u) ∩ in(v) are
/// pairwise disjoint in both senses. If they alone meet the bound the pair
/// settles with no flow run; otherwise they are saturated directly into the
/// workspace — for κ the exact blocking flow of Dinic's first phase, after
/// which vertex-disjoint length-5 paths u→w→x→v are packed greedily. Any
/// valid integral flow is a legal warm start: Dinic tops up from it.
///
/// Delta reuse (pair_reuse.h): with a hook, every pair is first offered to
/// it, and settled pairs are stored back with a two-sided witness — value
/// disjoint paths (the short paths of a no-flow settle, or a decomposition
/// of the flow, flow/witness.h) plus a size-value separating set. At the
/// out-degree bound the cut is u's out-row; below the bound the workspace
/// holds a maximum flow and the residual-reachable side yields a minimum
/// cut. Lookups read only sweep-frozen state and stores are buffered by
/// the hook, so results stay bit-identical for any worker count.
class Job {
public:
    explicit Job(const Sweep& sweep)
        : s_(sweep),
          n_(sweep.gsel.vertex_count()),
          kappa_{sweep.even, sweep.kappa_reuse, true, std::nullopt, {}},
          lambda_{sweep.unit, sweep.lambda_reuse, false, std::nullopt, {}},
          adjacent_(static_cast<std::size_t>(n_), 0),
          in_v_stamp_(static_cast<std::size_t>(n_), 0) {
        const auto nodes = static_cast<std::size_t>(2) * static_cast<std::size_t>(n_);
        if (s_.even != nullptr) used_stamp_.assign(static_cast<std::size_t>(n_), 0);
        if (s_.kappa_reuse != nullptr || s_.lambda_reuse != nullptr) {
            // Sized for the Even network (2n nodes); the unit network's n
            // nodes fit.
            on_path_.assign(nodes, 0);
            reach_stamp_.assign(nodes, 0);
            cut_stamp_.assign(static_cast<std::size_t>(n_), 0);
        }
    }

    void evaluate(int u) {
        const auto out_sel = s_.gsel.out(u);
        const int out_degree = static_cast<int>(out_sel.size());
        for (const int w : out_sel) adjacent_[static_cast<std::size_t>(w)] = 1;
        stamped_ = -1;
        for (int v = 0; v < n_; ++v) {
            if (v == u) continue;
            const int bound =
                std::min(out_degree, s_.in_degrees[static_cast<std::size_t>(v)]);
            int kappa = -1;
            if (s_.even != nullptr && adjacent_[static_cast<std::size_t>(v)] == 0) {
                kappa = settle(kappa_, u, v, bound);
            }
            if (s_.unit == nullptr) continue;
            if (bound > 0 && kappa == bound) {
                // Whitney: κ(u,v) ≤ λ(u,v) ≤ bound.
                ++lambda_.tally.capped;
                lambda_.tally.add(bound);
            } else {
                settle(lambda_, u, v, bound);
            }
        }
        for (const int w : out_sel) adjacent_[static_cast<std::size_t>(w)] = 0;
    }

    /// Flushes the last runs into the workspace counters, so the totals do
    /// not depend on how pairs were distributed over jobs.
    PartialResult finish() {
        for (MetricLane* lane : {&kappa_, &lambda_}) {
            if (!lane->ws) continue;
            lane->ws->reset();
            lane->tally.arcs_touched = lane->ws->stats().arcs_touched;
            lane->tally.resets_avoided = lane->ws->stats().full_sweeps_avoided;
            lane->tally.workspace_bytes = lane->ws->memory_bytes();
        }
        return {kappa_.tally, lambda_.tally};
    }

private:
    /// One pair of one metric: the bound-0 skip, the reuse lookup, else the
    /// seeded, degree-capped flow. Records the value in the lane's tally.
    int settle(MetricLane& lane, int u, int v, int bound) {
        int value = 0;
        if (bound == 0) {
            ++lane.tally.skipped;
        } else if (lane.reuse != nullptr && (value = lane.reuse->lookup(u, v)) >= 0) {
            ++lane.tally.reused;
        } else {
            value = solve(lane, u, v, bound);
        }
        lane.tally.add(value);
        return value;
    }

    int solve(MetricLane& lane, int u, int v, int bound) {
        if (stamped_ != v) {
            ++epoch_;
            for (const int x : s_.rev.out(v)) in_v_stamp_[static_cast<std::size_t>(x)] = epoch_;
            stamped_ = v;
        }
        const auto out_u = s_.gflow.out(u);
        // Position of the direct edge u→v in the flow graph's row, or -1.
        // The flow graph is a subgraph of gsel, so only gsel-adjacent sinks
        // can have one.
        std::int64_t direct = -1;
        if (adjacent_[static_cast<std::size_t>(v)] != 0) {
            const auto it = std::lower_bound(out_u.begin(), out_u.end(), v);
            if (it != out_u.end() && *it == v) direct = it - out_u.begin();
        }
        int short_paths = direct >= 0 ? 1 : 0;
        for (const int w : out_u) {
            if (w != v && in_v_stamp_[static_cast<std::size_t>(w)] == epoch_) ++short_paths;
        }
        const bool store_at_bound =
            lane.reuse != nullptr && bound == s_.gsel.out_degree(u);
        if (short_paths >= bound) {
            ++lane.tally.capped;
            // Storable only when the bound is u's out-degree: then u's
            // out-row is a size-bound separating set. An in-degree-pinned
            // settle has no cheap cut here, and the smallest-out-degree
            // source selection makes that the rare case.
            if (store_at_bound) {
                witness_.clear();
                offsets_.assign(1, 0);
                if (direct >= 0) offsets_.push_back(0);  // zero-length path
                for (const int w : out_u) {
                    if (static_cast<int>(offsets_.size()) > bound) break;
                    if (w == v || in_v_stamp_[static_cast<std::size_t>(w)] != epoch_) {
                        continue;
                    }
                    witness_.push_back(w);
                    offsets_.push_back(static_cast<int>(witness_.size()));
                }
                store_out_row(lane, u, v, bound);
            }
            return bound;
        }

        FlowWorkspace& ws = lane.workspace();
        ws.reset();  // touched-arc undo of the previous run
        const int seeded = lane.vertex ? seed_even(ws, u, v, bound)
                                       : seed_unit(ws, u, v, direct);
        const int s = lane.vertex ? out_vertex(u) : u;
        const int t = lane.vertex ? in_vertex(v) : v;
        const int value =
            seeded >= bound ? bound : seeded + dinic_.max_flow(ws, s, t, bound - seeded);
        if (value == bound) {
            ++lane.tally.capped;
            if (store_at_bound) {
                decompose(ws, lane.vertex, s, t, value);
                store_out_row(lane, u, v, value);
            }
        } else if (lane.reuse != nullptr && min_cut(ws, lane.vertex, s, v, value)) {
            // Walked before decomposing: the decomposition consumes the flow.
            decompose(ws, lane.vertex, s, t, value);
            lane.reuse->store(u, v, value, witness_, offsets_, cut_);
        }
        return value;
    }

    /// κ seeding on the Even network: every length-3 path u''→w'→w''→v'
    /// (one unit through each common neighbour's internal arc), then greedy
    /// vertex-disjoint length-5 paths u''→w'→w''→x'→x''→v' with w ∈ out(u),
    /// x ∈ in(v) and an edge w→x. u and v are never interior (u ∉ in(v) by
    /// non-adjacency, and no self-loops put v in in(v)).
    int seed_even(FlowWorkspace& ws, int u, int v, int bound) {
        const auto out_u = s_.gflow.out(u);
        const std::int64_t offset_u = s_.gflow.edge_offset(u);
        int seeded = 0;
        for (std::size_t i = 0; i < out_u.size(); ++i) {
            const int w = out_u[i];
            if (in_v_stamp_[static_cast<std::size_t>(w)] != epoch_) continue;
            used_stamp_[static_cast<std::size_t>(w)] = epoch_;
            ws.add_flow(edge_arc(n_, offset_u + static_cast<std::int64_t>(i)), 1);
            ws.add_flow(internal_arc(w), 1);
            ws.add_flow(edge_arc(n_, s_.gflow.edge_offset(w) + position(w, v)), 1);
            ++seeded;
        }
        for (std::size_t i = 0; i < out_u.size() && seeded < bound; ++i) {
            const int w = out_u[i];
            if (used_stamp_[static_cast<std::size_t>(w)] == epoch_) continue;
            const auto out_w = s_.gflow.out(w);
            for (std::size_t j = 0; j < out_w.size(); ++j) {
                const int x = out_w[j];
                const auto xs = static_cast<std::size_t>(x);
                if (in_v_stamp_[xs] != epoch_ || used_stamp_[xs] == epoch_) continue;
                used_stamp_[static_cast<std::size_t>(w)] = epoch_;
                used_stamp_[xs] = epoch_;
                ws.add_flow(edge_arc(n_, offset_u + static_cast<std::int64_t>(i)), 1);
                ws.add_flow(internal_arc(w), 1);
                ws.add_flow(
                    edge_arc(n_, s_.gflow.edge_offset(w) + static_cast<std::int64_t>(j)),
                    1);
                ws.add_flow(internal_arc(x), 1);
                ws.add_flow(edge_arc(n_, s_.gflow.edge_offset(x) + position(x, v)), 1);
                ++seeded;
                break;
            }
        }
        return seeded;
    }

    /// λ seeding on the unit network (arc of edge j is 2j): the direct edge
    /// and every two-hop path u→w→v.
    int seed_unit(FlowWorkspace& ws, int u, int v, std::int64_t direct) {
        const auto out_u = s_.gflow.out(u);
        const std::int64_t offset_u = s_.gflow.edge_offset(u);
        int seeded = 0;
        if (direct >= 0) {
            ws.add_flow(static_cast<int>(2 * (offset_u + direct)), 1);
            ++seeded;
        }
        for (std::size_t i = 0; i < out_u.size(); ++i) {
            const int w = out_u[i];
            if (w == v || in_v_stamp_[static_cast<std::size_t>(w)] != epoch_) continue;
            ws.add_flow(static_cast<int>(2 * (offset_u + static_cast<std::int64_t>(i))), 1);
            ws.add_flow(static_cast<int>(2 * (s_.gflow.edge_offset(w) + position(w, v))), 1);
            ++seeded;
        }
        return seeded;
    }

    /// Index of `v` in the sorted flow-graph row of `w` (present by caller
    /// contract).
    std::int64_t position(int w, int v) const {
        const auto row = s_.gflow.out(w);
        return std::lower_bound(row.begin(), row.end(), v) - row.begin();
    }

    /// The settled flow as `value` disjoint paths in witness_/offsets_.
    void decompose(FlowWorkspace& ws, bool vertex, int s, int t, int value) {
        witness_.clear();
        offsets_.assign(1, 0);
        if (vertex) {
            decompose_even_flow(ws, n_, s, t, value, on_path_, witness_, offsets_);
        } else {
            decompose_unit_flow(ws, s, t, value, on_path_, witness_, offsets_);
        }
    }

    /// Stores a pair settled at u's out-degree with u's out-row as the cut:
    /// its vertices (κ) or its edges as (tail, head) pairs (λ).
    void store_out_row(MetricLane& lane, int u, int v, int value) {
        const auto row = s_.gsel.out(u);
        if (lane.vertex) {
            lane.reuse->store(u, v, value, witness_, offsets_, row);
            return;
        }
        cut_.clear();
        for (const int w : row) {
            cut_.push_back(u);
            cut_.push_back(w);
        }
        lane.reuse->store(u, v, value, witness_, offsets_, cut_);
    }

    /// The minimum cut behind a below-bound maximum flow, into cut_: the
    /// saturated forward arcs leaving the residual-reachable side of source
    /// node `s`. For λ each crossing arc is a cut edge. For κ an internal
    /// arc 2w names w, and an edge arc x″→y′ names y — on every path through
    /// that edge — or its tail x when y is the sink v; the mapping is
    /// injective, so the cut has exactly κ members. Returns false past the
    /// reach budget or if the cut does not have the flow's size.
    bool min_cut(const FlowWorkspace& ws, bool vertex, int s, int v, int value) {
        const FlowNetwork& net = ws.network();
        ++reach_epoch_;
        if (!residual_reach(ws, s, reach_epoch_, reach_stamp_, reach_list_, kMaxCutReach)) {
            return false;
        }
        cut_.clear();
        for (const int z : reach_list_) {
            for (const int a : net.arcs_of(z)) {
                if (net.original_cap(a) <= 0) continue;
                const int y = net.arc_to(a);
                if (reach_stamp_[static_cast<std::size_t>(y)] == reach_epoch_) continue;
                if (!vertex) {
                    cut_.push_back(z);
                    cut_.push_back(y);
                    continue;
                }
                const int member = a < 2 * n_ ? a / 2 : y / 2 == v ? z / 2 : y / 2;
                const auto ms = static_cast<std::size_t>(member);
                if (cut_stamp_[ms] != reach_epoch_) {
                    cut_stamp_[ms] = reach_epoch_;
                    cut_.push_back(member);
                }
            }
        }
        return static_cast<int>(cut_.size()) == (vertex ? value : 2 * value);
    }

    const Sweep& s_;
    const int n_;
    Dinic dinic_;
    MetricLane kappa_;
    MetricLane lambda_;
    /// Source's out-row in gsel, filled per source (no per-sink search).
    std::vector<char> adjacent_;
    /// Epoch-stamped per-pair sets (no O(n) clear between pairs): the
    /// sink's in-row, and κ's "vertex already interior to a seeded path".
    std::vector<int> in_v_stamp_;
    std::vector<int> used_stamp_;
    int epoch_ = 0;
    int stamped_ = -1;  ///< sink whose in-row carries the current epoch
    // Witness scratch, allocated only when a reuse hook is attached.
    std::vector<int> witness_;
    std::vector<int> offsets_;
    std::vector<int> on_path_;
    std::vector<int> reach_stamp_;
    std::vector<int> reach_list_;
    std::vector<int> cut_stamp_;
    std::vector<int> cut_;
    int reach_epoch_ = 0;
};

/// Runs jobs until the shared cursor runs out of sources. A job claims a
/// source before paying for its scratch: late jobs that find the cursor
/// exhausted return without allocating.
PartialResult run_job(const Sweep& sweep, std::atomic<std::size_t>& cursor) {
    std::size_t index = cursor.fetch_add(1, std::memory_order_relaxed);
    if (index >= sweep.sources.size()) return {};
    Job job(sweep);
    for (; index < sweep.sources.size();
         index = cursor.fetch_add(1, std::memory_order_relaxed)) {
        job.evaluate(sweep.sources[index]);
    }
    return job.finish();
}

/// Evaluates every source on the pool (the caller participates; jobs are
/// non-blocking, so this is safe even on a busy shared pool).
PartialResult evaluate_sources(const Sweep& sweep, exec::ThreadPool* pool) {
    std::atomic<std::size_t> cursor{0};
    // Re-entrant calls (a pool task computing connectivity on its own pool)
    // run inline: the calling thread is already one of the pool's lanes.
    if (pool == nullptr || exec::ThreadPool::in_worker()) return run_job(sweep, cursor);

    // The caller is a lane too, so more than sources-1 helper jobs can never
    // all claim work.
    const int jobs = std::min(pool->size(),
                              std::max(0, static_cast<int>(sweep.sources.size()) - 1));
    std::vector<std::future<PartialResult>> futures;
    futures.reserve(static_cast<std::size_t>(jobs));
    for (int i = 0; i < jobs; ++i) {
        futures.push_back(pool->submit([&sweep, &cursor] { return run_job(sweep, cursor); }));
    }
    // Every submitted job must be joined before this frame (holding the
    // cursor the jobs reference) can unwind — so collect the first error but
    // keep waiting.
    std::exception_ptr error;
    PartialResult combined;
    try {
        combined = run_job(sweep, cursor);
    } catch (...) {
        error = std::current_exception();
    }
    for (auto& future : futures) {
        try {
            const PartialResult p = pool->wait_get(future);
            combined.kappa.merge(p.kappa);
            combined.lambda.merge(p.lambda);
        } catch (...) {
            if (!error) error = std::current_exception();
        }
    }
    if (error) std::rethrow_exception(error);
    return combined;
}

KappaLambdaResult run_sweep(const graph::Digraph& g, const ConnectivityOptions& options,
                            bool kappa, bool lambda, PairReuseHook* lambda_reuse) {
    KappaLambdaResult result;
    ConnectivityResult& k = result.kappa;
    EdgeConnectivityResult& l = result.lambda;
    k.n = l.n = g.vertex_count();
    k.m = l.m = g.edge_count();
    if (k.n <= 1) {
        k.complete = l.complete = true;
        return result;
    }
    if (g.is_complete()) {
        // §4.4: every pair adjacent ⇒ κ = n − 1. λ(u,v) = n − 1 = the degree
        // bound too: the direct edge plus a two-hop path through every other
        // vertex.
        k.complete = l.complete = true;
        k.kappa_min = l.lambda_min = k.n - 1;
        k.kappa_avg = l.lambda_avg = static_cast<double>(k.n - 1);
        return result;
    }

    // In-degrees bound each sink's values from above — always from the
    // original graph, never the certificate.
    const std::vector<int> in_degrees = g.in_degrees();
    const std::vector<int> sources = pick_smallest_out_degree_sources(
        g, options.sample_fraction, options.min_sources);
    graph::SparseCertificate cert;
    const graph::Digraph* flow_g = &g;
    if (options.use_certificate) {
        // The order must exceed every evaluated pair's degree cap.
        int order = 1;
        for (const int u : sources) order = std::max(order, g.out_degree(u) + 1);
        cert = graph::build_certificate(g, order);
        flow_g = &cert.graph;
        k.cert_edges_kept = l.cert_edges_kept =
            static_cast<std::uint64_t>(cert.core_edges_kept);
        k.cert_build_us = l.cert_build_us = cert.build_us;
    }
    std::optional<FlowNetwork> even;
    std::optional<FlowNetwork> unit;
    if (kappa) even.emplace(even_transform(*flow_g));
    if (lambda) unit.emplace(unit_capacity_network(*flow_g));
    const graph::Digraph rev = flow_g->reversed();
    const Sweep inputs{g, *flow_g, rev, in_degrees, sources, even ? &*even : nullptr,
                       unit ? &*unit : nullptr, options.reuse, lambda_reuse};
    const PartialResult p = evaluate_sources(inputs, options.pool);

    // Neither pair set is empty. λ sees all n−1 sinks per source. κ's first
    // source has the smallest out-degree, which is below n−1 in a
    // non-complete graph, so it has a non-adjacent sink.
    if (lambda) {
        KADSIM_ASSERT(p.lambda.pairs > 0);
        l.lambda_min = p.lambda.min;
        l.lambda_sum = p.lambda.sum;
        l.lambda_avg = static_cast<double>(p.lambda.sum) /
                       static_cast<double>(p.lambda.pairs);
        l.pairs_evaluated = p.lambda.pairs;
        l.pairs_skipped = p.lambda.skipped;
        l.flows_capped = p.lambda.capped;
        l.pairs_reused = p.lambda.reused;
        l.sources_used = static_cast<int>(sources.size());
    }
    if (kappa) {
        KADSIM_ASSERT(p.kappa.pairs > 0);
        k.kappa_min = p.kappa.min;
        k.kappa_sum = p.kappa.sum;
        k.kappa_avg =
            static_cast<double>(p.kappa.sum) / static_cast<double>(p.kappa.pairs);
        k.pairs_evaluated = p.kappa.pairs;
        k.pairs_skipped = p.kappa.skipped;
        k.flows_capped = p.kappa.capped;
        k.pairs_reused = p.kappa.reused;
        k.arcs_touched = p.kappa.arcs_touched;
        k.full_resets_avoided = p.kappa.resets_avoided;
        k.arena_bytes = (even ? even->memory_bytes() : 0) +
                        (unit ? unit->memory_bytes() : 0) + p.kappa.workspace_bytes +
                        p.lambda.workspace_bytes;
        k.sources_used = static_cast<int>(sources.size());
    }
    return result;
}

}  // namespace

ConnectivityResult vertex_connectivity(const graph::Digraph& g,
                                       const ConnectivityOptions& options) {
    return run_sweep(g, options, true, false, nullptr).kappa;
}

EdgeConnectivityResult edge_connectivity(const graph::Digraph& g,
                                         const EdgeConnectivityOptions& options) {
    ConnectivityOptions o;
    o.sample_fraction = options.sample_fraction;
    o.min_sources = options.min_sources;
    o.pool = options.pool;
    o.use_certificate = options.use_certificate;
    return run_sweep(g, o, false, true, options.reuse).lambda;
}

KappaLambdaResult kappa_lambda_connectivity(const graph::Digraph& g,
                                            const ConnectivityOptions& options,
                                            PairReuseHook* lambda_reuse) {
    return run_sweep(g, options, true, true, lambda_reuse);
}

}  // namespace kadsim::flow
