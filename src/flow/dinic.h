// Dinic's max-flow algorithm over a shared-structure workspace.
//
// The default solver for connectivity computations: on the unit-capacity
// networks produced by Even's transformation it runs in O(E·√V) and, because
// κ values are small (≈ k), typically terminates after a handful of phases.
// The max-flow *value* is unique, so results are interchangeable with the
// paper's HIPR (push-relabel) — Edmonds–Karp is the cross-checking oracle.
//
// The solver itself is stateless: all mutable state (residual capacities,
// level/iter/queue scratch) lives in the caller's flow::FlowWorkspace, and
// every capacity change is logged there so FlowWorkspace::reset() can undo
// just the touched arcs.
#ifndef KADSIM_FLOW_DINIC_H
#define KADSIM_FLOW_DINIC_H

#include <limits>

#include "flow/flow_workspace.h"

namespace kadsim::flow {

class Dinic {
public:
    static constexpr int kUnbounded = std::numeric_limits<int>::max();

    /// Computes max flow s→t on `ws` (mutating its residual capacities).
    /// Stops early once `flow_limit` is reached — used by min-over-pairs
    /// searches that only need to know "≥ limit".
    int max_flow(FlowWorkspace& ws, int s, int t, int flow_limit = kUnbounded);

private:
    bool bfs(FlowWorkspace& ws, int s, int t);
    int dfs(FlowWorkspace& ws, int v, int t, int limit);
};

}  // namespace kadsim::flow

#endif  // KADSIM_FLOW_DINIC_H
