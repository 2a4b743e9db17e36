// Witness extraction from a settled unit flow (kernel internal; used by the
// κ/λ sweep to feed flow::PairReuseHook::store, and by flow/mincut.h).
//
// The cut half: residual reachability from the source of a maximum flow —
// the saturated arcs leaving the reached set form a minimum cut.
//
// The path half: both decompose routines split the integral flow held in a
// workspace into `value` paths by walking positive-flow arcs from the
// source, consuming one unit per traversed arc via add_flow(arc, -1). Every
// traversed arc already carries flow — i.e. is already in the workspace's
// undo log — so the walk adds no log entries and leaves every kernel
// counter and the subsequent reset() exactly as they would have been: a
// sweep's arcs_touched totals are identical with witness extraction on or
// off. Flow cycles (legal in any integral max flow) are cancelled in
// place when the walk revisits an on-path vertex.
#ifndef KADSIM_FLOW_WITNESS_H
#define KADSIM_FLOW_WITNESS_H

#include <cstddef>
#include <limits>
#include <vector>

#include "flow/flow_workspace.h"

namespace kadsim::flow {

/// Every node reachable from `s` over arcs with residual capacity, in BFS
/// order (starting with s), into `reach`; each is stamped with `epoch` in
/// `stamp` (caller-owned, sized to the network's node count, no entry
/// equal to `epoch` on entry). Returns false, leaving a partial walk, once
/// more than `budget` nodes are reached.
bool residual_reach(const FlowWorkspace& workspace, int s, int epoch,
                    std::vector<int>& stamp, std::vector<int>& reach,
                    std::size_t budget = std::numeric_limits<std::size_t>::max());

/// Decomposes the κ = `value` flow of an Even-transformed network
/// (even_transform.h; n original vertices, s = out_vertex(u),
/// t = in_vertex(v)) into `value` vertex-disjoint paths, appending each
/// path's interior *original* vertices to `witness` and the pair_reuse.h
/// offset layout to `offsets` (offsets must start out as {0}). `on_path`
/// is caller-owned scratch of size ≥ 2n holding all zeros on entry and
/// exit.
void decompose_even_flow(FlowWorkspace& workspace, int n, int s, int t,
                         int value, std::vector<int>& on_path,
                         std::vector<int>& witness, std::vector<int>& offsets);

/// Decomposes the λ = `value` flow of a unit-capacity network
/// (edge_connectivity.h) into `value` edge-disjoint s→t paths, appending
/// each path's intermediate vertices (a direct edge contributes a
/// zero-length path). `on_path` is caller-owned scratch of size ≥ n, all
/// zeros on entry and exit.
void decompose_unit_flow(FlowWorkspace& workspace, int s, int t, int value,
                         std::vector<int>& on_path, std::vector<int>& witness,
                         std::vector<int>& offsets);

}  // namespace kadsim::flow

#endif  // KADSIM_FLOW_WITNESS_H
