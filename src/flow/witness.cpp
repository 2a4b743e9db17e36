#include "flow/witness.h"

#include "flow/flow_network.h"
#include "util/assert.h"

namespace kadsim::flow {

namespace {

/// Extracts one s→t path from the workspace's remaining flow into
/// `path_arcs`, consuming one unit per traversed arc. Only forward arcs
/// can carry positive flow (reverse arcs are built with capacity 0), and a
/// revisited on-path vertex marks a flow cycle whose arcs — already
/// consumed — are simply dropped from the path: cycle cancellation keeps
/// the flow feasible and strictly shrinks it, so the walk terminates.
/// on_path[v] = 1 + number of path arcs when v was reached; restored to
/// all zeros before returning.
void walk_one_path(FlowWorkspace& workspace, const FlowNetwork& net, int s,
                   int t, std::vector<int>& on_path,
                   std::vector<int>& path_arcs) {
    path_arcs.clear();
    on_path[static_cast<std::size_t>(s)] = 1;
    int x = s;
    while (true) {
        int taken = -1;
        for (const int a : net.arcs_of(x)) {
            if (workspace.flow_on(a) > 0) {
                taken = a;
                break;
            }
        }
        KADSIM_ASSERT_MSG(taken >= 0, "flow conservation: the walk must progress");
        workspace.add_flow(taken, -1);
        const int y = net.arc_to(taken);
        if (y == t) {
            path_arcs.push_back(taken);
            break;
        }
        if (on_path[static_cast<std::size_t>(y)] != 0) {
            while (static_cast<int>(path_arcs.size()) + 1 >
                   on_path[static_cast<std::size_t>(y)]) {
                const int a = path_arcs.back();
                path_arcs.pop_back();
                on_path[static_cast<std::size_t>(net.arc_to(a))] = 0;
            }
            x = y;
            continue;
        }
        path_arcs.push_back(taken);
        on_path[static_cast<std::size_t>(y)] =
            static_cast<int>(path_arcs.size()) + 1;
        x = y;
    }
    on_path[static_cast<std::size_t>(s)] = 0;
    for (const int a : path_arcs) {
        const int y = net.arc_to(a);
        if (y != t) on_path[static_cast<std::size_t>(y)] = 0;
    }
}

}  // namespace

bool residual_reach(const FlowWorkspace& workspace, int s, int epoch,
                    std::vector<int>& stamp, std::vector<int>& reach,
                    std::size_t budget) {
    const FlowNetwork& net = workspace.network();
    reach.assign(1, s);
    stamp[static_cast<std::size_t>(s)] = epoch;
    for (std::size_t head = 0; head < reach.size(); ++head) {
        for (const int a : net.arcs_of(reach[head])) {
            if (workspace.cap(a) <= 0) continue;
            const auto y = static_cast<std::size_t>(net.arc_to(a));
            if (stamp[y] == epoch) continue;
            stamp[y] = epoch;
            reach.push_back(static_cast<int>(y));
        }
        if (reach.size() > budget) return false;
    }
    return true;
}

void decompose_even_flow(FlowWorkspace& workspace, int n, int s, int t,
                         int value, std::vector<int>& on_path,
                         std::vector<int>& witness,
                         std::vector<int>& offsets) {
    const FlowNetwork& net = workspace.network();
    std::vector<int>& path_arcs = workspace.queue;  // solver scratch, free here
    for (int p = 0; p < value; ++p) {
        walk_one_path(workspace, net, s, t, on_path, path_arcs);
        // Interior original vertices are exactly the traversed internal
        // arcs (even_transform.h: internal arc of w is arc 2w; edge arcs
        // start at 2n).
        for (const int a : path_arcs) {
            if (a < 2 * n) witness.push_back(a / 2);
        }
        offsets.push_back(static_cast<int>(witness.size()));
    }
}

void decompose_unit_flow(FlowWorkspace& workspace, int s, int t, int value,
                         std::vector<int>& on_path, std::vector<int>& witness,
                         std::vector<int>& offsets) {
    const FlowNetwork& net = workspace.network();
    std::vector<int>& path_arcs = workspace.queue;
    for (int p = 0; p < value; ++p) {
        walk_one_path(workspace, net, s, t, on_path, path_arcs);
        for (const int a : path_arcs) {
            const int y = net.arc_to(a);
            if (y != t) witness.push_back(y);
        }
        offsets.push_back(static_cast<int>(witness.size()));
    }
}

}  // namespace kadsim::flow
