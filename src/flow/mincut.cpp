#include "flow/mincut.h"

#include <algorithm>

#include "flow/dinic.h"
#include "flow/even_transform.h"
#include "flow/witness.h"
#include "util/assert.h"

namespace kadsim::flow {

FlowNetwork mincut_witness_network(const graph::Digraph& g) {
    return even_transform(g, std::max(1, g.vertex_count()));
}

std::vector<int> min_vertex_cut(const graph::Digraph& g, int v, int w) {
    const FlowNetwork net = mincut_witness_network(g);
    FlowWorkspace workspace(net);
    return min_vertex_cut(g, net, workspace, v, w);
}

std::vector<int> min_vertex_cut(const graph::Digraph& g,
                                const FlowNetwork& witness_net,
                                FlowWorkspace& workspace, int v, int w) {
    KADSIM_ASSERT(v != w);
    KADSIM_ASSERT(!g.has_edge(v, w));
    KADSIM_ASSERT(witness_net.vertex_count() == 2 * g.vertex_count());
    KADSIM_ASSERT(&workspace.network() == &witness_net);
    // Guard against being handed a unit-capacity even_transform(g): cut
    // extraction needs non-saturating edge arcs (mincut_witness_network),
    // or residual reachability silently names the wrong vertex set.
    KADSIM_ASSERT_MSG(
        g.edge_count() == 0 ||
            witness_net.original_cap(edge_arc(g.vertex_count(), 0)) > 1,
        "min_vertex_cut needs mincut_witness_network(g), not even_transform(g)");
    workspace.reset();
    Dinic dinic;
    (void)dinic.max_flow(workspace, out_vertex(v), in_vertex(w));

    // Residual reachability from v''. A vertex x is in the cut iff x' is
    // reachable but x'' is not: its internal (capacity-1) arc is saturated
    // and crosses the minimum cut.
    std::vector<int> reached(static_cast<std::size_t>(witness_net.vertex_count()), 0);
    std::vector<int> order;
    residual_reach(workspace, out_vertex(v), 1, reached, order);

    std::vector<int> cut;
    for (int x = 0; x < g.vertex_count(); ++x) {
        if (x == v || x == w) continue;
        if (reached[static_cast<std::size_t>(in_vertex(x))] != 0 &&
            reached[static_cast<std::size_t>(out_vertex(x))] == 0) {
            cut.push_back(x);
        }
    }
    return cut;
}

}  // namespace kadsim::flow
