// Single-pair κ/λ solvers and their brute-force oracles (declared in
// vertex_connectivity.h and edge_connectivity.h); the sampled sweeps over
// many pairs live in sweep.cpp.
#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "flow/dinic.h"
#include "flow/edge_connectivity.h"
#include "flow/even_transform.h"
#include "flow/vertex_connectivity.h"
#include "util/assert.h"

namespace kadsim::flow {

FlowNetwork unit_capacity_network(const graph::Digraph& g) {
    KADSIM_ASSERT(g.edge_count() <= std::numeric_limits<int>::max() / 2);
    FlowNetwork net(g.vertex_count());
    net.reserve(static_cast<std::size_t>(g.edge_count()));
    for (int u = 0; u < g.vertex_count(); ++u) {
        for (const int v : g.out(u)) net.add_arc(u, v, 1);
    }
    net.finalize();
    return net;
}

int pair_vertex_connectivity(const graph::Digraph& g, int v, int w) {
    const FlowNetwork net = even_transform(g);
    FlowWorkspace workspace(net);
    return pair_vertex_connectivity(g, net, workspace, v, w);
}

int pair_vertex_connectivity(const graph::Digraph& g, const FlowNetwork& even_net,
                             FlowWorkspace& workspace, int v, int w) {
    KADSIM_ASSERT(v != w);
    KADSIM_ASSERT_MSG(!g.has_edge(v, w),
                      "vertex connectivity is defined for non-adjacent pairs");
    KADSIM_ASSERT(even_net.vertex_count() == 2 * g.vertex_count());
    KADSIM_ASSERT(&workspace.network() == &even_net);
    workspace.reset();
    Dinic dinic;
    return dinic.max_flow(workspace, out_vertex(v), in_vertex(w));
}

int pair_edge_connectivity(const graph::Digraph& g, int u, int v) {
    const FlowNetwork net = unit_capacity_network(g);
    FlowWorkspace workspace(net);
    return pair_edge_connectivity(g, net, workspace, u, v);
}

int pair_edge_connectivity(const graph::Digraph& g, const FlowNetwork& net,
                           FlowWorkspace& workspace, int u, int v) {
    KADSIM_ASSERT(u != v);
    KADSIM_ASSERT(net.vertex_count() == g.vertex_count());
    KADSIM_ASSERT(&workspace.network() == &net);
    workspace.reset();
    Dinic dinic;
    return dinic.max_flow(workspace, u, v);
}

namespace {

/// u→v reachability in `g` with the vertices in `removed_vertex` and the
/// edges (by global CSR index) in `removed_edge` deleted; an empty mask
/// deletes nothing.
bool path_exists(const graph::Digraph& g, int u, int v,
                 const std::vector<bool>& removed_vertex,
                 const std::vector<bool>& removed_edge) {
    std::vector<int> queue{u};
    std::vector<bool> seen(static_cast<std::size_t>(g.vertex_count()), false);
    seen[static_cast<std::size_t>(u)] = true;
    for (std::size_t head = 0; head < queue.size(); ++head) {
        const int x = queue[head];
        const auto out = g.out(x);
        const auto offset = static_cast<std::size_t>(g.edge_offset(x));
        for (std::size_t i = 0; i < out.size(); ++i) {
            if (!removed_edge.empty() && removed_edge[offset + i]) continue;
            const int y = out[i];
            if (y == v) return true;
            const auto ys = static_cast<std::size_t>(y);
            if (seen[ys] || (!removed_vertex.empty() && removed_vertex[ys])) continue;
            seen[ys] = true;
            queue.push_back(y);
        }
    }
    return false;
}

/// Size of the smallest subset of `candidates` (ascending size, then
/// combination order) whose removal disconnects u from v; `cap` when none
/// up to that size does. `edges` says whether candidates are global edge
/// indices or vertex ids. Exponential: test oracle for tiny graphs.
int smallest_separator(const graph::Digraph& g, int u, int v,
                       const std::vector<int>& candidates, int cap, bool edges) {
    const int count = static_cast<int>(candidates.size());
    const std::size_t mask_size =
        edges ? static_cast<std::size_t>(g.edge_count())
              : static_cast<std::size_t>(g.vertex_count());
    for (int size = 0; size <= cap; ++size) {
        std::vector<int> pick(static_cast<std::size_t>(size));
        std::iota(pick.begin(), pick.end(), 0);
        while (true) {
            std::vector<bool> removed(mask_size, false);
            for (const int i : pick) {
                removed[static_cast<std::size_t>(candidates[static_cast<std::size_t>(i)])] =
                    true;
            }
            const std::vector<bool> none;
            if (!path_exists(g, u, v, edges ? none : removed, edges ? removed : none)) {
                return size;
            }

            // Next combination.
            int pos = size - 1;
            while (pos >= 0 && pick[static_cast<std::size_t>(pos)] == count - size + pos) {
                --pos;
            }
            if (pos < 0) break;
            ++pick[static_cast<std::size_t>(pos)];
            for (int j = pos + 1; j < size; ++j) {
                pick[static_cast<std::size_t>(j)] = pick[static_cast<std::size_t>(j - 1)] + 1;
            }
        }
    }
    return cap;
}

}  // namespace

int pair_vertex_connectivity_bruteforce(const graph::Digraph& g, int v, int w) {
    KADSIM_ASSERT(v != w && !g.has_edge(v, w));
    std::vector<int> others;
    for (int x = 0; x < g.vertex_count(); ++x) {
        if (x != v && x != w) others.push_back(x);
    }
    return smallest_separator(g, v, w, others, static_cast<int>(others.size()), false);
}

int pair_edge_connectivity_bruteforce(const graph::Digraph& g, int u, int v) {
    KADSIM_ASSERT(u != v);
    std::vector<int> edges(static_cast<std::size_t>(g.edge_count()));
    std::iota(edges.begin(), edges.end(), 0);
    // λ(u,v) ≤ out_degree(u) — removing every out-edge of u always works —
    // which keeps the enumeration tiny on oracle graphs.
    const int cap = std::min(g.out_degree(u), static_cast<int>(edges.size()));
    return smallest_separator(g, u, v, edges, cap, true);
}

}  // namespace kadsim::flow
