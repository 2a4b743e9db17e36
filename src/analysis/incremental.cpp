#include "analysis/incremental.h"

#include <algorithm>

#include "util/assert.h"

namespace kadsim::analysis {

namespace detail {

namespace {

std::uint64_t pair_key(std::uint32_t src, std::uint32_t dst) {
    return (static_cast<std::uint64_t>(src) << 32) | dst;
}

std::uint64_t edge_key(int tail, int head) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(tail)) << 32) |
           static_cast<std::uint32_t>(head);
}

/// Per-thread revalidation scratch: epoch-stamped visited/blocked sets (no
/// O(n) clear per lookup) and the current entry's cut as a sorted edge-key
/// vector. Thread-local because lookups race from every flow worker.
struct LookupScratch {
    std::vector<std::uint64_t> visit_stamp;
    std::vector<std::uint64_t> block_stamp;
    std::vector<int> queue;
    std::vector<std::uint64_t> cut_edges;
    std::uint64_t epoch = 0;
};

thread_local LookupScratch tls_scratch;

}  // namespace

int PairCache::lookup(int u, int v) {
    lookups.fetch_add(1, std::memory_order_relaxed);
    const auto& addr = *id_to_addr;
    const auto it = committed.find(pair_key(addr[static_cast<std::size_t>(u)],
                                            addr[static_cast<std::size_t>(v)]));
    if (it == committed.end()) return -1;
    const Entry& entry = it->second;
    const graph::Digraph& g = *graph;
    const auto& to_id = *addr_to_id;
    // Half one — value ≥ f: every witness path must exist edge-for-edge in
    // the current graph. Interior vertices are stored as overlay addresses:
    // a departed node fails the address map, an evicted routing-table entry
    // fails has_edge. Path vertex sets are unchanged, so the paths are still
    // pairwise disjoint.
    for (std::size_t p = 0; p + 1 < entry.offsets.size(); ++p) {
        int prev = u;
        for (auto i = static_cast<std::size_t>(entry.offsets[p]);
             i < static_cast<std::size_t>(entry.offsets[p + 1]); ++i) {
            const std::uint32_t a = entry.nodes[i];
            if (a >= to_id.size() || to_id[a] < 0) return -1;
            const int w = to_id[a];
            if (!g.has_edge(prev, w)) return -1;
            prev = w;
        }
        if (!g.has_edge(prev, v)) return -1;
    }
    // Half two — value ≤ f: the stored cut must still separate u from v,
    // checked by BFS from u avoiding it. Departed cut members are skipped:
    // if fewer than f survive, the f intact disjoint paths cannot all be
    // blocked, the search reaches v, and the entry is refused — so an
    // accepted entry always has a full-strength cut behind it.
    const int n = g.vertex_count();
    LookupScratch& s = tls_scratch;
    if (s.visit_stamp.size() < static_cast<std::size_t>(n)) {
        s.visit_stamp.resize(static_cast<std::size_t>(n), 0);
        s.block_stamp.resize(static_cast<std::size_t>(n), 0);
    }
    const std::uint64_t epoch = ++s.epoch;
    if (edge_cut) {
        s.cut_edges.clear();
        KADSIM_ASSERT(entry.cut.size() % 2 == 0);
        for (std::size_t i = 0; i + 1 < entry.cut.size(); i += 2) {
            const std::uint32_t a = entry.cut[i];
            const std::uint32_t b = entry.cut[i + 1];
            if (a >= to_id.size() || to_id[a] < 0 || b >= to_id.size() ||
                to_id[b] < 0) {
                continue;  // an endpoint departed: the edge is gone anyway
            }
            s.cut_edges.push_back(edge_key(to_id[a], to_id[b]));
        }
        std::sort(s.cut_edges.begin(), s.cut_edges.end());
    } else {
        for (const std::uint32_t a : entry.cut) {
            if (a >= to_id.size() || to_id[a] < 0) continue;  // departed
            const int w = to_id[a];
            if (w == u || w == v) return -1;  // never produced by the kernels
            s.block_stamp[static_cast<std::size_t>(w)] = epoch;
        }
    }
    s.queue.clear();
    s.queue.push_back(u);
    s.visit_stamp[static_cast<std::size_t>(u)] = epoch;
    for (std::size_t head = 0; head < s.queue.size(); ++head) {
        const int x = s.queue[head];
        for (const int y : g.out(x)) {
            const auto ys = static_cast<std::size_t>(y);
            if (edge_cut) {
                if (std::binary_search(s.cut_edges.begin(), s.cut_edges.end(),
                                       edge_key(x, y))) {
                    continue;
                }
            } else if (s.block_stamp[ys] == epoch) {
                continue;
            }
            if (y == v) return -1;  // cut no longer separates: recompute
            if (s.visit_stamp[ys] == epoch) continue;
            s.visit_stamp[ys] = epoch;
            s.queue.push_back(y);
        }
    }
    hits.fetch_add(1, std::memory_order_relaxed);
    return entry.value;
}

void PairCache::store(int u, int v, int value, std::span<const int> witness,
                      std::span<const int> path_offsets,
                      std::span<const int> cut) {
    const auto& addr = *id_to_addr;
    Entry entry;
    entry.value = value;
    entry.nodes.reserve(witness.size());
    for (const int w : witness) {
        entry.nodes.push_back(addr[static_cast<std::size_t>(w)]);
    }
    entry.offsets.assign(path_offsets.begin(), path_offsets.end());
    entry.cut.reserve(cut.size());
    for (const int w : cut) {
        entry.cut.push_back(addr[static_cast<std::size_t>(w)]);
    }
    const std::uint64_t key = pair_key(addr[static_cast<std::size_t>(u)],
                                       addr[static_cast<std::size_t>(v)]);
    stores.fetch_add(1, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> guard(pending_mutex);
    pending.emplace_back(key, std::move(entry));
}

}  // namespace detail

void SnapshotDeltaCache::begin_snapshot(const graph::RoutingSnapshot& snapshot,
                                        const graph::Digraph& graph) {
    KADSIM_ASSERT(static_cast<std::size_t>(graph.vertex_count()) ==
                  snapshot.nodes.size());
    id_to_addr_.clear();
    id_to_addr_.reserve(snapshot.nodes.size());
    std::uint32_t max_addr = 0;
    for (const auto& node : snapshot.nodes) {
        id_to_addr_.push_back(node.address);
        max_addr = std::max(max_addr, node.address);
    }
    addr_to_id_.assign(static_cast<std::size_t>(max_addr) + 1, -1);
    for (std::size_t i = 0; i < id_to_addr_.size(); ++i) {
        addr_to_id_[id_to_addr_[i]] = static_cast<std::int32_t>(i);
    }
    kappa_.graph = &graph;
    lambda_.graph = &graph;
    bind(kappa_);
    bind(lambda_);

    // Drop entries whose endpoints left the network — they can never
    // revalidate again, and pruning here keeps the store proportional to
    // the live pair sample instead of growing with total churn.
    for (auto* cache : {&kappa_, &lambda_}) {
        std::erase_if(cache->committed, [this](const auto& kv) {
            const auto src = static_cast<std::uint32_t>(kv.first >> 32);
            const auto dst = static_cast<std::uint32_t>(kv.first);
            return src >= addr_to_id_.size() || addr_to_id_[src] < 0 ||
                   dst >= addr_to_id_.size() || addr_to_id_[dst] < 0;
        });
    }
}

void SnapshotDeltaCache::end_snapshot() {
    for (auto* cache : {&kappa_, &lambda_}) {
        // No lock needed: the sweep has joined before end_snapshot.
        for (auto& [key, entry] : cache->pending) {
            cache->committed[key] = std::move(entry);
        }
        cache->pending.clear();
    }
}

void SnapshotDeltaCache::bind(detail::PairCache& cache) const {
    cache.id_to_addr = &id_to_addr_;
    cache.addr_to_id = &addr_to_id_;
}

DeltaStats SnapshotDeltaCache::stats_of(const detail::PairCache& cache) {
    DeltaStats stats;
    stats.lookups = cache.lookups.load(std::memory_order_relaxed);
    stats.hits = cache.hits.load(std::memory_order_relaxed);
    stats.stores = cache.stores.load(std::memory_order_relaxed);
    stats.entries = cache.committed.size();
    return stats;
}

DeltaStats SnapshotDeltaCache::kappa_stats() const { return stats_of(kappa_); }
DeltaStats SnapshotDeltaCache::lambda_stats() const { return stats_of(lambda_); }

}  // namespace kadsim::analysis
