// κ and λ in one sampled-pair sweep (paper §5.2, plus Whitney's chain).
//
// Both metrics are minima over the same ordered pairs — the c·n
// smallest-out-degree sources (flow/sampling.h) against every sink — and
// both are capped by the pair's degree bound min(out_degree(u), in_degree(v)).
// One engine serves both: one source cursor, one pool fan-out, one
// certificate / in-degree / reversed-graph set-up, and per pair a small
// metric kernel that differs only in
//
//   * the network: Even split (κ, even_transform.h) or unit capacity (λ);
//   * adjacency exclusion: κ skips sinks adjacent from the source;
//   * path seeding: length-3/5 paths (κ), direct edge plus two-hop paths (λ);
//   * the shape of a cut: vertices (κ) or edges (λ).
//
// Whitney's chain κ(u,v) ≤ λ(u,v) ≤ min(out_degree(u), in_degree(v)) lets
// the combined sweep skip λ work entirely for every non-adjacent pair whose
// κ settles at its bound — on Kademlia snapshots, nearly all of them.
// vertex_connectivity() and edge_connectivity() are single-metric calls into
// the same engine.
#ifndef KADSIM_FLOW_SWEEP_H
#define KADSIM_FLOW_SWEEP_H

#include "flow/edge_connectivity.h"
#include "flow/vertex_connectivity.h"

namespace kadsim::flow {

struct KappaLambdaResult {
    ConnectivityResult kappa;
    EdgeConnectivityResult lambda;
};

/// κ(D) and λ(D) over the same sampled sources, each source's κ and λ pairs
/// evaluated in one job. `options` drives both metrics, with options.reuse
/// the κ hook and `lambda_reuse` the λ hook (either may be nullptr). Each
/// half equals the corresponding single-metric call's result, except that
/// κ's arena_bytes covers both networks and every workspace of the sweep,
/// and that λ pairs settled by Whitney's chain (counted in flows_capped)
/// never consult `lambda_reuse`, so which λ pairs are reused may differ.
[[nodiscard]] KappaLambdaResult kappa_lambda_connectivity(
    const graph::Digraph& g, const ConnectivityOptions& options,
    PairReuseHook* lambda_reuse = nullptr);

}  // namespace kadsim::flow

#endif  // KADSIM_FLOW_SWEEP_H
