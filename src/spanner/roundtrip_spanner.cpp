#include "spanner/roundtrip_spanner.h"

#include <set>
#include <stdexcept>

#include "graph/apsp.h"

namespace rtr {

SpannerResult extract_roundtrip_spanner(const Digraph& g,
                                        const RoundtripMetric& metric,
                                        const CoverHierarchy& hierarchy) {
  const NodeId n = g.node_count();
  std::set<std::pair<NodeId, NodeId>> edges;
  for (std::int32_t level = 0; level < hierarchy.level_count(); ++level) {
    for (const DoubleTree& tree : hierarchy.level(level).trees) {
      // Out-tree arcs (parent -> member) from the tree's out-router, in-tree
      // arcs (member -> next hop toward the center) from its up-ports.
      for (NodeId v : tree.members()) {
        const NodeId parent = tree.out_router().parent_of(v);
        if (parent != kNoNode) edges.emplace(parent, v);
        if (v == tree.center()) continue;
        const Edge* e = g.edge_by_port(v, tree.up_port(v));
        if (e == nullptr) {
          throw std::logic_error("extract_roundtrip_spanner: dangling up-port");
        }
        edges.emplace(v, e->to);
      }
    }
  }

  SpannerResult result;
  GraphBuilder subgraph(n);
  for (const auto& [u, v] : edges) {
    // Weight from the original graph (unique edge u->v).
    for (const Edge& e : g.out_edges(u)) {
      if (e.to == v) {
        subgraph.add_edge(u, v, e.weight);
        break;
      }
    }
  }
  result.subgraph = subgraph.freeze();
  result.edges = result.subgraph.edge_count();
  result.stretch_bound = 4.0 * (2 * hierarchy.k() - 1);

  DistMatrix sub = all_pairs_shortest_paths(result.subgraph);
  double worst = 1.0;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      const Dist rh = sub.at(u, v) + sub.at(v, u);
      const Dist rg = metric.r(u, v);
      if (rh >= kInfDist) {
        throw std::logic_error(
            "extract_roundtrip_spanner: subgraph not strongly connected");
      }
      if (rg > 0) {
        worst = std::max(worst, static_cast<double>(rh) / static_cast<double>(rg));
      }
    }
  }
  result.measured_stretch = worst;
  return result;
}

SpannerResult build_roundtrip_spanner(const Digraph& g,
                                      const RoundtripMetric& metric, int k) {
  const Digraph reversed = g.reversed();
  CoverHierarchy hierarchy(g, reversed, metric, k);
  return extract_roundtrip_spanner(g, metric, hierarchy);
}

}  // namespace rtr
