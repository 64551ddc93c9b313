// Fig. 10 reproduction: a PolynomialStretch route inside one cluster, always
// through the cluster center.
//
// The paper's Fig. 10 shows the packet visiting intermediate nodes v_0, v_1,
// ... inside a double-tree, with every hop passing through the (shaded)
// center.  We route on a one-way grid, record the node sequence, and mark
// every visit to a cluster center.
#include <iostream>

#include "core/names.h"
#include "core/polystretch.h"
#include "graph/generators.h"
#include "net/simulator.h"
#include "rt/metric.h"

int main() {
  using namespace rtr;

  Rng rng(10);
  GraphBuilder builder = one_way_grid(10, 10, 3, rng);
  builder.assign_adversarial_ports(rng);
  const Digraph graph = builder.freeze();
  NameAssignment names = NameAssignment::random(graph.node_count(), rng);
  DenseRoundtripMetric metric(graph);

  PolyStretchScheme::Options opts;
  opts.k = 3;
  PolyStretchScheme scheme(graph, metric, names, opts);
  const CoverTable& cover = scheme.cover();

  // Collect every cluster center in the hierarchy for display.
  std::vector<char> is_center(static_cast<std::size_t>(graph.node_count()), 0);
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    for (std::int64_t i = cover.begin(v); i < cover.end(v); ++i) {
      if (cover.at(i).is_center != 0) is_center[static_cast<std::size_t>(v)] = 1;
    }
  }

  const NodeId src = 0, dst = graph.node_count() - 1;
  SimOptions sim;
  sim.record_paths = true;
  auto result =
      simulate_roundtrip(graph, scheme, src, dst, names.name_of(dst), sim);

  std::cout << "outbound route on the 10x10 one-way grid (" << result.out_hops
            << " hops; '(C)' marks double-tree centers):\n  ";
  for (std::size_t i = 0; i < result.out_path.size(); ++i) {
    NodeId v = result.out_path[i];
    std::cout << v << (is_center[static_cast<std::size_t>(v)] ? "(C)" : "");
    if (i + 1 < result.out_path.size()) std::cout << " -> ";
    if (i % 8 == 7) std::cout << "\n  ";
  }
  std::cout << "\n\nroundtrip length " << result.roundtrip_length()
            << " vs optimal " << metric.r(src, dst) << " => stretch "
            << static_cast<double>(result.roundtrip_length()) /
                   static_cast<double>(metric.r(src, dst))
            << " (bound " << scheme.stretch_bound() << ")\n"
            << "hierarchy levels: " << cover.level_count() << "\n";
  return result.ok() ? 0 : 1;
}
