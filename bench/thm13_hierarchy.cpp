// E8 -- Theorem 13: double-tree cover hierarchy on the roundtrip metric.
//
// Builds the full level hierarchy and reports, per level: tree count, worst
// RTHeight against (2k-1) 2^i, and worst per-node membership against
// 2k n^{1/k}; then summarizes per-node storage implied by memberships.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "common.h"
#include "cover/hierarchy.h"
#include "rtz/handshake.h"

namespace rtr::bench {
namespace {

void run() {
  print_banner("E8", "Thm. 13",
               "Hierarchy of double-tree covers: per-level heights and "
               "memberships (k=3, random n=192).");

  const NodeId n = 192;
  const int k = 3;
  ExperimentInstance inst = build_instance(Family::kRandom, n, 4, 700);
  const Digraph rev = inst.graph().reversed();
  CoverHierarchy hierarchy(inst.graph(), rev, *inst.metric, k);

  TextTable table({"level", "radius 2^i", "trees", "max RTHeight",
                   "limit (2k-1)2^i", "max membership", "limit 2kn^{1/k}"});
  for (std::int32_t i = 0; i < hierarchy.level_count(); ++i) {
    const HierarchyLevel& lvl = hierarchy.level(i);
    Dist max_height = 0;
    for (const DoubleTree& t : lvl.trees) max_height = std::max(max_height, t.rt_height());
    std::size_t max_members = 0;
    for (NodeId v = 0; v < inst.n(); ++v) {
      max_members = std::max(max_members,
                             lvl.trees_of[static_cast<std::size_t>(v)].size());
    }
    table.add_row({fmt_int(i + 1), fmt_int(lvl.radius),
                   fmt_int(static_cast<std::int64_t>(lvl.trees.size())),
                   fmt_int(max_height), fmt_int((2 * k - 1) * lvl.radius),
                   fmt_int(static_cast<std::int64_t>(max_members)),
                   fmt_double(2.0 * k *
                              std::pow(static_cast<double>(inst.n()), 1.0 / k))});
  }
  std::cout << table.render();

  TableStats stats = hierarchy_node_stats(CoverTable(hierarchy), inst.n(),
                                          inst.graph().port_space());
  std::cout << "\nper-node membership storage: " << stats.brief() << "\n";
}

}  // namespace
}  // namespace rtr::bench

int main() {
  rtr::bench::run();
  return rtr::bench::finish("thm13_hierarchy");
}
