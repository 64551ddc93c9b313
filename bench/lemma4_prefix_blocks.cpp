// E5 -- Lemma 4 / Fig. 5: the prefix-hierarchical block distribution.
//
// For k in {2,3,4}, measures per-level coverage (every realizable i-digit
// prefix held inside every N_i(v)) and the blocks-per-node statistics the
// lemma bounds by O(log n).
#include <cmath>
#include <iostream>

#include "common.h"
#include "dict/block_assignment.h"

namespace rtr::bench {
namespace {

void run() {
  print_banner("E5", "Lemma 4 + Fig. 5",
               "Prefix-block distribution across k: coverage of every level "
               "and O(log n) blocks per node.");

  TextTable table({"n", "k", "q", "max S_v", "mean S_v", "retries", "repairs",
                   "coverage"});
  for (int k : {2, 3, 4}) {
    for (NodeId n : {64, 216, 256}) {
      ExperimentInstance inst = build_instance(Family::kRandom, n, 4, 300 + n + k);
      Alphabet alpha(inst.n(), k);
      Neighborhoods hoods = compute_neighborhoods(*inst.metric, inst.names);
      Rng rng(n + k);
      BlockAssignment a = assign_blocks(alpha, hoods, rng);
      double total = 0;
      for (const auto& s : a.blocks_of) total += static_cast<double>(s.size());
      table.add_row({fmt_int(inst.n()), fmt_int(k), fmt_int(alpha.q()),
                     fmt_int(a.max_blocks_per_node()),
                     fmt_double(total / static_cast<double>(inst.n())),
                     fmt_int(a.randomized_tries), fmt_int(a.greedy_repairs),
                     verify_coverage(alpha, hoods, a) ? "ok" : "VIOLATED"});
    }
  }
  std::cout << table.render();
  std::cout << "\n(See examples/prefix_trace for the Fig. 5 waypoint "
               "prefix-matching walkthrough.)\n";
}

}  // namespace
}  // namespace rtr::bench

int main() {
  rtr::bench::run();
  return rtr::bench::finish("lemma4_prefix_blocks");
}
