// E2 -- Fig. 2 / Lemma 1: the block distribution.
//
// Fig. 2 illustrates a 36-node digraph where every neighborhood contains
// every block type with O(log n) blocks per node.  We sweep n, run the
// randomized assignment, and report blocks-per-node statistics, the
// verification outcome, and how often the randomized pass needed retries or
// greedy repairs.
#include <cmath>
#include <iostream>

#include "common.h"
#include "dict/block_assignment.h"

namespace rtr::bench {
namespace {

void run() {
  print_banner("E2", "Fig. 2 + Lemma 1",
               "Blocks per node vs n (k=2): the lemma promises O(log n) "
               "blocks with every neighborhood\ncontaining every block type.");

  TextTable table({"n", "blocks", "max S_v", "mean S_v", "log2 n",
                   "retries", "repairs", "coverage"});
  for (NodeId n : {36, 64, 144, 256, 400, 576}) {
    ExperimentInstance inst = build_instance(Family::kRandom, n, 4, 100 + n);
    Alphabet alpha(inst.n(), 2);
    Neighborhoods hoods = compute_neighborhoods(*inst.metric, inst.names);
    Rng rng(n);
    BlockAssignment a = assign_blocks(alpha, hoods, rng);
    double total = 0;
    for (const auto& s : a.blocks_of) total += static_cast<double>(s.size());
    const bool covered = verify_coverage(alpha, hoods, a);
    table.add_row({fmt_int(inst.n()), fmt_int(alpha.relevant_block_count()),
                   fmt_int(a.max_blocks_per_node()),
                   fmt_double(total / static_cast<double>(inst.n())),
                   fmt_double(std::log2(static_cast<double>(inst.n()))),
                   fmt_int(a.randomized_tries), fmt_int(a.greedy_repairs),
                   covered ? "ok" : "VIOLATED"});
  }
  std::cout << table.render();
}

}  // namespace
}  // namespace rtr::bench

int main() {
  rtr::bench::run();
  return rtr::bench::finish("lemma1_blocks");
}
