// E7 -- Theorem 10 / Figs. 7 and 8: the sparse cover construction.
//
// Sweeps k and the base radius d; measures the three guarantees:
//   (1) home clusters contain the seed balls (coverage),
//   (2) induced cluster radius <= (2k-1) d (we print the worst realized
//       blowup factor),
//   (3) per-node overlap <= 2k n^{1/k} (worst realized membership count),
// plus the number of Cover rounds against Lemma 12's bound.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "common.h"
#include "cover/sparse_cover.h"
#include "rt/metric.h"

namespace rtr::bench {
namespace {

void run() {
  print_banner("E7", "Thm. 10, Lemmas 11/12, Figs. 7/8",
               "Sparse covers on the roundtrip metric: radius blowup vs "
               "(2k-1), overlap vs 2k n^{1/k}, rounds vs Lemma 12.");

  TextTable table({"n", "k", "d", "clusters", "worst blowup", "limit(2k-1)",
                   "worst overlap", "limit(2kn^1/k)", "rounds", "coverage"});
  const NodeId n = 192;
  for (int k : {2, 3, 4}) {
    ExperimentInstance inst = build_instance(Family::kRandom, n, 4, 600 + k);
    const Digraph rev = inst.graph().reversed();
    const Dist diam = inst.metric->rt_diameter();
    for (double frac : {0.1, 0.3, 0.6}) {
      const Dist d = std::max<Dist>(1, static_cast<Dist>(frac * static_cast<double>(diam)));
      SparseCoverResult cover =
          build_sparse_cover(roundtrip_balls(*inst.metric, d), k);

      double worst_blowup = 0;
      bool coverage_ok = true;
      for (const auto& cluster : cover.clusters) {
        std::vector<char> mask(static_cast<std::size_t>(inst.n()), 0);
        for (NodeId v : cluster.members) mask[static_cast<std::size_t>(v)] = 1;
        auto induced = induced_roundtrip_from(inst.graph(), rev, cluster.center, mask);
        for (NodeId v : cluster.members) {
          worst_blowup =
              std::max(worst_blowup, static_cast<double>(
                                         induced[static_cast<std::size_t>(v)]) /
                                         static_cast<double>(d));
        }
      }
      for (NodeId v = 0; v < inst.n(); ++v) {
        const auto home = cover.home_of[static_cast<std::size_t>(v)];
        const auto& members = cover.clusters[static_cast<std::size_t>(home)].members;
        for (NodeId w : inst.metric->ball(v, d)) {
          coverage_ok = coverage_ok &&
                        std::binary_search(members.begin(), members.end(), w);
        }
      }
      std::int32_t worst_overlap = 0;
      for (std::int32_t c : cover.membership_counts(inst.n())) {
        worst_overlap = std::max(worst_overlap, c);
      }
      table.add_row(
          {fmt_int(inst.n()), fmt_int(k), fmt_int(d),
           fmt_int(static_cast<std::int64_t>(cover.clusters.size())),
           fmt_double(worst_blowup), fmt_int(2 * k - 1), fmt_int(worst_overlap),
           fmt_double(2.0 * k * std::pow(static_cast<double>(inst.n()), 1.0 / k)),
           fmt_int(cover.rounds), coverage_ok ? "ok" : "VIOLATED"});
    }
  }
  std::cout << table.render();
}

}  // namespace
}  // namespace rtr::bench

int main() {
  rtr::bench::run();
  return rtr::bench::finish("thm10_cover");
}
