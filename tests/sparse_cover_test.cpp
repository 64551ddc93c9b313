#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "cover/sparse_cover.h"
#include "graph/scc.h"
#include "rt/metric.h"
#include "test_support.h"

namespace rtr {
namespace {

using ::rtr::testing::Instance;
using ::rtr::testing::make_instance;

struct CoverParam {
  Family family;
  NodeId n;
  int k;
  // Radius as a fraction of RTDiam (so the sweep is size-independent).
  double diam_fraction;
  std::uint64_t seed;
};

class SparseCoverTest : public ::testing::TestWithParam<CoverParam> {
 protected:
  void Build() {
    const auto& p = GetParam();
    inst_ = make_instance(p.family, p.n, 6, p.seed);
    d_ = std::max<Dist>(
        1, static_cast<Dist>(p.diam_fraction *
                             static_cast<double>(inst_.metric->rt_diameter())));
    cover_ = build_sparse_cover(roundtrip_balls(*inst_.metric, d_), p.k);
  }

  Instance inst_;
  Dist d_ = 0;
  SparseCoverResult cover_;
};

TEST_P(SparseCoverTest, Theorem10Property1_HomeClusterContainsBall) {
  Build();
  for (NodeId v = 0; v < inst_.n(); ++v) {
    const std::int32_t home = cover_.home_of[static_cast<std::size_t>(v)];
    ASSERT_GE(home, 0);
    const auto& members = cover_.clusters[static_cast<std::size_t>(home)].members;
    for (NodeId w : inst_.metric->ball(v, d_)) {
      EXPECT_TRUE(std::binary_search(members.begin(), members.end(), w))
          << "ball of " << v << " leaks " << w;
    }
  }
}

TEST_P(SparseCoverTest, Theorem10Property2_InducedRadiusBound) {
  Build();
  const auto& p = GetParam();
  const Digraph rev = inst_.graph.reversed();
  for (const auto& cluster : cover_.clusters) {
    std::vector<char> mask(static_cast<std::size_t>(inst_.n()), 0);
    for (NodeId v : cluster.members) mask[static_cast<std::size_t>(v)] = 1;
    ASSERT_TRUE(is_strongly_connected_subgraph(inst_.graph, mask));
    auto induced = induced_roundtrip_from(inst_.graph, rev, cluster.center, mask);
    for (NodeId v : cluster.members) {
      ASSERT_LT(induced[static_cast<std::size_t>(v)], kInfDist);
      EXPECT_LE(induced[static_cast<std::size_t>(v)], (2 * p.k - 1) * d_)
          << "cluster radius blowup exceeds 2k-1";
    }
  }
}

TEST_P(SparseCoverTest, Theorem10Property3_OverlapBound) {
  Build();
  const auto& p = GetParam();
  const double bound =
      2.0 * p.k * std::pow(static_cast<double>(inst_.n()), 1.0 / p.k);
  for (std::int32_t c : cover_.membership_counts(inst_.n())) {
    EXPECT_LE(static_cast<double>(c), bound);
  }
  // Lemma 12's round bound implies the same quantity bounds rounds.
  EXPECT_LE(static_cast<double>(cover_.rounds), bound);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SparseCoverTest,
    ::testing::Values(CoverParam{Family::kRandom, 60, 2, 0.25, 1},
                      CoverParam{Family::kRandom, 60, 3, 0.25, 2},
                      CoverParam{Family::kRandom, 60, 2, 0.75, 3},
                      CoverParam{Family::kGrid, 64, 2, 0.3, 4},
                      CoverParam{Family::kRing, 48, 3, 0.2, 5},
                      CoverParam{Family::kScaleFree, 60, 2, 0.3, 6},
                      CoverParam{Family::kBidirected, 50, 4, 0.3, 7}),
    [](const ::testing::TestParamInfo<CoverParam>& info) {
      return family_name(info.param.family).substr(0, 4) + "_n" +
             std::to_string(info.param.n) + "_k" + std::to_string(info.param.k) +
             "_s" + std::to_string(info.param.seed);
    });

TEST(SparseCover, TinyRadiusYieldsSingletonishClusters) {
  Instance inst = make_instance(Family::kRandom, 40, 6, 9);
  // Radius below the minimum roundtrip (2): every ball is a singleton.
  SparseCoverResult cover =
      build_sparse_cover(roundtrip_balls(*inst.metric, 1), 2);
  for (NodeId v = 0; v < inst.n(); ++v) {
    const auto home = cover.home_of[static_cast<std::size_t>(v)];
    const auto& members = cover.clusters[static_cast<std::size_t>(home)].members;
    EXPECT_TRUE(std::binary_search(members.begin(), members.end(), v));
  }
}

TEST(SparseCover, DiameterRadiusYieldsOneClusterPerRound) {
  Instance inst = make_instance(Family::kRandom, 40, 6, 10);
  const Dist diameter = inst.metric->rt_diameter();
  SparseCoverResult cover =
      build_sparse_cover(roundtrip_balls(*inst.metric, diameter), 2);
  // Every seed ball is V, so the very first merge covers everything.
  EXPECT_EQ(cover.rounds, 1);
  ASSERT_EQ(cover.clusters.size(), 1u);
  EXPECT_EQ(static_cast<NodeId>(cover.clusters[0].members.size()), inst.n());
}

TEST(SparseCover, RejectsBadArguments) {
  Instance inst = make_instance(Family::kRandom, 20, 4, 11);
  EXPECT_THROW(build_sparse_cover(roundtrip_balls(*inst.metric, 4), 1),
               std::invalid_argument);
  EXPECT_THROW(build_sparse_cover(roundtrip_balls(*inst.metric, -1), 2),
               std::invalid_argument);
}

}  // namespace
}  // namespace rtr
