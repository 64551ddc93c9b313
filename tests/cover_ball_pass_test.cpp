// The cover hierarchy's seed balls come from one pass over the metric's
// streamed roundtrip rows (RoundtripBallLevels), not from per-node ball()
// calls.  This suite checks that pass against ball() and rt_diameter() on
// both backends, and that the covers and hierarchies built from it do not
// depend on the backend or the thread count.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "cover/hierarchy.h"
#include "cover/sparse_cover.h"
#include "test_support.h"

namespace rtr {
namespace {

using ::rtr::testing::Instance;
using ::rtr::testing::make_instance;

constexpr NodeId kN = 96;

using BallPassParam = std::tuple<Family, int>;  // (family, k)

std::vector<NodeId> row_of(const RoundtripBalls& balls, NodeId v) {
  const auto row = balls.rows[v];
  return {row.begin(), row.end()};
}

class CoverBallPass : public ::testing::TestWithParam<BallPassParam> {
 protected:
  void SetUp() override {
    const auto [family, k] = GetParam();
    inst_ = make_instance(family, kN, 5, 70 + static_cast<std::uint64_t>(k));
    k_ = k;
    reversed_ = inst_.graph.reversed();
    const auto graph = std::make_shared<const Digraph>(inst_.graph);
    dense_ = make_roundtrip_metric(graph, MetricMode::kDense, 1);
    sparse_ = make_roundtrip_metric(graph, MetricMode::kSparse, 1);
  }

  [[nodiscard]] std::vector<const RoundtripMetric*> backends() const {
    return {dense_.get(), sparse_.get()};
  }

  Instance inst_;
  int k_ = 0;
  Digraph reversed_{0};
  std::shared_ptr<const RoundtripMetric> dense_;
  std::shared_ptr<const RoundtripMetric> sparse_;
};

TEST_P(CoverBallPass, LevelBallsEqualMetricBalls) {
  for (const RoundtripMetric* metric : backends()) {
    const RoundtripBallLevels levels(*metric);
    const Dist diameter = metric->rt_diameter();
    ASSERT_EQ(levels.diameter(), diameter);
    ASSERT_GE(levels.level_count(), 1);
    const Dist top = Dist{2} << (levels.level_count() - 1);
    EXPECT_GE(top, diameter);
    if (levels.level_count() > 1) {
      EXPECT_LT(top / 2, diameter);
    }
    for (std::int32_t i = 0; i < levels.level_count(); ++i) {
      const RoundtripBalls balls = levels.balls(i);
      ASSERT_EQ(balls.radius, Dist{2} << i);
      ASSERT_EQ(balls.rows.count(), inst_.n());
      for (NodeId v = 0; v < inst_.n(); ++v) {
        ASSERT_EQ(row_of(balls, v), metric->ball(v, balls.radius))
            << "level " << i << " node " << v;
      }
    }
    EXPECT_THROW((void)levels.balls(levels.level_count()), std::out_of_range);
  }
}

TEST_P(CoverBallPass, SingleRadiusBallsEqualMetricBalls) {
  for (const RoundtripMetric* metric : backends()) {
    for (const Dist radius : {Dist{1}, metric->rt_diameter() / 3 + 1,
                              metric->rt_diameter()}) {
      const RoundtripBalls balls = roundtrip_balls(*metric, radius);
      ASSERT_EQ(balls.rows.count(), inst_.n());
      for (NodeId v = 0; v < inst_.n(); ++v) {
        ASSERT_EQ(row_of(balls, v), metric->ball(v, radius))
            << "radius " << radius << " node " << v;
      }
    }
  }
}

TEST_P(CoverBallPass, CoversMatchAcrossBackends) {
  const RoundtripBallLevels dense_levels(*dense_);
  const RoundtripBallLevels sparse_levels(*sparse_);
  ASSERT_EQ(dense_levels.level_count(), sparse_levels.level_count());
  for (std::int32_t i = 0; i < dense_levels.level_count(); ++i) {
    const SparseCoverResult a = build_sparse_cover(dense_levels.balls(i), k_);
    const SparseCoverResult b = build_sparse_cover(sparse_levels.balls(i), k_);
    const std::string where = "level " + std::to_string(i);
    ASSERT_EQ(a.d, b.d) << where;
    ASSERT_EQ(a.rounds, b.rounds) << where;
    ASSERT_EQ(a.home_of, b.home_of) << where;
    ASSERT_EQ(a.clusters.size(), b.clusters.size()) << where;
    for (std::size_t c = 0; c < a.clusters.size(); ++c) {
      ASSERT_EQ(a.clusters[c].center, b.clusters[c].center) << where;
      ASSERT_EQ(a.clusters[c].members, b.clusters[c].members) << where;
      ASSERT_EQ(a.clusters[c].absorbed, b.clusters[c].absorbed) << where;
    }
  }
}

TEST_P(CoverBallPass, HierarchiesMatchAcrossBackendsAndThreads) {
  const CoverHierarchy reference(inst_.graph, reversed_, *dense_, k_, 1);
  for (const RoundtripMetric* metric : backends()) {
    for (const int threads : {1, 3}) {
      const CoverHierarchy h(inst_.graph, reversed_, *metric, k_, threads);
      const std::string where = std::string(metric == dense_.get() ? "dense"
                                                                   : "sparse") +
                                " threads " + std::to_string(threads);
      ASSERT_EQ(h.level_count(), reference.level_count()) << where;
      for (std::int32_t i = 0; i < h.level_count(); ++i) {
        const HierarchyLevel& got = h.level(i);
        const HierarchyLevel& want = reference.level(i);
        ASSERT_EQ(got.radius, want.radius) << where;
        ASSERT_EQ(got.home_of, want.home_of) << where << " level " << i;
        ASSERT_EQ(got.trees.size(), want.trees.size()) << where;
        for (std::size_t t = 0; t < got.trees.size(); ++t) {
          ASSERT_EQ(got.trees[t].center(), want.trees[t].center()) << where;
          ASSERT_EQ(got.trees[t].members(), want.trees[t].members())
              << where << " level " << i << " tree " << t;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, CoverBallPass,
    ::testing::Combine(::testing::Values(Family::kRandom, Family::kGrid,
                                         Family::kRing, Family::kScaleFree,
                                         Family::kBidirected),
                       ::testing::Values(2, 3)),
    [](const ::testing::TestParamInfo<BallPassParam>& info) {
      std::string name = family_name(std::get<0>(info.param));
      for (auto& c : name) {
        if (c == '+' || c == '-') c = '_';
      }
      return name + "_k" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace rtr
