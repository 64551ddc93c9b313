#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generators.h"
#include "rt/metric.h"
#include "test_support.h"
#include "util/rng.h"

namespace rtr {
namespace {

using ::rtr::testing::FamilyParam;
using ::rtr::testing::Instance;
using ::rtr::testing::make_instance;

class MetricFamilyTest : public ::testing::TestWithParam<FamilyParam> {};

TEST_P(MetricFamilyTest, RoundtripIsSymmetricPositiveAndTriangular) {
  auto [family, n, seed] = GetParam();
  Instance inst = make_instance(family, n, 8, seed);
  const RoundtripMetric& m = *inst.metric;
  const NodeId nn = m.node_count();
  for (NodeId u = 0; u < nn; ++u) {
    EXPECT_EQ(m.r(u, u), 0);
    for (NodeId v = 0; v < nn; ++v) {
      if (u != v) {
        EXPECT_GE(m.r(u, v), 2);  // two arcs, weights >= 1
      }
      EXPECT_EQ(m.r(u, v), m.r(v, u));
    }
  }
  // Triangle inequality on sampled triples (full n^3 is wasteful).
  Rng rng(seed + 100);
  for (int i = 0; i < 500; ++i) {
    auto a = static_cast<NodeId>(rng.index(nn));
    auto b = static_cast<NodeId>(rng.index(nn));
    auto c = static_cast<NodeId>(rng.index(nn));
    EXPECT_LE(m.r(a, c), m.r(a, b) + m.r(b, c));
  }
}

TEST_P(MetricFamilyTest, InitOrderIsATotalOrderStartingAtSelf) {
  auto [family, n, seed] = GetParam();
  Instance inst = make_instance(family, n, 8, seed);
  const RoundtripMetric& m = *inst.metric;
  for (NodeId v = 0; v < m.node_count(); v += 7) {
    auto order = m.neighborhood(v, m.node_count(), inst.names.names());
    ASSERT_EQ(static_cast<NodeId>(order.size()), m.node_count());
    EXPECT_EQ(order[0], v) << "Init_v must start with v (r(v,v)=0)";
    // Non-decreasing in r; ties broken by (d(u,v), name) strictly.
    for (std::size_t i = 1; i < order.size(); ++i) {
      NodeId a = order[i - 1], b = order[i];
      Dist ra = m.r(v, a), rb = m.r(v, b);
      EXPECT_LE(ra, rb);
      if (ra == rb) {
        Dist da = m.d(a, v), db = m.d(b, v);
        EXPECT_LE(da, db);
        if (da == db) {
          EXPECT_LT(inst.names.name_of(a), inst.names.name_of(b));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, MetricFamilyTest,
    ::testing::Values(FamilyParam{Family::kRandom, 60, 1},
                      FamilyParam{Family::kGrid, 36, 2},
                      FamilyParam{Family::kRing, 48, 3},
                      FamilyParam{Family::kScaleFree, 60, 4},
                      FamilyParam{Family::kBidirected, 50, 5}),
    [](const ::testing::TestParamInfo<FamilyParam>& info) {
      return ::rtr::testing::family_param_name(info.param);
    });

TEST(Metric, RejectsNonStronglyConnectedGraphs) {
  GraphBuilder b(3);
  b.add_edge(0, 1, 1);
  b.add_edge(1, 2, 1);
  const Digraph g = b.freeze();
  EXPECT_THROW(DenseRoundtripMetric{g}, std::invalid_argument);
}

TEST(Metric, NeighborhoodPrefixSizes) {
  Rng rng(9);
  Digraph g = random_strongly_connected(50, 3.0, 5, rng).freeze();
  DenseRoundtripMetric m(g);
  auto names = NameAssignment::identity(50);
  auto hood = m.neighborhood(7, 10, names.names());
  EXPECT_EQ(hood.size(), 10u);
  EXPECT_EQ(hood[0], 7);
  auto all = m.neighborhood(7, 500, names.names());
  EXPECT_EQ(all.size(), 50u);
}

TEST(Metric, BallContainsExactlyCloseNodes) {
  Rng rng(10);
  Digraph g = random_strongly_connected(50, 3.0, 5, rng).freeze();
  DenseRoundtripMetric m(g);
  Dist radius = m.rt_diameter() / 2;
  auto ball = m.ball(11, radius);
  std::vector<char> in_ball(50, 0);
  for (NodeId v : ball) in_ball[static_cast<std::size_t>(v)] = 1;
  for (NodeId w = 0; w < 50; ++w) {
    EXPECT_EQ(in_ball[static_cast<std::size_t>(w)] != 0, m.r(11, w) <= radius);
  }
}

TEST(Metric, DiameterAndRadiusConsistency) {
  Rng rng(11);
  Digraph g = random_strongly_connected(40, 3.0, 6, rng).freeze();
  DenseRoundtripMetric m(g);
  Dist diam = m.rt_diameter();
  Dist max_rad = 0;
  std::vector<Dist> row(40);
  for (NodeId v = 0; v < 40; ++v) {
    m.roundtrip_row(v, row);
    max_rad = std::max(max_rad, *std::max_element(row.begin(), row.end()));
  }
  EXPECT_EQ(diam, max_rad);
  EXPECT_GT(diam, 0);
}

TEST(Metric, InducedRoundtripAtLeastGlobal) {
  Rng rng(12);
  Digraph g = random_strongly_connected(40, 3.0, 6, rng).freeze();
  Digraph rev = g.reversed();
  DenseRoundtripMetric m(g);
  // Mask = a roundtrip ball; induced distances within it are defined and
  // at least the global ones.
  auto members = m.ball(5, m.rt_diameter());
  std::vector<char> mask(40, 0);
  for (NodeId v : members) mask[static_cast<std::size_t>(v)] = 1;
  auto induced = induced_roundtrip_from(g, rev, 5, mask);
  for (NodeId v : members) {
    EXPECT_GE(induced[static_cast<std::size_t>(v)], m.r(5, v));
  }
  EXPECT_EQ(induced[5], 0);
}

}  // namespace
}  // namespace rtr
