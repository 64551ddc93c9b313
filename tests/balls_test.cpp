#include <gtest/gtest.h>

#include <algorithm>

#include "graph/dijkstra.h"
#include "rtz/balls.h"
#include "rtz/centers.h"
#include "test_support.h"

namespace rtr {
namespace {

using ::rtr::testing::Instance;
using ::rtr::testing::make_instance;

class BallSystemTest : public ::testing::Test {
 protected:
  void Build(Family f, NodeId n, std::uint64_t seed) {
    inst_ = make_instance(f, n, 5, seed);
    Rng rng(seed + 7);
    sys_ = build_ball_system(*inst_.metric,
                             sample_centers(inst_.n(), default_center_count(inst_.n()), rng));
  }
  Instance inst_;
  BallSystem sys_;
};

TEST_F(BallSystemTest, BallDefinitionExact) {
  Build(Family::kRandom, 60, 1);
  for (NodeId v = 0; v < inst_.n(); ++v) {
    const auto ball = sys_.ball(v);
    std::vector<char> in_ball(static_cast<std::size_t>(inst_.n()), 0);
    for (NodeId w : ball) in_ball[static_cast<std::size_t>(w)] = 1;
    for (NodeId w = 0; w < inst_.n(); ++w) {
      const bool expected =
          w == v ||
          inst_.metric->r(v, w) < sys_.r_to_centers[static_cast<std::size_t>(v)];
      EXPECT_EQ(in_ball[static_cast<std::size_t>(w)] != 0, expected);
    }
  }
}

TEST_F(BallSystemTest, NearestCenterAchievesRToA) {
  Build(Family::kGrid, 36, 2);
  for (NodeId v = 0; v < inst_.n(); ++v) {
    const auto ci = sys_.nearest_center[static_cast<std::size_t>(v)];
    ASSERT_GE(ci, 0);
    const NodeId a = sys_.centers[static_cast<std::size_t>(ci)];
    EXPECT_EQ(inst_.metric->r(v, a), sys_.r_to_centers[static_cast<std::size_t>(v)]);
    for (NodeId c : sys_.centers) {
      EXPECT_GE(inst_.metric->r(v, c), inst_.metric->r(v, a));
    }
  }
}

TEST_F(BallSystemTest, ClustersAreInverseBalls) {
  Build(Family::kRing, 40, 3);
  for (NodeId w = 0; w < inst_.n(); ++w) {
    for (NodeId v = 0; v < inst_.n(); ++v) {
      const auto ball = sys_.ball(v);
      const auto cluster = sys_.cluster(w);
      const bool in_ball = std::binary_search(ball.begin(), ball.end(), w);
      const bool in_cluster = std::binary_search(cluster.begin(), cluster.end(), v);
      EXPECT_EQ(in_ball, in_cluster);
    }
  }
}

TEST_F(BallSystemTest, CentersHaveSingletonBalls) {
  Build(Family::kRandom, 50, 4);
  for (NodeId a : sys_.centers) {
    EXPECT_EQ(sys_.r_to_centers[static_cast<std::size_t>(a)], 0);
    const auto ball = sys_.ball(a);
    ASSERT_EQ(ball.size(), 1u);
    EXPECT_EQ(ball[0], a);
  }
}

// The closure property Rtz3Scheme's correctness rests on: shortest paths
// between v and a ball member stay inside the ball, so the induced in/out
// trees realize exact global distances.
TEST_F(BallSystemTest, BallClosureRealizesExactDistances) {
  Build(Family::kScaleFree, 60, 5);
  const Digraph rev = inst_.graph.reversed();
  for (NodeId v = 0; v < inst_.n(); v += 3) {
    const auto ball = sys_.ball(v);
    std::vector<char> mask(static_cast<std::size_t>(inst_.n()), 0);
    for (NodeId w : ball) mask[static_cast<std::size_t>(w)] = 1;
    OutTree out = dijkstra_out_tree_within(inst_.graph, v, mask);
    InTree in = dijkstra_in_tree_within(inst_.graph, rev, v, mask);
    for (NodeId w : ball) {
      EXPECT_EQ(out.dist[static_cast<std::size_t>(w)], inst_.metric->d(v, w))
          << "induced out-distance inflated: ball not closed";
      EXPECT_EQ(in.dist[static_cast<std::size_t>(w)], inst_.metric->d(w, v))
          << "induced in-distance inflated: ball not closed";
    }
  }
}

TEST(BallSystem, RequiresCenters) {
  Instance inst = make_instance(Family::kRandom, 20, 3, 6);
  EXPECT_THROW(build_ball_system(*inst.metric, {}), std::invalid_argument);
}

TEST(BallSystem, SizeDiagnostics) {
  Instance inst = make_instance(Family::kRandom, 60, 3, 7);
  Rng rng(8);
  BallSystem sys = build_ball_system(
      *inst.metric, sample_centers(60, default_center_count(60), rng));
  EXPECT_GE(sys.max_ball_size(), 1);
  EXPECT_GE(sys.max_cluster_size(), 1);
  EXPECT_LE(sys.max_ball_size(), 60);
  EXPECT_LE(sys.max_cluster_size(), 60);
}

// Counted work of the roundtrip-ball search that serves every rtz3 ball
// (radius r(v,A) - 1): the mean number of nodes its two directions touch
// (dist slots dirtied, the search's whole footprint) per non-center ball.
// Queueing a neighbour only while it can still be a member halves it:
// queueing every neighbour within the full budget touched 324 nodes per
// ball on random and 320 on scale-free at these instances, against 160 and
// 164 with the push-time rule (about 8 members per ball on both).
TEST(BallSystem, RoundtripBallSearchTouchesFewNodesPerRtz3Ball) {
  constexpr double kMaxMeanTouched = 240;
  for (const Family family : {Family::kRandom, Family::kScaleFree}) {
    const Instance inst = make_instance(family, 1024, 5, 41);
    Rng rng(42);
    const BallSystem sys = build_ball_system(
        *inst.metric,
        sample_centers(inst.n(), default_center_count(inst.n()), rng));
    const Digraph rev = inst.graph.reversed();
    RoundtripBallWorkspace ws;
    std::vector<RoundtripReach> ball;
    std::int64_t balls = 0;
    std::int64_t touched = 0;
    for (NodeId v = 0; v < inst.n(); ++v) {
      const Dist rv = sys.r_to_centers[static_cast<std::size_t>(v)];
      if (rv <= 0) continue;
      ball.clear();
      ASSERT_TRUE(roundtrip_ball_bounded(inst.graph, rev, v, rv - 1, ws, ball));
      ++balls;
      touched += static_cast<std::int64_t>(ws.fwd.touched.size() +
                                           ws.rev.touched.size());
    }
    ASSERT_GT(balls, 0);
    const double mean =
        static_cast<double>(touched) / static_cast<double>(balls);
    RecordProperty(family_name(family) + "_mean_touched",
                   std::to_string(mean));
    EXPECT_LE(mean, kMaxMeanTouched)
        << family_name(family) << ": " << touched << " nodes touched over "
        << balls << " balls";
  }
}

}  // namespace
}  // namespace rtr
