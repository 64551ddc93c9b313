// Member-local double trees against the dense oracle.
//
// DoubleTree runs its two Dijkstras over member ranks; the dense
// dijkstra_{out,in}_tree_within functions run the same searches over
// n-length arrays with a member mask.  Every tree of a cover hierarchy, and
// every rtz3 ball tree, must agree with them on every distance, parent,
// port, table and label -- for members and non-members alike -- whatever
// the thread count of the build.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "cover/double_tree.h"
#include "cover/hierarchy.h"
#include "graph/dijkstra.h"
#include "rtz/balls.h"
#include "rtz/centers.h"
#include "test_support.h"
#include "treeroute/tree_router.h"

namespace rtr {
namespace {

using ::rtr::testing::Instance;
using ::rtr::testing::make_instance;

void expect_matches_dense_oracle(const Digraph& g, const Digraph& reversed,
                                 const DoubleTree& tree,
                                 const std::string& where) {
  const NodeId n = g.node_count();
  std::vector<char> mask(static_cast<std::size_t>(n), 0);
  for (const NodeId v : tree.members()) mask[static_cast<std::size_t>(v)] = 1;
  const OutTree out = dijkstra_out_tree_within(g, tree.center(), mask);
  const InTree in = dijkstra_in_tree_within(g, reversed, tree.center(), mask);
  const TreeRouter router(out);

  ASSERT_EQ(tree.member_count(), router.member_count()) << where;
  ASSERT_EQ(tree.out_router().root(), router.root()) << where;
  Dist height = 0;
  for (NodeId v = 0; v < n; ++v) {
    const auto i = static_cast<std::size_t>(v);
    ASSERT_EQ(tree.contains(v), mask[i] != 0) << where << " node " << v;
    ASSERT_EQ(tree.down_dist(v), out.dist[i]) << where << " node " << v;
    ASSERT_EQ(tree.up_dist(v), in.dist[i]) << where << " node " << v;
    ASSERT_EQ(tree.up_port(v), in.next_port[i]) << where << " node " << v;
    if (mask[i] == 0) continue;
    height = std::max(height, out.dist[i] + in.dist[i]);
    ASSERT_EQ(tree.out_router().parent_of(v), out.parent[i])
        << where << " node " << v;
    const TreeNodeTable& got = tree.out_router().table(v);
    const TreeNodeTable& want = router.table(v);
    ASSERT_EQ(got.dfs_in, want.dfs_in) << where << " node " << v;
    ASSERT_EQ(got.heavy_port, want.heavy_port) << where << " node " << v;
    const TreeLabel got_label = tree.out_router().label(v);
    const TreeLabel want_label = router.label(v);
    ASSERT_EQ(got_label.dfs_in, want_label.dfs_in) << where << " node " << v;
    ASSERT_TRUE(got_label.light_hops == want_label.light_hops)
        << where << " node " << v;
  }
  ASSERT_EQ(tree.rt_height(), height) << where;
}

using OracleParam = std::tuple<Family, int>;  // (family, build threads)

class DoubleTreeOracleTest : public ::testing::TestWithParam<OracleParam> {};

TEST_P(DoubleTreeOracleTest, EveryHierarchyTreeMatchesTheDenseRuns) {
  const auto [family, threads] = GetParam();
  const Instance inst = make_instance(family, 96, 5, 17);
  const Digraph reversed = inst.graph.reversed();
  const CoverHierarchy hierarchy(inst.graph, reversed, *inst.metric, 2,
                                 threads);
  for (std::int32_t level = 0; level < hierarchy.level_count(); ++level) {
    const HierarchyLevel& lvl = hierarchy.level(level);
    for (std::size_t t = 0; t < lvl.trees.size(); ++t) {
      expect_matches_dense_oracle(
          inst.graph, reversed, lvl.trees[t],
          "level " + std::to_string(level) + " tree " + std::to_string(t));
    }
  }
}

// rtz3's ball trees: Ball(v) = { w : r(v,w) < r(v,A) } rooted at v, a
// member shape no cover cluster has.
TEST_P(DoubleTreeOracleTest, EveryBallTreeMatchesTheDenseRuns) {
  const auto [family, threads] = GetParam();
  const Instance inst = make_instance(family, 96, 5, 17);
  const Digraph reversed = inst.graph.reversed();
  Rng rng(23);
  const BallSystem balls = build_ball_system(
      *inst.metric,
      sample_centers(inst.n(), default_center_count(inst.n()), rng), threads);
  DoubleTreeWorkspace ws;
  for (NodeId v = 0; v < inst.n(); ++v) {
    const auto row = balls.ball(v);
    const DoubleTree tree(inst.graph, reversed, v,
                          std::vector<NodeId>(row.begin(), row.end()), ws);
    expect_matches_dense_oracle(inst.graph, reversed, tree,
                                "ball " + std::to_string(v));
  }
}

TEST_P(DoubleTreeOracleTest, SingletonAndFullGraphTreesMatchTheDenseRuns) {
  const auto [family, threads] = GetParam();
  const Instance inst = make_instance(family, 96, 5, 17);
  const Digraph reversed = inst.graph.reversed();
  std::vector<NodeId> all(static_cast<std::size_t>(inst.n()));
  for (NodeId v = 0; v < inst.n(); ++v) all[static_cast<std::size_t>(v)] = v;
  // One workspace serves trees of every size in turn, as a hierarchy worker's
  // does; `threads` only varies which centers are tried.
  DoubleTreeWorkspace ws;
  for (NodeId center = 0; center < inst.n(); center += 17 + threads) {
    const DoubleTree singleton(inst.graph, reversed, center, {center}, ws);
    EXPECT_EQ(singleton.member_count(), 1);
    expect_matches_dense_oracle(inst.graph, reversed, singleton,
                                "singleton " + std::to_string(center));
    const DoubleTree full(inst.graph, reversed, center, all, ws);
    EXPECT_EQ(full.member_count(), inst.n());
    expect_matches_dense_oracle(inst.graph, reversed, full,
                                "full graph " + std::to_string(center));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, DoubleTreeOracleTest,
    ::testing::Combine(::testing::Values(Family::kRandom, Family::kGrid,
                                         Family::kRing, Family::kScaleFree,
                                         Family::kBidirected),
                       ::testing::Values(1, 3)),
    [](const auto& info) {
      std::string name = family_name(std::get<0>(info.param));
      for (auto& c : name) {
        if (c == '+' || c == '-') c = '_';
      }
      return name + "_threads" + std::to_string(std::get<1>(info.param));
    });

TEST(DoubleTreeOracle, UnsortedMembersBuildTheSortedTree) {
  const Instance inst = make_instance(Family::kRandom, 40, 5, 3);
  const Digraph reversed = inst.graph.reversed();
  std::vector<NodeId> members = inst.metric->ball(7, 12);
  ASSERT_GT(members.size(), 2U);
  std::vector<NodeId> reversed_order(members.rbegin(), members.rend());
  const DoubleTree sorted(inst.graph, reversed, 7, members);
  const DoubleTree unsorted(inst.graph, reversed, 7, reversed_order);
  EXPECT_EQ(unsorted.members(), sorted.members());
  expect_matches_dense_oracle(inst.graph, reversed, unsorted, "unsorted");
}

TEST(DoubleTreeOracle, RepeatedOrOutOfRangeMembersAreRejected) {
  const Instance inst = make_instance(Family::kRandom, 20, 3, 4);
  const Digraph reversed = inst.graph.reversed();
  EXPECT_THROW(DoubleTree(inst.graph, reversed, 1, {1, 1}),
               std::invalid_argument);
  EXPECT_THROW(DoubleTree(inst.graph, reversed, 1, {1, 20}),
               std::invalid_argument);
  EXPECT_THROW(DoubleTree(inst.graph, reversed, 1, {-1, 1}),
               std::invalid_argument);
}

TEST(DoubleTreeOracle, WorkspaceIsCleanAfterAFailedBuild) {
  // {0, 3} does not induce a strongly connected subgraph; the throw must
  // leave no member mapped in the shared workspace.
  GraphBuilder b(4);
  b.add_edge(0, 1, 1);
  b.add_edge(1, 0, 1);
  b.add_edge(2, 3, 1);
  b.add_edge(3, 2, 1);
  b.add_edge(1, 2, 1);
  b.add_edge(2, 1, 1);
  const Digraph g = b.freeze();
  const Digraph reversed = g.reversed();
  DoubleTreeWorkspace ws;
  EXPECT_THROW(DoubleTree(g, reversed, 0, {0, 3}, ws), std::invalid_argument);
  EXPECT_EQ(ws.rank, std::vector<NodeId>(4, kNoNode));
  const DoubleTree tree(g, reversed, 0, {0, 1}, ws);
  expect_matches_dense_oracle(g, reversed, tree, "after a failed build");
}

}  // namespace
}  // namespace rtr
