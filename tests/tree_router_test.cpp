#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "graph/dijkstra.h"
#include "graph/generators.h"
#include "io/arena.h"
#include "treeroute/tree_router.h"
#include "util/rng.h"

namespace rtr {
namespace {

// Routes from the tree root to `target` by repeatedly applying the local
// forwarding rule, resolving ports against the graph; returns the weighted
// length, or -1 on any failure.
Dist route_in_tree(const Digraph& g, const TreeRouter& router, NodeId target) {
  TreeLabel label = router.label(target);
  NodeId at = router.root();
  Dist total = 0;
  for (int guard = 0; guard < 2 * g.node_count() + 4; ++guard) {
    Port p = tree_next_port(router.table(at), label);
    if (p == kNoPort) return at == target ? total : -1;
    const Edge* e = g.edge_by_port(at, p);
    if (e == nullptr) return -1;
    total += e->weight;
    at = e->to;
  }
  return -1;
}

class TreeRouterFamilyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreeRouterFamilyTest, RoutesOptimallyToEveryNode) {
  Rng rng(GetParam());
  GraphBuilder b = random_strongly_connected(120, 3.0, 9, rng);
  b.assign_adversarial_ports(rng);
  const Digraph g = b.freeze();
  OutTree tree = dijkstra_out_tree(g, 0);
  TreeRouter router(tree);
  EXPECT_EQ(router.member_count(), 120);
  for (NodeId v = 0; v < 120; ++v) {
    EXPECT_EQ(route_in_tree(g, router, v), tree.dist[static_cast<std::size_t>(v)])
        << "target " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeRouterFamilyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(TreeRouter, LabelSizeLogarithmicLightHops) {
  Rng rng(7);
  GraphBuilder b = random_strongly_connected(500, 3.0, 9, rng);
  b.assign_adversarial_ports(rng);
  const Digraph g = b.freeze();
  TreeRouter router(dijkstra_out_tree(g, 3));
  const double log_n = std::log2(500.0);
  for (NodeId v = 0; v < 500; ++v) {
    EXPECT_LE(static_cast<double>(router.label(v).light_hops.size()), log_n)
        << "heavy-path decomposition bound violated";
  }
}

TEST(TreeRouter, PathGraphHasNoLightHops) {
  // A directed path: every child is the unique (hence heavy) child.
  GraphBuilder b(20);
  for (NodeId i = 0; i + 1 < 20; ++i) b.add_edge(i, i + 1, 1);
  b.add_edge(19, 0, 1);  // close the cycle for variety; tree ignores it
  const Digraph g = b.freeze();
  TreeRouter router(dijkstra_out_tree(g, 0));
  for (NodeId v = 0; v < 20; ++v) {
    EXPECT_TRUE(router.label(v).light_hops.empty());
  }
  EXPECT_EQ(route_in_tree(g, router, 19), 19);
}

TEST(TreeRouter, StarGraphLabelsUseLightEdges) {
  // Star: all but the heaviest child are light.
  GraphBuilder b(10);
  for (NodeId v = 1; v < 10; ++v) {
    b.add_edge(0, v, 1);
    b.add_edge(v, 0, 1);
  }
  const Digraph g = b.freeze();
  TreeRouter router(dijkstra_out_tree(g, 0));
  int light_labels = 0;
  for (NodeId v = 1; v < 10; ++v) {
    light_labels += router.label(v).light_hops.empty() ? 0 : 1;
    EXPECT_EQ(route_in_tree(g, router, v), 1);
  }
  EXPECT_EQ(light_labels, 8);  // exactly one heavy child
}

TEST(TreeRouter, RestrictedTreeSkipsNonMembers) {
  Rng rng(8);
  GraphBuilder b = random_strongly_connected(60, 3.0, 5, rng);
  b.assign_adversarial_ports(rng);
  const Digraph g = b.freeze();
  std::vector<char> mask(60, 0);
  for (NodeId v = 0; v < 30; ++v) mask[static_cast<std::size_t>(v)] = 1;
  OutTree tree = dijkstra_out_tree_within(g, 5, mask);
  TreeRouter router(tree);
  EXPECT_LE(router.member_count(), 30);
  for (NodeId v = 30; v < 60; ++v) EXPECT_FALSE(router.contains(v));
  for (NodeId v : router.members()) {
    EXPECT_EQ(route_in_tree(g, router, v), tree.dist[static_cast<std::size_t>(v)]);
  }
}

TEST(TreeRouter, SingletonTree) {
  GraphBuilder b(3);
  b.add_edge(0, 1, 1);
  b.add_edge(1, 0, 1);
  const Digraph g = b.freeze();
  std::vector<char> mask = {1, 0, 0};
  TreeRouter router(dijkstra_out_tree_within(g, 0, mask));
  EXPECT_EQ(router.member_count(), 1);
  TreeLabel self = router.label(0);
  EXPECT_EQ(tree_next_port(router.table(0), self), kNoPort);
}

TEST(TreeRouter, LabelForNonMemberThrows) {
  GraphBuilder b(3);
  b.add_edge(0, 1, 1);
  b.add_edge(1, 0, 1);
  const Digraph g = b.freeze();
  std::vector<char> mask = {1, 1, 0};
  TreeRouter router(dijkstra_out_tree_within(g, 0, mask));
  EXPECT_THROW(router.label(2), std::invalid_argument);
}

TEST(TreeRouter, CompactTreeOverSparseNodeIds) {
  // Members 10 < 20 < 30 < 40: root 20 with children 10 and 40, and 30
  // under 40.  Ranks follow node order, so the heavy child of 20 is 40
  // (subtree 2) and the first-pushed child 10 is visited last.
  TreeRouter router({10, 20, 30, 40}, {1, kNoNode, 3, 1}, {5, kNoPort, 7, 6});
  EXPECT_EQ(router.root(), 20);
  EXPECT_EQ(router.member_count(), 4);
  for (const NodeId v : {0, 15, 25, 41}) EXPECT_FALSE(router.contains(v));
  EXPECT_EQ(router.rank_of(30), 2);
  EXPECT_EQ(router.table(20).dfs_in, 0);
  EXPECT_EQ(router.table(20).heavy_port, 6);
  EXPECT_EQ(router.table(40).dfs_in, 1);
  EXPECT_EQ(router.table(30).dfs_in, 2);
  EXPECT_EQ(router.table(10).dfs_in, 3);
  EXPECT_EQ(router.label(10).light_hops, (LightHops{{0, 5}}));
  EXPECT_TRUE(router.label(30).light_hops.empty());
  EXPECT_THROW((void)router.table(15), std::invalid_argument);
}

TEST(TreeRouter, CompactTreeRejectsMalformedInput) {
  // Sizes disagree.
  EXPECT_THROW(TreeRouter({0, 1}, {kNoNode}, {kNoPort, 1}),
               std::invalid_argument);
  // Members not strictly ascending.
  EXPECT_THROW(TreeRouter({1, 0}, {kNoNode, 0}, {kNoPort, 1}),
               std::invalid_argument);
  EXPECT_THROW(TreeRouter({1, 1}, {kNoNode, 0}, {kNoPort, 1}),
               std::invalid_argument);
  // Two roots, no root, a parent rank out of range, a cycle off the root.
  EXPECT_THROW(TreeRouter({0, 1}, {kNoNode, kNoNode}, {kNoPort, kNoPort}),
               std::invalid_argument);
  EXPECT_THROW(TreeRouter({0, 1}, {1, 0}, {1, 1}), std::invalid_argument);
  EXPECT_THROW(TreeRouter({0, 1}, {kNoNode, 2}, {kNoPort, 1}),
               std::invalid_argument);
  EXPECT_THROW(TreeRouter({0, 1, 2}, {kNoNode, 2, 1}, {kNoPort, 1, 1}),
               std::invalid_argument);
}

TEST(TreeRouter, OffPathLeafThrows) {
  // Deliver at a leaf that is not the target: defensive logic_error.
  GraphBuilder b(3);
  b.add_edge(0, 1, 1);
  b.add_edge(0, 2, 1);
  b.add_edge(1, 0, 1);
  b.add_edge(2, 0, 1);
  const Digraph g = b.freeze();
  TreeRouter router(dijkstra_out_tree(g, 0));
  TreeLabel to_1 = router.label(1);
  // Node 2 is a leaf not on the path to 1.
  EXPECT_THROW((void)tree_next_port(router.table(2), to_1), std::logic_error);
}

TEST(TreeRouter, LabelBitsAccounting) {
  TreeLabel label;
  label.dfs_in = 5;
  label.light_hops = {{1, 2}, {3, 4}};
  // 2 * id (dfs + length) + 2 hops * (id + port).
  EXPECT_EQ(tree_label_bits(label, 256, 1024), 8 + 8 + 2 * (8 + 10));
}

// ------------------------------------------------- LightHops small buffer --

TEST(LightHops, SequenceSemanticsAcrossTheSpillBoundary) {
  LightHops hops;
  EXPECT_TRUE(hops.empty());
  // Fill well past the inline capacity; the sequence must stay contiguous
  // and ordered through the spill.
  const std::size_t count = 3 * LightHops::kInlineCapacity + 1;
  for (std::size_t i = 0; i < count; ++i) {
    hops.emplace_back(static_cast<std::int32_t>(i),
                      static_cast<Port>(100 + i));
  }
  ASSERT_EQ(hops.size(), count);
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(hops[i].first, static_cast<std::int32_t>(i));
    EXPECT_EQ(hops[i].second, static_cast<Port>(100 + i));
  }
  // std::reverse over the pointer iterators (the label builder relies on it).
  std::reverse(hops.begin(), hops.end());
  EXPECT_EQ(hops[0].first, static_cast<std::int32_t>(count - 1));
  EXPECT_EQ(hops[count - 1].first, 0);
  // Copy and move preserve contents; equality is element-wise.
  LightHops copy = hops;
  EXPECT_EQ(copy, hops);
  LightHops moved = std::move(copy);
  EXPECT_EQ(moved, hops);
  // clear() returns to the inline representation and is reusable.
  hops.clear();
  EXPECT_TRUE(hops.empty());
  hops.emplace_back(7, 8);
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0], std::make_pair(std::int32_t{7}, Port{8}));
}

TEST(LightHops, SnapshotWireFormatIsPinned) {
  // The small-buffer LightHops is a storage change only: packed into arena
  // sections, labels are an i32 dfs array, i32 hop offsets (count + 1), and
  // (i32 tail_dfs, i32 port) hop pairs, all LE.
  TreeLabel label;
  label.dfs_in = 5;
  label.light_hops = {{1, 2}, {3, 4}};
  TreeLabel leaf;
  leaf.dfs_in = 7;
  ArenaWriter w;
  PackedLabels<std::int32_t>({label, leaf}).save_arena(w, "l/");
  const ArenaView view(make_owned_arena(w.finalize("labels", 0, 0)));
  const auto section = [&view](const std::string& name) {
    const ArenaDirEntry& e = view.entry(name);
    const std::uint8_t* p = view.storage()->data() + e.offset;
    return std::vector<std::uint8_t>(p, p + e.byte_size());
  };
  EXPECT_EQ(section("l/dfs"),
            (std::vector<std::uint8_t>{5, 0, 0, 0, 7, 0, 0, 0}));
  EXPECT_EQ(section("l/hop_off"),
            (std::vector<std::uint8_t>{0, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0}));
  EXPECT_EQ(section("l/hops"),
            (std::vector<std::uint8_t>{1, 0, 0, 0, 2, 0, 0, 0,    // hop (1, 2)
                                       3, 0, 0, 0, 4, 0, 0, 0}));  // hop (3, 4)
  const auto back = PackedLabels<std::int32_t>::from_arena(view, "l/", 2);
  EXPECT_EQ(back.at(0).dfs_in, label.dfs_in);
  EXPECT_EQ(back.at(0).light_hops, label.light_hops);
  EXPECT_EQ(back.at(1).dfs_in, leaf.dfs_in);
  EXPECT_TRUE(back.at(1).light_hops.empty());
}

TEST(LightHops, DeepTreeLabelsSpillAndStillRouteAndRoundtrip) {
  // A complete binary tree of depth 12: every internal node has one heavy
  // and one light child, so the leaf reached by always taking light edges
  // carries 11 light hops -- past the inline capacity.  Routes, label bits,
  // and snapshot bytes must be unaffected by the spill.
  constexpr NodeId n = (1 << 12) - 1;
  GraphBuilder b(n);
  for (NodeId v = 0; v < n; ++v) {
    for (const NodeId c : {2 * v + 1, 2 * v + 2}) {
      if (c < n) {
        b.add_edge(v, c, 1);
        b.add_edge(c, v, 1);
      }
    }
  }
  const Digraph g = b.freeze();
  OutTree tree = dijkstra_out_tree(g, 0);
  TreeRouter router(tree);

  std::size_t max_hops = 0;
  NodeId deepest = 0;
  for (NodeId v = 0; v < n; ++v) {
    const TreeLabel label = router.label(v);
    if (label.light_hops.size() > max_hops) {
      max_hops = label.light_hops.size();
      deepest = v;
    }
  }
  ASSERT_GT(max_hops, LightHops::kInlineCapacity)
      << "test graph too shallow to exercise the spill path";

  // Routing to spilled-label targets walks the same tree paths.
  for (const NodeId target : {deepest, static_cast<NodeId>(n - 1)}) {
    EXPECT_EQ(route_in_tree(g, router, target),
              tree.dist[static_cast<std::size_t>(target)]);
  }

  // Pack -> view -> repack is byte-identical with spilled labels in play.
  const TreeLabel deep_label = router.label(deepest);
  const auto packed_bytes = [](const TreeLabel& l) {
    ArenaWriter w;
    PackedLabels<std::int32_t>({l}).save_arena(w, "l/");
    return w.finalize("labels", 0, 0);
  };
  const std::vector<std::uint8_t> bytes = packed_bytes(deep_label);
  const TreeLabel loaded =
      PackedLabels<std::int32_t>::from_arena(
          ArenaView(make_owned_arena(bytes)), "l/", 1)
          .at(0);
  EXPECT_EQ(loaded.light_hops, deep_label.light_hops);
  EXPECT_EQ(packed_bytes(loaded), bytes);
  EXPECT_EQ(tree_label_bits(loaded, n, 4 * n),
            tree_label_bits(deep_label, n, 4 * n));
}

}  // namespace
}  // namespace rtr
