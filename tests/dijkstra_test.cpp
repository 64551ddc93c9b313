#include <gtest/gtest.h>

#include <algorithm>

#include "graph/apsp.h"
#include "graph/dijkstra.h"
#include "graph/generators.h"
#include "test_support.h"
#include "util/rng.h"

namespace rtr {
namespace {

GraphBuilder diamond_builder() {
  // 0 -> 1 -> 3, 0 -> 2 -> 3, 3 -> 0; the 0->2->3 route is cheaper.
  GraphBuilder g(4);
  g.add_edge(0, 1, 10);
  g.add_edge(1, 3, 10);
  g.add_edge(0, 2, 3);
  g.add_edge(2, 3, 4);
  g.add_edge(3, 0, 1);
  return g;
}

Digraph diamond() { return diamond_builder().freeze(); }

TEST(Dijkstra, DistancesOnDiamond) {
  auto d = dijkstra_distances(diamond(), 0);
  EXPECT_EQ(d[0], 0);
  EXPECT_EQ(d[1], 10);
  EXPECT_EQ(d[2], 3);
  EXPECT_EQ(d[3], 7);
}

TEST(Dijkstra, OutTreeParentsFollowShortestPaths) {
  OutTree t = dijkstra_out_tree(diamond(), 0);
  EXPECT_EQ(t.parent[3], 2);  // via the cheap branch
  EXPECT_EQ(t.parent[2], 0);
  EXPECT_EQ(t.parent[0], kNoNode);
  auto path = out_tree_path(t, 3);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, (std::vector<NodeId>{0, 2, 3}));
}

TEST(Dijkstra, OutTreePortsMatchGraphEdges) {
  Rng rng(3);
  GraphBuilder b = diamond_builder();
  b.assign_adversarial_ports(rng);
  const Digraph g = b.freeze();
  OutTree t = dijkstra_out_tree(g, 0);
  for (NodeId v = 1; v < 4; ++v) {
    const Edge* e = g.edge_by_port(t.parent[static_cast<std::size_t>(v)],
                                   t.parent_port[static_cast<std::size_t>(v)]);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->to, v);
  }
}

TEST(Dijkstra, InTreeNextHopsReachRootWithExactDistance) {
  Rng rng(4);
  GraphBuilder b = random_strongly_connected(60, 3.0, 9, rng);
  b.assign_adversarial_ports(rng);
  const Digraph g = b.freeze();
  Digraph rev = g.reversed();
  InTree t = dijkstra_in_tree(g, rev, 7);
  for (NodeId v = 0; v < 60; ++v) {
    if (v == 7) {
      EXPECT_EQ(t.next[7], kNoNode);
      continue;
    }
    // Walk the next pointers; sum of weights must equal dist.
    Dist walked = 0;
    NodeId at = v;
    int guard = 0;
    while (at != 7 && guard++ < 100) {
      const Edge* e = g.edge_by_port(at, t.next_port[static_cast<std::size_t>(at)]);
      ASSERT_NE(e, nullptr);
      EXPECT_EQ(e->to, t.next[static_cast<std::size_t>(at)]);
      walked += e->weight;
      at = e->to;
    }
    EXPECT_EQ(at, 7);
    EXPECT_EQ(walked, t.dist[static_cast<std::size_t>(v)]);
  }
}

TEST(Dijkstra, RestrictedTreeIgnoresOutsiders) {
  // Path 0 <-> 1 <-> 2, plus a shortcut 0 -> 3 -> 2 that is cheaper but
  // goes through a non-member.
  GraphBuilder b(4);
  b.add_edge(0, 1, 5);
  b.add_edge(1, 0, 5);
  b.add_edge(1, 2, 5);
  b.add_edge(2, 1, 5);
  b.add_edge(0, 3, 1);
  b.add_edge(3, 2, 1);
  const Digraph g = b.freeze();
  std::vector<char> mask = {1, 1, 1, 0};
  OutTree t = dijkstra_out_tree_within(g, 0, mask);
  EXPECT_EQ(t.dist[2], 10);  // must take the member-only route
  EXPECT_EQ(t.dist[3], kInfDist);
  OutTree full = dijkstra_out_tree(g, 0);
  EXPECT_EQ(full.dist[2], 2);
}

TEST(Dijkstra, RestrictedSourceMustBeMember) {
  GraphBuilder b(2);
  b.add_edge(0, 1, 1);
  b.add_edge(1, 0, 1);
  const Digraph g = b.freeze();
  std::vector<char> mask = {0, 1};
  EXPECT_THROW(dijkstra_out_tree_within(g, 0, mask), std::invalid_argument);
}

// The arena fast paths (workspace reuse, the frozen graph's flat-arc CSR,
// Dial bucket queue) must return bit-identical distances to the seed
// implementation, preserved as dijkstra_distances_reference, on every
// generator family.
TEST(Dijkstra, ArenaPathsBitIdenticalToReferenceOnAllFamilies) {
  for (const Family family : all_families()) {
    Rng rng(17 + static_cast<std::uint64_t>(family));
    const Digraph g = make_family(family, 72, 9, rng).freeze();
    DijkstraWorkspace ws;  // one workspace across sources: reuse is the point
    std::vector<Dist> row(static_cast<std::size_t>(g.node_count()));
    for (NodeId src = 0; src < g.node_count(); src += 7) {
      const std::vector<Dist> ref = dijkstra_distances_reference(g, src);
      EXPECT_EQ(dijkstra_distances(g, src), ref) << family_name(family);
      dijkstra_distances_into(g, src, ws);
      EXPECT_EQ(ws.dist, ref) << family_name(family);
      dijkstra_distances_into(g, src, ws, row);
      EXPECT_EQ(row, ref) << family_name(family) << " (dial)";
    }
  }
}

TEST(Dijkstra, ArenaPathFallsBackToHeapOnHugeWeightsBitIdentically) {
  // Weights above the Dial threshold exercise the binary-heap branch of the
  // flat-arc runner; distances must still match the reference.
  Rng rng(5);
  const Digraph g = random_strongly_connected(60, 3.0, 100000, rng).freeze();
  ASSERT_GT(g.max_weight(), 64);
  DijkstraWorkspace ws;
  std::vector<Dist> row(static_cast<std::size_t>(g.node_count()));
  for (NodeId src = 0; src < g.node_count(); ++src) {
    dijkstra_distances_into(g, src, ws, row);
    EXPECT_EQ(row, dijkstra_distances_reference(g, src));
  }
}

TEST(Dijkstra, BoundedRunMatchesFullRunWithinLimit) {
  // The bounded runner must report exactly the nodes within the limit, with
  // exact global distances, and stay correct across reused workspaces.
  for (const Family family : all_families()) {
    Rng rng(23 + static_cast<std::uint64_t>(family));
    const Digraph g = make_family(family, 72, 9, rng).freeze();
    BoundedDijkstraWorkspace ws;  // reused across sources and limits
    std::vector<BoundedReach> reach;
    for (NodeId src = 0; src < g.node_count(); src += 5) {
      const std::vector<Dist> full = dijkstra_distances_reference(g, src);
      Dist max_finite = 0;
      for (const Dist d : full) {
        if (d != kInfDist) max_finite = std::max(max_finite, d);
      }
      for (const Dist limit : {Dist{0}, Dist{3}, max_finite / 2, max_finite}) {
        reach.clear();  // the runner appends by contract
        dijkstra_bounded(g, src, limit, ws, reach);
        std::vector<char> seen(static_cast<std::size_t>(g.node_count()), 0);
        for (const BoundedReach& r : reach) {
          EXPECT_EQ(r.dist, full[static_cast<std::size_t>(r.node)])
              << family_name(family) << " src=" << src << " limit=" << limit;
          EXPECT_LE(r.dist, limit);
          seen[static_cast<std::size_t>(r.node)] = 1;
        }
        for (NodeId v = 0; v < g.node_count(); ++v) {
          const bool within =
              full[static_cast<std::size_t>(v)] != kInfDist &&
              full[static_cast<std::size_t>(v)] <= limit;
          EXPECT_EQ(static_cast<bool>(seen[static_cast<std::size_t>(v)]),
                    within)
              << family_name(family) << " src=" << src << " limit=" << limit
              << " v=" << v;
        }
      }
    }
  }
}

TEST(Dijkstra, RoundtripBallBoundedMatchesReferenceBalls) {
  // The tandem pruned search must report exactly { u : r(src,u) <= budget },
  // each exactly once with exact one-way distances, across families, budgets,
  // and a reused (epoch-stamped) workspace.
  for (const Family family : all_families()) {
    Rng rng(41 + static_cast<std::uint64_t>(family));
    const Digraph g = make_family(family, 72, 9, rng).freeze();
    const Digraph rev = g.reversed();
    RoundtripBallWorkspace ws;  // reused across sources and budgets
    std::vector<RoundtripReach> ball;
    for (NodeId src = 0; src < g.node_count(); src += 7) {
      const std::vector<Dist> fwd = dijkstra_distances_reference(g, src);
      const std::vector<Dist> bwd = dijkstra_distances_reference(rev, src);
      Dist max_rt = 0;
      for (NodeId v = 0; v < g.node_count(); ++v) {
        const auto vz = static_cast<std::size_t>(v);
        if (fwd[vz] != kInfDist && bwd[vz] != kInfDist) {
          max_rt = std::max(max_rt, fwd[vz] + bwd[vz]);
        }
      }
      for (const Dist budget :
           {Dist{-1}, Dist{0}, Dist{5}, max_rt / 4, max_rt / 2, max_rt}) {
        ball.clear();  // the runner appends by contract
        roundtrip_ball_bounded(g, rev, src, budget, ws, ball);
        std::vector<char> seen(static_cast<std::size_t>(g.node_count()), 0);
        for (const RoundtripReach& m : ball) {
          const auto mz = static_cast<std::size_t>(m.node);
          EXPECT_EQ(seen[mz], 0) << "duplicate member " << m.node;
          seen[mz] = 1;
          EXPECT_EQ(m.d_out, fwd[mz])
              << family_name(family) << " src=" << src << " budget=" << budget;
          EXPECT_EQ(m.d_in, bwd[mz])
              << family_name(family) << " src=" << src << " budget=" << budget;
          EXPECT_LE(m.d_out + m.d_in, budget);
        }
        for (NodeId v = 0; v < g.node_count(); ++v) {
          const auto vz = static_cast<std::size_t>(v);
          const bool member = fwd[vz] != kInfDist && bwd[vz] != kInfDist &&
                              fwd[vz] + bwd[vz] <= budget;
          EXPECT_EQ(static_cast<bool>(seen[vz]), member)
              << family_name(family) << " src=" << src << " budget=" << budget
              << " v=" << v;
        }
      }
    }
  }
}

TEST(Dijkstra, DialBudgetFallsBackOnWideWeightHighDiameterGraphs) {
  // Regression: a large weighted ring passes the Dial weight cap (weights
  // <= 64) but its empty-bucket scan is ~n * max_weight probes -- the
  // explicit scan budget must route it to the binary heap.  Distances stay
  // bit-identical either way; the budget check itself is pinned below.
  constexpr NodeId n = 20000;
  GraphBuilder b(n);
  Rng rng(7);
  for (NodeId v = 0; v < n; ++v) {
    const auto w = static_cast<Weight>(1 + rng.index(64));
    b.add_edge(v, (v + 1) % n, w);
    b.add_edge((v + 1) % n, v, w);
  }
  const Digraph g = b.freeze();
  ASSERT_LE(g.max_weight(), 64);
  // scan ~ max_weight * n greatly exceeds 8 * (m + n): heap path.
  ASSERT_GT(static_cast<std::int64_t>(g.max_weight()) * n,
            8 * (g.edge_count() + static_cast<std::int64_t>(n)));
  DijkstraWorkspace ws;
  std::vector<Dist> row(static_cast<std::size_t>(n));
  for (const NodeId src : {NodeId{0}, NodeId{n / 2}, NodeId{n - 1}}) {
    dijkstra_distances_into(g, src, ws, row);
    EXPECT_EQ(row, dijkstra_distances_reference(g, src)) << "src=" << src;
  }
  // A dense-enough graph with the same weight range stays within budget
  // (Dial path) and must agree with the reference too.
  Rng rng2(9);
  const Digraph dense = random_strongly_connected(256, 16.0, 12, rng2).freeze();
  ASSERT_LE(static_cast<std::int64_t>(dense.max_weight()) *
                static_cast<std::int64_t>(dense.node_count()),
            8 * (dense.edge_count() +
                 static_cast<std::int64_t>(dense.node_count())));
  std::vector<Dist> dense_row(static_cast<std::size_t>(dense.node_count()));
  for (NodeId src = 0; src < dense.node_count(); src += 50) {
    dijkstra_distances_into(dense, src, ws, dense_row);
    EXPECT_EQ(dense_row, dijkstra_distances_reference(dense, src))
        << "dense src=" << src;
  }
}

TEST(Dijkstra, WorkspaceTreesMatchTheSeedTreeShapes) {
  // Tree runs share the workspace heap buffer but must keep the seed's exact
  // tie-breaks (parents included), since routing tables are built from them.
  Rng rng(11);
  GraphBuilder b = random_strongly_connected(80, 3.0, 7, rng);
  b.assign_adversarial_ports(rng);
  const Digraph g = b.freeze();
  const Digraph rev = g.reversed();
  DijkstraWorkspace ws;
  for (NodeId root : {0, 13, 42}) {
    const OutTree fresh_out = dijkstra_out_tree(g, root);
    const OutTree ws_out = dijkstra_out_tree(g, root, ws);
    EXPECT_EQ(ws_out.dist, fresh_out.dist);
    EXPECT_EQ(ws_out.parent, fresh_out.parent);
    EXPECT_EQ(ws_out.parent_port, fresh_out.parent_port);
    const InTree fresh_in = dijkstra_in_tree(g, rev, root);
    const InTree ws_in = dijkstra_in_tree(g, rev, root, ws);
    EXPECT_EQ(ws_in.dist, fresh_in.dist);
    EXPECT_EQ(ws_in.next, fresh_in.next);
    EXPECT_EQ(ws_in.next_port, fresh_in.next_port);
  }
}

TEST(Apsp, MatchesFloydWarshallOnRandomGraphs) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    const Digraph g = random_strongly_connected(40, 3.0, 12, rng).freeze();
    DistMatrix a = all_pairs_shortest_paths(g);
    DistMatrix b = floyd_warshall(g);
    for (NodeId u = 0; u < 40; ++u) {
      for (NodeId v = 0; v < 40; ++v) {
        EXPECT_EQ(a.at(u, v), b.at(u, v)) << "pair " << u << "," << v;
      }
    }
  }
}

TEST(Apsp, UnreachablePairsAreInfinite) {
  GraphBuilder b(3);
  b.add_edge(0, 1, 1);
  const Digraph g = b.freeze();
  DistMatrix m = all_pairs_shortest_paths(g);
  EXPECT_EQ(m.at(0, 1), 1);
  EXPECT_EQ(m.at(1, 0), kInfDist);
  EXPECT_EQ(m.at(2, 0), kInfDist);
  EXPECT_EQ(m.at(2, 2), 0);
}

// Every APSP row must be bit-identical to the reference Dijkstra for every
// thread count (rows are independent; each row is computed by the same
// routine no matter which worker claims it).  This test also runs under the
// TSAN CI job, which checks the pool's synchronization (ticket + join) for
// races.
TEST(ApspParallel, BitIdenticalToReferenceForAnyThreadCount) {
  for (const Family family : {Family::kRandom, Family::kRing}) {
    Rng rng(23 + static_cast<std::uint64_t>(family));
    const Digraph g = make_family(family, 96, 6, rng).freeze();
    for (const int threads : {1, 2, 3, 8, 64}) {
      const DistMatrix parallel = all_pairs_shortest_paths(g, threads);
      ASSERT_EQ(parallel.size(), g.node_count());
      for (NodeId u = 0; u < g.node_count(); ++u) {
        const std::vector<Dist> ref = dijkstra_distances_reference(g, u);
        const auto prow = parallel.row(u);
        ASSERT_TRUE(std::equal(ref.begin(), ref.end(), prow.begin()))
            << family_name(family) << " threads=" << threads << " row " << u;
      }
    }
  }
}

TEST(ApspParallel, MoreThreadsThanSourcesIsFine) {
  Rng rng(29);
  const Digraph g = ring_with_chords(5, 0, 1, rng).freeze();
  const DistMatrix wide = all_pairs_shortest_paths(g, 64);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const std::vector<Dist> ref = dijkstra_distances_reference(g, u);
    const auto wrow = wide.row(u);
    EXPECT_TRUE(std::equal(ref.begin(), ref.end(), wrow.begin()));
  }
}

TEST(ApspParallel, DefaultThreadsAreConfigurable) {
  set_default_apsp_threads(3);
  EXPECT_EQ(resolve_apsp_threads(0), 3);
  EXPECT_EQ(resolve_apsp_threads(5), 5);
  set_default_apsp_threads(0);
  EXPECT_GE(resolve_apsp_threads(0), 1);
}

TEST(Apsp, AsymmetryOnOneWayRing) {
  Rng rng(5);
  const Digraph g = ring_with_chords(10, 0, 1, rng).freeze();
  DistMatrix m = all_pairs_shortest_paths(g);
  // Going "forward" one step costs w(0,1); going back costs the rest of the
  // ring.  With unit weights d(0,1)=1 and d(1,0)=9.
  EXPECT_EQ(m.at(0, 1), 1);
  EXPECT_EQ(m.at(1, 0), 9);
}

}  // namespace
}  // namespace rtr
