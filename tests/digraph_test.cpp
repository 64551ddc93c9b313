#include <gtest/gtest.h>

#include <chrono>
#include <set>

#include "graph/digraph.h"
#include "util/rng.h"

namespace rtr {
namespace {

TEST(GraphBuilder, AddAndQueryEdges) {
  GraphBuilder b(3);
  b.add_edge(0, 1, 5);
  b.add_edge(1, 2, 7);
  EXPECT_EQ(b.node_count(), 3);
  EXPECT_EQ(b.edge_count(), 2);
  const Digraph g = b.freeze();
  EXPECT_EQ(g.node_count(), 3);
  EXPECT_EQ(g.edge_count(), 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_EQ(g.out_degree(0), 1);
  EXPECT_EQ(g.out_degree(2), 0);
}

TEST(GraphBuilder, RejectsBadEdges) {
  GraphBuilder g(3);
  EXPECT_THROW(g.add_edge(0, 0, 1), std::invalid_argument);  // self loop
  EXPECT_THROW(g.add_edge(0, 1, 0), std::invalid_argument);  // weight < 1
  EXPECT_THROW(g.add_edge(0, 3, 1), std::out_of_range);
  EXPECT_THROW(g.add_edge(-1, 1, 1), std::out_of_range);
}

TEST(GraphBuilder, FreezeRejectsParallelEdges) {
  GraphBuilder g(3);
  g.add_edge(0, 1, 1);
  g.add_edge(0, 1, 2);  // builder accepts; freeze validates
  EXPECT_THROW((void)g.freeze(), std::invalid_argument);
}

TEST(Digraph, SequentialPortsResolve) {
  GraphBuilder b(4);
  b.add_edge(0, 1, 1);
  b.add_edge(0, 2, 1);
  b.add_edge(0, 3, 1);
  const Digraph g = b.freeze();
  const Edge* e = g.edge_by_port(0, 1);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->to, 2);
  EXPECT_EQ(g.edge_by_port(0, 99), nullptr);
}

TEST(Digraph, AdversarialPortsAreUniquePerNodeAndResolve) {
  Rng rng(5);
  GraphBuilder b(50);
  for (NodeId i = 0; i < 50; ++i) {
    b.add_edge(i, (i + 1) % 50, 1);
    b.add_edge(i, (i + 7) % 50, 2);
  }
  b.assign_adversarial_ports(rng);
  const Digraph g = b.freeze();
  for (NodeId u = 0; u < 50; ++u) {
    std::set<Port> ports;
    for (const Edge& e : g.out_edges(u)) {
      EXPECT_GE(e.port, 0);
      EXPECT_LT(e.port, g.port_space());
      EXPECT_TRUE(ports.insert(e.port).second) << "duplicate port at " << u;
      // The indexed lookup resolves a present port to exactly its edge.
      EXPECT_EQ(g.edge_by_port(u, e.port), &e);
    }
    // Every other port in the space is absent at u.
    for (Port p = 0; p < g.port_space(); ++p) {
      if (ports.count(p) == 0) {
        EXPECT_EQ(g.edge_by_port(u, p), nullptr) << "port " << p << " at " << u;
      }
    }
  }
}

TEST(Digraph, PortOfEdgeMatchesEdgeByPort) {
  Rng rng(6);
  GraphBuilder b(10);
  b.add_edge(3, 7, 2);
  b.assign_adversarial_ports(rng);
  const Digraph g = b.freeze();
  Port p = g.port_of_edge(3, 7);
  ASSERT_NE(p, kNoPort);
  EXPECT_EQ(g.edge_by_port(3, p)->to, 7);
  EXPECT_EQ(g.port_of_edge(3, 4), kNoPort);
}

TEST(Digraph, ReversedFlipsEdges) {
  GraphBuilder b(3);
  b.add_edge(0, 1, 5);
  b.add_edge(1, 2, 7);
  const Digraph g = b.freeze();
  Digraph r = g.reversed();
  EXPECT_TRUE(r.has_edge(1, 0));
  EXPECT_TRUE(r.has_edge(2, 1));
  EXPECT_FALSE(r.has_edge(0, 1));
  EXPECT_EQ(r.edge_count(), 2);
}

TEST(Digraph, MaxWeight) {
  GraphBuilder b(3);
  EXPECT_EQ(b.freeze().max_weight(), 1);  // no edges
  b.add_edge(0, 1, 41);
  b.add_edge(1, 2, 7);
  EXPECT_EQ(b.freeze().max_weight(), 41);
}

TEST(Digraph, ThawFreezeRoundTripPreservesRowsAndPorts) {
  Rng rng(7);
  GraphBuilder b(30);
  for (NodeId i = 0; i < 30; ++i) {
    b.add_edge(i, (i + 1) % 30, 1 + i % 4);
    b.add_edge(i, (i + 11) % 30, 2);
  }
  b.assign_adversarial_ports(rng);
  const Digraph g = b.freeze();
  const Digraph again = GraphBuilder(g).freeze();
  ASSERT_EQ(again.node_count(), g.node_count());
  ASSERT_EQ(again.edge_count(), g.edge_count());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const auto row = g.out_edges(u);
    const auto row2 = again.out_edges(u);
    ASSERT_EQ(row.size(), row2.size());
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(row[i].to, row2[i].to);
      EXPECT_EQ(row[i].weight, row2[i].weight);
      EXPECT_EQ(row[i].port, row2[i].port);
    }
  }
}

TEST(GraphBuilder, AddEdgeAfterThawNeverCollidesWithInheritedPorts) {
  // Adversarial ports are sparse in [0, 4n); sequential add_edge labels on a
  // thawed builder must continue past them, not restart at the row size.
  Rng rng(9);
  GraphBuilder b(12);
  for (NodeId i = 0; i < 12; ++i) b.add_edge(i, (i + 1) % 12, 1);
  b.assign_adversarial_ports(rng);
  const Digraph g = b.freeze();
  GraphBuilder thawed(g);
  for (NodeId i = 0; i < 12; ++i) thawed.add_edge(i, (i + 5) % 12, 2);
  const Digraph again = thawed.freeze();  // throws on a port collision
  for (NodeId u = 0; u < again.node_count(); ++u) {
    std::set<Port> ports;
    for (const Edge& e : again.out_edges(u)) {
      EXPECT_TRUE(ports.insert(e.port).second) << "duplicate port at " << u;
    }
    // Inherited ports are untouched.
    for (const Edge& e : g.out_edges(u)) {
      EXPECT_EQ(again.port_of_edge(u, e.to), e.port);
    }
  }
}

TEST(GraphBuilder, AddEdgeStaysInsidePortSpaceAfterMaxPort) {
  // A row already holding the namespace's top label (possible on a thawed
  // adversarial graph) must not push sequential labels past port_space():
  // add_edge falls back to the smallest unused label.
  GraphBuilder b(3);  // port_space = 12
  b.add_edges_with_ports(0, {Edge{1, 11, 1}});
  b.add_edge(0, 2, 1);
  const Digraph g = b.freeze();
  for (const Edge& e : g.out_edges(0)) {
    EXPECT_GE(e.port, 0);
    EXPECT_LT(e.port, g.port_space());
  }
  EXPECT_EQ(g.port_of_edge(0, 1), 11);
  EXPECT_EQ(g.port_of_edge(0, 2), 0);
}

TEST(Digraph, FlatArcsMirrorTheEdgeRows) {
  Rng rng(8);
  GraphBuilder b(20);
  for (NodeId i = 0; i < 20; ++i) b.add_edge(i, (i + 3) % 20, 1 + i % 5);
  b.assign_adversarial_ports(rng);
  const Digraph g = b.freeze();
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const auto row = g.out_edges(u);
    ASSERT_EQ(g.arcs_end(u) - g.arcs_begin(u),
              static_cast<std::int64_t>(row.size()));
    for (std::int64_t i = g.arcs_begin(u); i < g.arcs_end(u); ++i) {
      const auto k = static_cast<std::size_t>(i - g.arcs_begin(u));
      EXPECT_EQ(g.arc_head(i), row[k].to);
      EXPECT_EQ(g.arc_weight(i), row[k].weight);
    }
  }
}

// The degree-skewed regression guard for the satellite "has_edge /
// port_of_edge / edge_by_port must stay sublinear": on a star whose hub
// degree grows 16x, the per-lookup cost of the O(log d) resolution tables
// grows ~1.2x while the retained linear scan grows ~16x.  Comparing the two
// growth RATIOS (not absolute times) keeps the test meaningful on any
// hardware and under sanitizers; the margin between log-growth (~1.2x) and
// linear growth (~16x) is wide enough that even noisy timers separate them.
TEST(Digraph, PortResolutionStaysSublinearInDegree) {
  const auto build_star = [](NodeId leaves) {
    Rng rng(42);
    GraphBuilder b(leaves + 1);
    for (NodeId v = 1; v <= leaves; ++v) b.add_edge(0, v, 1);
    b.assign_adversarial_ports(rng);
    return b.freeze();
  };
  const auto probe_ns = [](const Digraph& g) {
    // Resolve every hub port several times; report ns per lookup.
    std::vector<Port> ports;
    for (const Edge& e : g.out_edges(0)) ports.push_back(e.port);
    std::int64_t lookups = 0;
    std::int64_t sink = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int rep = 0; rep < 6; ++rep) {
      for (const Port p : ports) {
        sink += g.edge_by_port(0, p)->to;
        sink += g.port_of_edge(0, g.edge_by_port(0, p)->to);
        sink += g.has_edge(0, static_cast<NodeId>(1 + (p % (g.node_count() - 1))))
                    ? 1
                    : 0;
        lookups += 3;
      }
    }
    const double ns =
        std::chrono::duration<double, std::nano>(
            std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_NE(sink, -1);  // keep the loop observable
    return ns / static_cast<double>(lookups);
  };
  const Digraph small = build_star(512);
  const Digraph big = build_star(512 * 16);
  // log2(8192)/log2(512) = 1.44 in comparisons; linear would be >= 16x in
  // time (and worse once the 8192-entry rows stop fitting in cache).  The
  // cache penalty cuts the other way too -- the log-cost path measures ~8x
  // on small-cache hosts -- so gate at 12x, which still cleanly separates
  // the regimes, and re-measure up to 3 times (best-of-3 per attempt,
  // passing on any clean one) to shed ctest -j scheduler noise.
  double small_ns = 0, big_ns = 0;
  bool sublinear = false;
  for (int attempt = 0; attempt < 3 && !sublinear; ++attempt) {
    small_ns = probe_ns(small), big_ns = probe_ns(big);
    for (int i = 0; i < 2; ++i) {
      small_ns = std::min(small_ns, probe_ns(small));
      big_ns = std::min(big_ns, probe_ns(big));
    }
    sublinear = big_ns < small_ns * 12.0;
  }
  EXPECT_TRUE(sublinear)
      << "per-lookup cost grew ~linearly with degree (small=" << small_ns
      << "ns, big=" << big_ns << "ns)";
}

}  // namespace
}  // namespace rtr
