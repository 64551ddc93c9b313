// churn_step contract: every epoch is strongly connected, keeps the node id
// set (name stability by construction), and actually changes the things it
// claims to change -- edges, weights, ports.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <tuple>
#include <vector>

#include "graph/churn.h"
#include "graph/generators.h"
#include "graph/scc.h"
#include "io/arena.h"
#include "test_support.h"

namespace rtr {
namespace {

std::multiset<std::tuple<NodeId, NodeId, Weight>> edge_multiset(
    const Digraph& g) {
  std::multiset<std::tuple<NodeId, NodeId, Weight>> edges;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (const Edge& e : g.out_edges(u)) edges.insert({u, e.to, e.weight});
  }
  return edges;
}

TEST(Churn, EveryEpochIsStronglyConnectedWithTheSameNodeSet) {
  Rng rng(31);
  Digraph g = random_strongly_connected(80, 4.0, 6, rng).freeze();
  ChurnOptions opt;
  opt.rehome_nodes = 4;
  for (int epoch = 0; epoch < 6; ++epoch) {
    g = churn_step(g, opt, rng);
    EXPECT_EQ(g.node_count(), 80);
    EXPECT_TRUE(is_strongly_connected(g)) << "epoch " << epoch;
  }
}

TEST(Churn, TopologyActuallyChanges) {
  Rng rng(32);
  Digraph g = random_strongly_connected(60, 4.0, 6, rng).freeze();
  Digraph next = churn_step(g, ChurnOptions{}, rng);
  EXPECT_NE(edge_multiset(g), edge_multiset(next));
}

TEST(Churn, ZeroedKnobsPreserveTheEdgeSetButRelabelPorts) {
  Rng rng(33);
  Digraph g = random_strongly_connected(40, 3.0, 5, rng).freeze();
  ChurnOptions opt;
  opt.rewire_fraction = 0;
  opt.perturb_fraction = 0;
  opt.rehome_nodes = 0;
  Digraph next = churn_step(g, opt, rng);
  EXPECT_EQ(edge_multiset(g), edge_multiset(next));
  // Port labels are re-drawn by the adversary each epoch.
  bool any_port_changed = false;
  for (NodeId u = 0; u < g.node_count() && !any_port_changed; ++u) {
    for (const Edge& e : g.out_edges(u)) {
      if (next.port_of_edge(u, e.to) != e.port) {
        any_port_changed = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_port_changed);
}

TEST(Churn, PortStableModePreservesSurvivingPorts) {
  Rng rng(37);
  GraphBuilder builder = random_strongly_connected(40, 3.0, 5, rng);
  builder.assign_adversarial_ports(rng);
  Digraph g = builder.freeze();
  ChurnOptions opt;
  opt.rewire_fraction = 0;
  opt.perturb_fraction = 0.5;  // weight changes must not move ports
  opt.rehome_nodes = 0;
  opt.reassign_ports = false;
  Digraph next = churn_step(g, opt, rng);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (const Edge& e : g.out_edges(u)) {
      EXPECT_EQ(next.port_of_edge(u, e.to), e.port)
          << "surviving edge " << u << " -> " << e.to;
    }
  }
  // And a rewiring epoch still yields valid per-tail-unique ports (checked
  // by Digraph::add_edges_with_ports, which throws on duplicates).
  opt.rewire_fraction = 0.4;
  opt.rehome_nodes = 6;
  EXPECT_NO_THROW((void)churn_step(next, opt, rng));
}

TEST(Churn, RehomedNodesKeepTheirIdsButLoseTheirAdjacency) {
  Rng rng(34);
  Digraph g = random_strongly_connected(50, 5.0, 4, rng).freeze();
  ChurnOptions opt;
  opt.rewire_fraction = 0;
  opt.perturb_fraction = 0;
  opt.rehome_nodes = 50;  // every node re-homed: a fully fresh topology
  Digraph next = churn_step(g, opt, rng);
  EXPECT_EQ(next.node_count(), 50);
  EXPECT_TRUE(is_strongly_connected(next));
  EXPECT_NE(edge_multiset(g), edge_multiset(next));
}

TEST(Churn, SelfLoopAndDuplicateFree) {
  Rng rng(35);
  Digraph g = random_strongly_connected(40, 4.0, 4, rng).freeze();
  ChurnOptions opt;
  opt.rewire_fraction = 0.5;
  opt.rehome_nodes = 8;
  for (int epoch = 0; epoch < 3; ++epoch) {
    g = churn_step(g, opt, rng);
    for (NodeId u = 0; u < g.node_count(); ++u) {
      std::set<NodeId> heads;
      for (const Edge& e : g.out_edges(u)) {
        EXPECT_NE(e.to, u);
        EXPECT_GE(e.weight, 1);
        EXPECT_TRUE(heads.insert(e.to).second) << "duplicate edge at " << u;
      }
    }
  }
}

std::vector<std::uint8_t> graph_bytes(const Digraph& g) {
  ArenaWriter w;
  g.save_arena(w);
  return w.finalize("graph", g.node_count(), g.edge_count());
}

// Builder/freeze round-trips must be loss-free at the byte level: thawing a
// frozen graph and freezing it again reproduces the identical snapshot
// encoding (row order and ports included), and a port-stable churn epoch
// with every mutation knob zeroed is the identity on those bytes.  This is
// what lets EpochManager's warm-start cache validate a snapshot against the
// epoch's exact topology across builder/freeze cycles.
TEST(Churn, FreezeRoundTripsAreSnapshotByteIdentical) {
  Rng rng(40);
  GraphBuilder builder = random_strongly_connected(50, 4.0, 5, rng);
  builder.assign_adversarial_ports(rng);
  const Digraph g = builder.freeze();
  const auto bytes = graph_bytes(g);

  // Thaw -> freeze is the identity.
  EXPECT_EQ(graph_bytes(GraphBuilder(g).freeze()), bytes);

  // A zero-mutation, port-stable churn epoch is the identity too.
  ChurnOptions opt;
  opt.rewire_fraction = 0;
  opt.perturb_fraction = 0;
  opt.rehome_nodes = 0;
  opt.reassign_ports = false;
  const Digraph next = churn_step(g, opt, rng);
  EXPECT_EQ(graph_bytes(next), bytes);

  // And the snapshot loader rebuilds the same bytes from them.
  const Digraph loaded = Digraph::from_arena(ArenaView(make_owned_arena(bytes)));
  EXPECT_EQ(graph_bytes(loaded), bytes);
}

TEST(Churn, PortStableEpochChainStaysByteStableOnSurvivors) {
  // Across several port-stable epochs with weight perturbation only, the
  // edge set (and therefore every surviving port) is preserved, so the only
  // byte differences come from re-drawn weights.
  Rng rng(41);
  GraphBuilder builder = random_strongly_connected(40, 3.0, 5, rng);
  builder.assign_adversarial_ports(rng);
  Digraph g = builder.freeze();
  ChurnOptions opt;
  opt.rewire_fraction = 0;
  opt.perturb_fraction = 0.5;
  opt.rehome_nodes = 0;
  opt.reassign_ports = false;
  for (int epoch = 0; epoch < 4; ++epoch) {
    const Digraph next = churn_step(g, opt, rng);
    for (NodeId u = 0; u < g.node_count(); ++u) {
      const auto before = g.out_edges(u);
      const auto after = next.out_edges(u);
      ASSERT_EQ(before.size(), after.size());
      for (std::size_t i = 0; i < before.size(); ++i) {
        EXPECT_EQ(before[i].to, after[i].to);
        EXPECT_EQ(before[i].port, after[i].port);
      }
    }
    g = next;
  }
}

TEST(Churn, TinyGraphsAreRejected) {
  Rng rng(36);
  Digraph g(1);
  EXPECT_THROW((void)churn_step(g, ChurnOptions{}, rng), std::invalid_argument);
}

}  // namespace
}  // namespace rtr
