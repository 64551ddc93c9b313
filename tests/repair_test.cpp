// Incremental epoch repair: the differential proof of the repair contract.
//
// SchemeRegistry::repair() promises a repaired scheme indistinguishable
// from a pinned-seed from-scratch build on the post-churn graph --
// identical snapshot bytes, identical routes, identical per-node table
// stats.  These tests prove it differentially across churn scripts for
// every scheme with a repair hook (rtz3, fulltable), and pin the
// EpochManager policy edges: an empty delta is a no-op, an over-threshold
// delta (e.g. the adversary relabeling every port) falls back to a full
// build, and repaired epochs serve the exact same answers a full rebuild
// would.  The *Repair* suites are ThreadSanitizer targets alongside the
// *EpochSwapHammer* tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/names.h"
#include "graph/churn.h"
#include "graph/churn_delta.h"
#include "graph/digraph.h"
#include "graph/generators.h"
#include "net/scheme.h"
#include "rt/metric.h"
#include "serve/epoch_manager.h"
#include "test_support.h"
#include "util/rng.h"

namespace rtr {
namespace {

Digraph initial_graph(NodeId n, std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder g = random_strongly_connected(n, 4.0, 5, rng);
  g.assign_adversarial_ports(rng);
  return g.freeze();
}

NameAssignment fixed_names(NodeId n, std::uint64_t seed) {
  Rng rng(seed);
  return NameAssignment::random(n, rng);
}

BuildContext context_for(std::shared_ptr<const Digraph> graph,
                         const NameAssignment& names, std::uint64_t seed,
                         MetricMode mode) {
  auto metric = make_roundtrip_metric(graph, mode);
  return BuildContext::wrap(std::move(graph), std::move(metric), names, seed);
}

// Runs `epochs` churn steps; at each epoch repairs the previous scheme onto
// the new graph AND builds it from scratch with the same pinned seed, then
// requires bitwise-identical snapshots, identical per-node table stats, and
// identical routes on a sample of pairs.  The repaired scheme becomes the
// next epoch's base, so later epochs also exercise repair-of-a-repair.
// Returns how many epochs actually took the repair path (the hook may
// decline); callers assert it is non-zero so a permanently-declining hook
// cannot pass vacuously.
using ChurnStepFn = std::function<Digraph(const Digraph&, Rng&)>;

int run_differential(const std::string& scheme_name, NodeId n,
                     const ChurnStepFn& step, std::uint64_t seed, int epochs,
                     MetricMode full_build_mode, double shadow_fraction = 0.0) {
  const NameAssignment names = fixed_names(n, seed + 1);
  const auto& registry = SchemeRegistry::global();
  Digraph start = initial_graph(n, seed);
  if (shadow_fraction > 0) {
    Rng shadow_rng(seed + 5);
    start = add_shadowed_links(start, shadow_fraction, shadow_rng);
  }
  auto old_graph = std::make_shared<const Digraph>(std::move(start));
  std::shared_ptr<const Scheme> old_scheme = registry.build(
      scheme_name, context_for(old_graph, names, seed, MetricMode::kSparse));

  Rng churn_rng(seed + 3);
  int repaired_epochs = 0;
  for (int e = 1; e <= epochs; ++e) {
    auto new_graph =
        std::make_shared<const Digraph>(step(*old_graph, churn_rng));
    const ChurnDelta delta = diff_graphs(*old_graph, *new_graph);

    // Separate contexts: repair and build each consume draws from their own
    // fresh Rng(seed), exactly like two independent pinned-seed epochs.
    auto repaired = registry.repair(
        scheme_name, *old_scheme, *old_graph,
        context_for(new_graph, names, seed, MetricMode::kSparse), delta);
    auto full = registry.build(
        scheme_name, context_for(new_graph, names, seed, full_build_mode));

    if (repaired != nullptr) {
      // An empty delta splices trivially; only a real delta counts toward
      // the non-vacuousness bar the callers assert.
      if (!delta.empty()) ++repaired_epochs;
      EXPECT_EQ(testing::scheme_arena_bytes(scheme_name, *repaired),
                testing::scheme_arena_bytes(scheme_name, *full))
          << scheme_name << " epoch " << e << ": snapshot bytes diverged";

      const TableStats rs = repaired->table_stats();
      const TableStats fs = full->table_stats();
      EXPECT_EQ(rs.node_count(), fs.node_count());
      for (NodeId v = 0; v < std::min(rs.node_count(), fs.node_count()); ++v) {
        EXPECT_EQ(rs.entries(v), fs.entries(v)) << "node " << v;
        EXPECT_EQ(rs.bits(v), fs.bits(v)) << "node " << v;
      }

      Rng pair_rng(seed + 17 + static_cast<std::uint64_t>(e));
      for (int q = 0; q < 50; ++q) {
        const NodeId s = static_cast<NodeId>(pair_rng.index(n));
        NodeId t = static_cast<NodeId>(pair_rng.index(n));
        if (t == s) t = (t + 1) % n;
        const RouteResult a =
            repaired->simulate(*new_graph, s, t, names.name_of(t));
        const RouteResult b =
            full->simulate(*new_graph, s, t, names.name_of(t));
        EXPECT_EQ(a.ok(), b.ok()) << s << "->" << t;
        EXPECT_EQ(a.roundtrip_length(), b.roundtrip_length()) << s << "->" << t;
        EXPECT_EQ(a.out_hops, b.out_hops) << s << "->" << t;
        EXPECT_EQ(a.back_hops, b.back_hops) << s << "->" << t;
        EXPECT_EQ(a.max_header_bits, b.max_header_bits) << s << "->" << t;
      }
      old_scheme = repaired;
    } else {
      old_scheme = full;
    }
    old_graph = new_graph;
  }
  return repaired_epochs;
}

int run_differential(const std::string& scheme_name, NodeId n,
                     const ChurnOptions& churn, std::uint64_t seed, int epochs,
                     MetricMode full_build_mode) {
  return run_differential(
      scheme_name, n,
      [&churn](const Digraph& g, Rng& rng) { return churn_step(g, churn, rng); },
      seed, epochs, full_build_mode);
}

// Port-stable gentle churn: the regime incremental repair is built for.
ChurnOptions gentle_churn() {
  ChurnOptions churn;
  churn.rewire_fraction = 0.02;
  churn.perturb_fraction = 0.05;
  churn.reassign_ports = false;
  return churn;
}

// Weight-only churn: the topology (and every port) is frozen; only link
// costs move.  Every delta entry is "modified".
ChurnOptions weight_only_churn() {
  ChurnOptions churn;
  churn.rewire_fraction = 0.0;
  churn.perturb_fraction = 0.30;
  churn.reassign_ports = false;
  return churn;
}

// Heavier structural churn, still port-stable on surviving edges.
ChurnOptions rewire_churn() {
  ChurnOptions churn;
  churn.rewire_fraction = 0.05;
  churn.perturb_fraction = 0.10;
  churn.reassign_ports = false;
  return churn;
}

// --- Script 1: gentle mixed churn ----------------------------------------

TEST(RepairDifferential, Rtz3GentleChurn) {
  EXPECT_GE(run_differential("rtz3", 160, gentle_churn(), 101, 3,
                             MetricMode::kSparse),
            1);
}

TEST(RepairDifferential, FullTableGentleChurn) {
  EXPECT_GE(run_differential("fulltable", 160, gentle_churn(), 102, 3,
                             MetricMode::kSparse),
            1);
}

// --- Script 2: weight-only churn ------------------------------------------

TEST(RepairDifferential, Rtz3WeightOnlyChurn) {
  EXPECT_GE(run_differential("rtz3", 120, weight_only_churn(), 201, 3,
                             MetricMode::kSparse),
            1);
}

TEST(RepairDifferential, FullTableWeightOnlyChurn) {
  EXPECT_GE(run_differential("fulltable", 120, weight_only_churn(), 202, 3,
                             MetricMode::kSparse),
            1);
}

// --- Script 3: structural rewires, cross-checked against the DENSE metric
// backend.  The full build here uses the dense APSP matrix while the repair
// path always runs against sparse rows, so byte equality additionally pins
// the dense/sparse backend equivalence the repair path relies on.

TEST(RepairDifferential, Rtz3RewireChurnDenseCrossCheck) {
  EXPECT_GE(run_differential("rtz3", 120, rewire_churn(), 301, 3,
                             MetricMode::kDense),
            1);
}

TEST(RepairDifferential, FullTableRewireChurnDenseCrossCheck) {
  EXPECT_GE(run_differential("fulltable", 120, rewire_churn(), 302, 3,
                             MetricMode::kDense),
            1);
}

// --- Script 4: slack re-pricing (the bench's non-disruptive regime) --------
//
// The instance carries shadowed backup links (add_shadowed_links), and
// slack_jitter_step only raises weights of edges an existing strictly
// shorter detour already bypasses, so the delta certifies as strictly slack
// and rtz3's repair takes the O(affected region) fast path: every
// full-graph tree is spliced wholesale and only balls whose mask contains
// both endpoints of a changed edge are rechecked.  Byte equality here holds
// the fast path to the same contract as the general path.

Digraph slack_jitter(const Digraph& g, Rng& rng) {
  return slack_jitter_step(g, 0.05, rng);
}

TEST(RepairDifferential, Rtz3SlackJitter) {
  EXPECT_GE(run_differential("rtz3", 160, slack_jitter, 901, 3,
                             MetricMode::kSparse, /*shadow_fraction=*/0.10),
            1);
}

TEST(RepairDifferential, FullTableSlackJitter) {
  EXPECT_GE(run_differential("fulltable", 160, slack_jitter, 902, 3,
                             MetricMode::kSparse, /*shadow_fraction=*/0.10),
            1);
}

// --- Edge case: targeted adversarial port relabeling ----------------------
//
// The adversary renumbers the ports of a handful of edges without touching
// topology or weights.  Routing tables store port numbers, so a spliced
// substructure that forwards over a relabeled edge would be silently wrong:
// the repair must treat port-only changes as real churn.  (A GLOBAL
// relabel -- reassign_ports=true -- changes every edge and is covered by
// the EpochManager fallback test below.)
TEST(RepairDifferential, TargetedPortRelabelIsRealChurn) {
  const NodeId n = 96;
  const std::uint64_t seed = 401;
  const NameAssignment names = fixed_names(n, seed + 1);
  auto old_graph = std::make_shared<const Digraph>(initial_graph(n, seed));

  // Relabel the ports of node 0's out-edges by rotating them one slot:
  // same heads, same weights, different port numbers.
  GraphBuilder thawed(n);
  for (NodeId u = 0; u < n; ++u) {
    auto row = old_graph->out_edges(u);
    std::vector<Edge> edges(row.begin(), row.end());
    if (u == 0 && edges.size() >= 2) {
      const Port first = edges.front().port;
      for (std::size_t i = 0; i + 1 < edges.size(); ++i) {
        edges[i].port = edges[i + 1].port;
      }
      edges.back().port = first;
    }
    thawed.add_edges_with_ports(u, edges);
  }
  auto new_graph = std::make_shared<const Digraph>(thawed.freeze());

  const ChurnDelta delta = diff_graphs(*old_graph, *new_graph);
  ASSERT_FALSE(delta.empty());
  EXPECT_TRUE(delta.added.empty());
  EXPECT_TRUE(delta.removed.empty());
  EXPECT_EQ(static_cast<NodeId>(delta.modified.size()),
            old_graph->out_degree(0));
  for (const EdgeChange& c : delta.modified) {
    EXPECT_EQ(c.tail, 0);
    EXPECT_EQ(c.old_weight, c.new_weight);
    EXPECT_NE(c.old_port, c.new_port);
  }

  const auto& registry = SchemeRegistry::global();
  for (const std::string scheme_name : {"rtz3", "fulltable"}) {
    auto old_scheme = registry.build(
        scheme_name, context_for(old_graph, names, seed, MetricMode::kSparse));
    auto repaired = registry.repair(
        scheme_name, *old_scheme, *old_graph,
        context_for(new_graph, names, seed, MetricMode::kSparse), delta);
    auto full = registry.build(
        scheme_name, context_for(new_graph, names, seed, MetricMode::kSparse));
    ASSERT_NE(repaired, nullptr) << scheme_name;
    EXPECT_EQ(testing::scheme_arena_bytes(scheme_name, *repaired),
              testing::scheme_arena_bytes(scheme_name, *full))
        << scheme_name << ": port relabel not honored";
  }
}

// --- EpochManager policy edges --------------------------------------------

TEST(RepairEpochManager, EmptyDeltaIsNoOp) {
  const NodeId n = 64;
  Digraph g = initial_graph(n, 501);
  EpochManagerOptions opt;
  opt.enable_repair = true;
  EpochManager mgr("rtz3", fixed_names(n, 502), Digraph(g), opt);

  const auto before = mgr.current();
  ASSERT_TRUE(mgr.begin_rebuild(Digraph(g)));  // identical topology
  mgr.wait_for_rebuild();

  // Nothing was published: the exact same epoch object keeps serving.
  EXPECT_EQ(mgr.current().get(), before.get());
  EXPECT_EQ(mgr.epoch(), 0u);
  EXPECT_EQ(mgr.last_error(), "");
  const auto c = mgr.counters();
  EXPECT_EQ(c.epochs_built, 0u);
  EXPECT_EQ(c.repairs, 0u);
  EXPECT_EQ(c.repair_fallbacks, 0u);
}

TEST(RepairEpochManager, GlobalPortRelabelFallsBackToFullBuild) {
  const NodeId n = 64;
  Digraph g = initial_graph(n, 601);
  EpochManagerOptions opt;
  opt.enable_repair = true;
  opt.repair_max_fraction = 0.05;
  EpochManager mgr("rtz3", fixed_names(n, 602), Digraph(g), opt);

  // reassign_ports=true renumbers EVERY port, so the delta touches every
  // edge -- far past any sane repair threshold.
  ChurnOptions churn;  // defaults: reassign_ports = true
  Rng churn_rng(603);
  mgr.rebuild_now(churn_step(g, churn, churn_rng));

  EXPECT_EQ(mgr.epoch(), 1u);
  const auto c = mgr.counters();
  EXPECT_EQ(c.epochs_built, 1u);
  EXPECT_EQ(c.repairs, 0u);
  EXPECT_EQ(c.repair_fallbacks, 1u);
  EXPECT_GT(c.last_rebuild_ms, 0.0);
  const auto& names = mgr.names();
  EXPECT_TRUE(mgr.roundtrip_by_name(names.name_of(1), names.name_of(5)).ok());
}

// A repair hook that throws std::logic_error has hit a bug (an audit or
// invariant failure), which must not hide in the fallback counter: the
// rebuild fails, the current epoch keeps serving, and last_error() says why.
// Any other exception is still a fallback to a full build.
TEST(RepairEpochManager, RepairLogicErrorFailsTheRebuildInsteadOfFallingBack) {
  const NodeId n = 64;
  Digraph g = initial_graph(n, 801);
  SchemeRegistry registry;
  register_builtin_schemes(registry);
  bool throw_logic_error = true;
  registry.set_repair_hook(
      "rtz3", [&throw_logic_error](const Scheme&, const Digraph&,
                                   const BuildContext&, const ChurnDelta&)
                  -> std::shared_ptr<const Scheme> {
        if (throw_logic_error) {
          throw std::logic_error("repair invariant broken");
        }
        throw std::runtime_error("repair ran out of room");
      });
  EpochManagerOptions opt;
  opt.enable_repair = true;
  opt.repair_max_fraction = 0.25;
  EpochManager mgr("rtz3", fixed_names(n, 802), Digraph(g), opt, registry);

  ChurnOptions churn = gentle_churn();
  Rng churn_rng(803);
  g = churn_step(g, churn, churn_rng);
  const auto before = mgr.current();
  ASSERT_TRUE(mgr.begin_rebuild(Digraph(g)));
  mgr.wait_for_rebuild();
  EXPECT_EQ(mgr.current().get(), before.get());
  EXPECT_EQ(mgr.epoch(), 0u);
  EXPECT_NE(mgr.last_error().find("repair invariant broken"),
            std::string::npos)
      << mgr.last_error();
  auto c = mgr.counters();
  EXPECT_EQ(c.repair_fallbacks, 0u);
  EXPECT_EQ(c.epochs_built, 0u);
  const auto& names = mgr.names();
  EXPECT_TRUE(mgr.roundtrip_by_name(names.name_of(1), names.name_of(5)).ok());

  throw_logic_error = false;
  mgr.rebuild_now(Digraph(g));
  EXPECT_EQ(mgr.epoch(), 1u);
  EXPECT_EQ(mgr.last_error(), "");
  c = mgr.counters();
  EXPECT_EQ(c.repair_fallbacks, 1u);
  EXPECT_EQ(c.repairs, 0u);
  EXPECT_EQ(c.epochs_built, 1u);
}

// Two managers over the same pinned seed and the same churn sequence: one
// repairs, the other is forced to full-rebuild every epoch
// (repair_max_fraction = 0 declines every non-empty delta).  Every query
// must answer identically -- the serving-level restatement of the byte
// equality proved above.
TEST(RepairEpochManager, RepairedEpochsServeIdenticalRoutes) {
  const NodeId n = 96;
  const NameAssignment names = fixed_names(n, 702);
  Digraph g = initial_graph(n, 701);

  EpochManagerOptions repair_opt;
  repair_opt.enable_repair = true;
  repair_opt.repair_max_fraction = 0.25;
  EpochManagerOptions full_opt = repair_opt;
  full_opt.repair_max_fraction = 0.0;  // pinned-seed full rebuild every epoch

  EpochManager repaired("rtz3", names, Digraph(g), repair_opt);
  EpochManager rebuilt("rtz3", names, Digraph(g), full_opt);

  ChurnOptions churn = gentle_churn();
  Rng churn_rng(703);
  Rng pair_rng(704);
  for (int e = 1; e <= 3; ++e) {
    g = churn_step(g, churn, churn_rng);
    repaired.rebuild_now(Digraph(g));
    rebuilt.rebuild_now(Digraph(g));
    for (int q = 0; q < 40; ++q) {
      const NodeId s = static_cast<NodeId>(pair_rng.index(n));
      NodeId t = static_cast<NodeId>(pair_rng.index(n));
      if (t == s) t = (t + 1) % n;
      const ServingResult a =
          repaired.roundtrip_by_name(names.name_of(s), names.name_of(t));
      const ServingResult b =
          rebuilt.roundtrip_by_name(names.name_of(s), names.name_of(t));
      ASSERT_TRUE(a.ok() && b.ok()) << s << "->" << t;
      EXPECT_EQ(a.route.roundtrip_length(), b.route.roundtrip_length());
      EXPECT_EQ(a.route.out_hops, b.route.out_hops);
      EXPECT_EQ(a.route.back_hops, b.route.back_hops);
      EXPECT_EQ(a.route.max_header_bits, b.route.max_header_bits);
    }
  }
  // The comparison is only meaningful if the two managers actually took
  // different paths: every epoch repaired on one side, none on the other.
  const auto cr = repaired.counters();
  const auto cf = rebuilt.counters();
  EXPECT_GE(cr.repairs, 1u);
  EXPECT_EQ(cr.repair_fallbacks + cr.repairs, 3u);
  EXPECT_GT(cr.last_repair_ms, 0.0);
  EXPECT_EQ(cf.repairs, 0u);
  EXPECT_EQ(cf.repair_fallbacks, 3u);
}

// ThreadSanitizer target: queries hammer across repair-published epoch
// swaps, exactly like the full-rebuild EpochSwapHammer tests.  CI's TSAN
// job runs --gtest_filter='*EpochSwapHammer*:*Repair*'.
TEST(RepairEpochManager, RepairSwapHammer) {
  const NodeId n = 64;
  const NameAssignment names = fixed_names(n, 802);
  Digraph g = initial_graph(n, 801);
  EpochManagerOptions opt;
  opt.enable_repair = true;
  opt.repair_max_fraction = 0.25;
  EpochManager mgr("rtz3", names, Digraph(g), opt);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> served{0};
  std::vector<std::thread> workers;
  workers.reserve(4);
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      Rng rng(900 + static_cast<std::uint64_t>(w));
      while (!stop.load(std::memory_order_relaxed)) {
        const NodeId s = static_cast<NodeId>(rng.index(n));
        NodeId t = static_cast<NodeId>(rng.index(n));
        if (t == s) t = (t + 1) % n;
        if (mgr.roundtrip_by_name(names.name_of(s), names.name_of(t)).ok()) {
          served.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  ChurnOptions churn = gentle_churn();
  Rng churn_rng(803);
  for (int e = 1; e <= 3; ++e) {
    g = churn_step(g, churn, churn_rng);
    mgr.rebuild_now(Digraph(g));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();

  EXPECT_GT(served.load(), 0u);
  EXPECT_EQ(mgr.counters().epochs_built, 3u);
  EXPECT_GE(mgr.counters().repairs, 1u);
  EXPECT_EQ(mgr.counters().failures, 0u);
}

}  // namespace
}  // namespace rtr
