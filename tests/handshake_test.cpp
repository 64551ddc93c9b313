#include <gtest/gtest.h>

#include "rtz/handshake.h"
#include "test_support.h"

namespace rtr {
namespace {

using ::rtr::testing::Instance;
using ::rtr::testing::make_instance;

class HandshakeTest : public ::testing::Test {
 protected:
  void Build(Family family, NodeId n, int k, std::uint64_t seed) {
    inst_ = make_instance(family, n, 4, seed);
    rev_ = inst_.graph.reversed();
    hierarchy_ =
        std::make_unique<CoverHierarchy>(inst_.graph, rev_, *inst_.metric, k);
    cover_ = CoverTable(*hierarchy_);
    k_ = k;
  }

  // Drives a double-tree leg hop by hop; returns the weighted length, or -1.
  Dist drive(NodeId from, NodeId expect, DtLeg leg) {
    NodeId at = from;
    Dist total = 0;
    for (int guard = 0; guard < 8 * inst_.n() + 8; ++guard) {
      DtStep s = dt_step(cover_, at, leg);
      if (s.arrived) return at == expect ? total : -1;
      const Edge* e = inst_.graph.edge_by_port(at, s.port);
      if (e == nullptr) return -1;
      total += e->weight;
      at = e->to;
    }
    return -1;
  }

  Instance inst_;
  Digraph rev_{0};
  std::unique_ptr<CoverHierarchy> hierarchy_;
  CoverTable cover_;
  int k_ = 0;
};

TEST_F(HandshakeTest, R2TripsDeliverBothWaysWithinBeta) {
  Build(Family::kRandom, 48, 2, 1);
  for (NodeId u = 0; u < inst_.n(); u += 3) {
    for (NodeId v = 0; v < inst_.n(); v += 7) {
      if (u == v) continue;
      R2Label r2 = compute_r2(*hierarchy_, u, v);
      Dist fwd = drive(u, v, DtLeg{r2.tree, r2.label_v, true});
      Dist back = drive(v, u, DtLeg{r2.tree, r2.label_u, true});
      ASSERT_GE(fwd, 0) << u << "->" << v;
      ASSERT_GE(back, 0) << v << "->" << u;
      const double beta = r2_beta(k_);
      EXPECT_LE(static_cast<double>(fwd + back),
                beta * static_cast<double>(inst_.metric->r(u, v)))
          << "R2 roundtrip exceeded beta(k) * r";
    }
  }
}

TEST_F(HandshakeTest, R2SelectsLowestWorkingLevel) {
  Build(Family::kGrid, 36, 3, 2);
  for (NodeId u = 0; u < inst_.n(); u += 5) {
    for (NodeId v = u + 1; v < inst_.n(); v += 5) {
      R2Label r2 = compute_r2(*hierarchy_, u, v);
      // No lower level has any tree containing both.
      for (std::int32_t lower = 0; lower < r2.tree.level; ++lower) {
        const HierarchyLevel& lvl = hierarchy_->level(lower);
        for (std::int32_t t :
             lvl.trees_of[static_cast<std::size_t>(u)]) {
          EXPECT_FALSE(lvl.trees[static_cast<std::size_t>(t)].contains(v));
        }
      }
    }
  }
}

TEST_F(HandshakeTest, DtStepRejectsOutsiders) {
  Build(Family::kRandom, 30, 2, 3);
  // Find a level-0 tree and a node outside it.
  const HierarchyLevel& lvl = hierarchy_->level(0);
  for (std::int32_t t = 0; t < static_cast<std::int32_t>(lvl.trees.size()); ++t) {
    const DoubleTree& tree = lvl.trees[static_cast<std::size_t>(t)];
    if (tree.member_count() == inst_.n()) continue;
    NodeId outsider = kNoNode;
    for (NodeId v = 0; v < inst_.n(); ++v) {
      if (!tree.contains(v)) {
        outsider = v;
        break;
      }
    }
    ASSERT_NE(outsider, kNoNode);
    DtLeg leg{TreeRef{0, t}, tree.out_router().label(tree.center()), true};
    EXPECT_THROW((void)dt_step(cover_, outsider, leg), std::logic_error);
    return;
  }
  GTEST_SKIP() << "all level-0 trees span V on this instance";
}

TEST_F(HandshakeTest, HierarchyNodeStatsArePositiveAndBounded) {
  Build(Family::kRandom, 48, 3, 4);
  TableStats stats =
      hierarchy_node_stats(cover_, inst_.n(), inst_.graph.port_space());
  EXPECT_GT(stats.max_entries(), 0);
  // Every node is in >= 1 tree per level (its home), <= 2k n^{1/k}.
  const double per_level_bound =
      2.0 * k_ * std::pow(static_cast<double>(inst_.n()), 1.0 / k_) + 1;
  EXPECT_LE(static_cast<double>(stats.max_entries()),
            per_level_bound * hierarchy_->level_count());
}

TEST_F(HandshakeTest, R2LabelBitsPolylog) {
  Build(Family::kRandom, 48, 2, 5);
  R2Label r2 = compute_r2(*hierarchy_, 0, 7);
  std::int64_t bits = r2_label_bits(r2, inst_.n(), inst_.graph.port_space());
  EXPECT_GT(bits, 0);
  // o(log^2 n) scale: generous constant * log^2.
  const double log_n = std::log2(static_cast<double>(inst_.n()));
  EXPECT_LE(static_cast<double>(bits), 64 * log_n * log_n);
}

}  // namespace
}  // namespace rtr
