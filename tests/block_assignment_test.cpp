#include <gtest/gtest.h>

#include <cmath>

#include "dict/block_assignment.h"
#include "test_support.h"

namespace rtr {
namespace {

using ::rtr::testing::Instance;
using ::rtr::testing::make_instance;

struct AssignParam {
  Family family;
  NodeId n;
  int k;
  std::uint64_t seed;
};

class BlockAssignmentTest : public ::testing::TestWithParam<AssignParam> {};

TEST_P(BlockAssignmentTest, CoverageAndLogSizeBound) {
  const auto& p = GetParam();
  Instance inst = make_instance(p.family, p.n, 6, p.seed);
  Alphabet alpha(inst.n(), p.k);
  Neighborhoods hoods = compute_neighborhoods(*inst.metric, inst.names);
  Rng rng(p.seed + 1);
  BlockAssignment a = assign_blocks(alpha, hoods, rng);

  // Lemma 1 / Lemma 4 coverage.
  EXPECT_TRUE(verify_coverage(alpha, hoods, a));

  // O(log n) blocks per node: our constant is log_factor (3) with up to 1.5x
  // growth per retry; assert a loose but honest multiple.
  const double log_n = std::log2(std::max<double>(2.0, inst.n()));
  EXPECT_LE(static_cast<double>(a.max_blocks_per_node()),
            std::max(32.0 * log_n, static_cast<double>(alpha.relevant_block_count())));
  EXPECT_EQ(a.blocks_of.size(), static_cast<std::size_t>(inst.n()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlockAssignmentTest,
    ::testing::Values(AssignParam{Family::kRandom, 64, 2, 1},
                      AssignParam{Family::kRandom, 100, 2, 2},
                      AssignParam{Family::kRandom, 64, 3, 3},
                      AssignParam{Family::kGrid, 64, 2, 4},
                      AssignParam{Family::kRing, 64, 3, 5},
                      AssignParam{Family::kScaleFree, 81, 3, 6},
                      AssignParam{Family::kBidirected, 64, 4, 7}),
    [](const ::testing::TestParamInfo<AssignParam>& info) {
      return family_name(info.param.family).substr(0, 4) + "_n" +
             std::to_string(info.param.n) + "_k" + std::to_string(info.param.k) +
             "_s" + std::to_string(info.param.seed);
    });

TEST(BlockAssignment, HoldsIsConsistentWithBlockLists) {
  Instance inst = make_instance(Family::kRandom, 49, 5, 11);
  Alphabet alpha(inst.n(), 2);
  Neighborhoods hoods = compute_neighborhoods(*inst.metric, inst.names);
  Rng rng(12);
  BlockAssignment a = assign_blocks(alpha, hoods, rng);
  for (NodeId v = 0; v < inst.n(); ++v) {
    for (BlockId b = 0; b < alpha.relevant_block_count(); ++b) {
      bool listed = false;
      for (BlockId held : a.blocks_of[static_cast<std::size_t>(v)]) {
        listed = listed || held == b;
      }
      EXPECT_EQ(listed, a.holds(v, b));
    }
  }
}

TEST(BlockAssignment, TinyInstancesHoldEverything) {
  Instance inst = make_instance(Family::kRandom, 8, 3, 13);
  Alphabet alpha(inst.n(), 2);
  Neighborhoods hoods = compute_neighborhoods(*inst.metric, inst.names);
  Rng rng(14);
  BlockAssignment a = assign_blocks(alpha, hoods, rng);
  EXPECT_TRUE(verify_coverage(alpha, hoods, a));
}

TEST(BlockAssignment, NeighborhoodOrderSharedWithMetric) {
  Instance inst = make_instance(Family::kRing, 40, 4, 15);
  Neighborhoods hoods = compute_neighborhoods(*inst.metric, inst.names);
  for (NodeId v = 0; v < inst.n(); v += 5) {
    auto direct = inst.metric->neighborhood(v, inst.n(), inst.names.names());
    EXPECT_EQ(hoods.order[static_cast<std::size_t>(v)], direct);
    EXPECT_EQ(hoods.prefix(v, 5).size(), 5u);
  }
}

TEST(BlockAssignment, GreedyRepairTriggersWhenRandomizedBudgetTooSmall) {
  Instance inst = make_instance(Family::kRandom, 100, 5, 16);
  Alphabet alpha(inst.n(), 2);
  Neighborhoods hoods = compute_neighborhoods(*inst.metric, inst.names);
  Rng rng(17);
  BlockAssignmentOptions opts;
  opts.log_factor = 0.05;  // starve the randomized phase
  opts.max_tries = 1;
  BlockAssignment a = assign_blocks(alpha, hoods, rng, opts);
  // Coverage must hold regardless, via greedy repairs.
  EXPECT_TRUE(verify_coverage(alpha, hoods, a));
  EXPECT_GT(a.greedy_repairs, 0);
}

}  // namespace
}  // namespace rtr
