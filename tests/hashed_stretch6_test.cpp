// The Section 1.1.2 reduction: routing on self-chosen 64-bit names.
#include <gtest/gtest.h>

#include "core/hashed_stretch6.h"
#include "core/stretch6.h"
#include "net/simulator.h"
#include "test_support.h"

namespace rtr {
namespace {

using ::rtr::testing::FamilyParam;
using ::rtr::testing::Instance;
using ::rtr::testing::make_instance;

TEST(ChosenNames, UniqueAndInvertible) {
  Rng rng(1);
  ChosenNames names = ChosenNames::random(200, rng);
  for (NodeId v = 0; v < 200; ++v) {
    EXPECT_EQ(names.id_of(names.of_id(v)), v);
    EXPECT_NE(names.of_id(v), 0u);
  }
  EXPECT_THROW((void)names.id_of(0), std::invalid_argument);
}

TEST(BucketHash, DeterministicAndInRange) {
  Rng rng(2);
  BucketHash h(97, rng);
  Rng name_rng(3);
  ChosenNames names = ChosenNames::random(500, name_rng);
  for (NodeId v = 0; v < 500; ++v) {
    NodeId b1 = h.bucket(names.of_id(v));
    NodeId b2 = h.bucket(names.of_id(v));
    EXPECT_EQ(b1, b2);
    EXPECT_GE(b1, 0);
    EXPECT_LT(b1, 97);
  }
}

TEST(BucketHash, LoadsConcentrate) {
  // Universality: no bucket should collect an outsized share.
  Rng rng(4);
  const NodeId n = 400;
  BucketHash h(n, rng);
  Rng name_rng(5);
  ChosenNames names = ChosenNames::random(n, name_rng);
  std::vector<int> load(static_cast<std::size_t>(n), 0);
  for (NodeId v = 0; v < n; ++v) {
    ++load[static_cast<std::size_t>(h.bucket(names.of_id(v)))];
  }
  int mx = 0;
  for (int l : load) mx = std::max(mx, l);
  EXPECT_LE(mx, 8);  // ~ log n / log log n w.h.p.; 8 is generous at n=400
}

class HashedStretch6Test : public ::testing::TestWithParam<FamilyParam> {};

TEST_P(HashedStretch6Test, DeliversOn64BitNamesWithinStretchSix) {
  auto [family, n, seed] = GetParam();
  Instance inst = make_instance(family, n, 5, seed);
  Rng rng(seed + 500);
  ChosenNames chosen = ChosenNames::random(inst.n(), rng);
  HashedStretch6Scheme scheme(inst.graph, *inst.metric, chosen, rng);
  // The packet carries the destination's self-chosen 64-bit name.
  for (NodeId s = 0; s < inst.n(); s += 2) {
    for (NodeId t = 0; t < inst.n(); t += 3) {
      if (s == t) continue;
      const RouteResult res =
          simulate_roundtrip(inst.graph, scheme, s, t, chosen.of_id(t));
      ASSERT_TRUE(res.delivered_out) << s << "->" << t;
      ASSERT_TRUE(res.delivered_back) << "ack " << t << "->" << s;
      EXPECT_LE(res.roundtrip_length(), 6 * inst.metric->r(s, t));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, HashedStretch6Test,
    ::testing::Values(FamilyParam{Family::kRandom, 48, 1},
                      FamilyParam{Family::kGrid, 36, 2},
                      FamilyParam{Family::kRing, 40, 3}),
    [](const ::testing::TestParamInfo<FamilyParam>& info) {
      return ::rtr::testing::family_param_name(info.param);
    });

TEST(HashedStretch6, ConstantBlowupOverPermutationNames) {
  // The reduction's space claim: 64-bit chosen names cost only a constant
  // factor over the permutation-name scheme on the same instance.
  Instance inst = make_instance(Family::kRandom, 100, 4, 9);
  Rng rng_a(10), rng_b(10);
  Stretch6Scheme base(inst.graph, *inst.metric, inst.names, rng_a);
  ChosenNames chosen = ChosenNames::random(inst.n(), rng_b);
  HashedStretch6Scheme hashed(inst.graph, *inst.metric, chosen, rng_b);
  const double base_bits = static_cast<double>(base.table_stats().max_bits());
  const double hashed_bits =
      static_cast<double>(hashed.table_stats().max_bits());
  EXPECT_LE(hashed_bits, 16.0 * base_bits);
}

}  // namespace
}  // namespace rtr
