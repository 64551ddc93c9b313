#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/bit_cost.h"
#include "util/inline_vec.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/text_table.h"

namespace rtr {
namespace {

TEST(Rng, UniformStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.uniform(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
  }
}

TEST(Rng, UniformSingletonRange) {
  Rng rng(2);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform(5, 5), 5);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform(0, 1 << 30), b.uniform(0, 1 << 30));
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(7);
  auto p = rng.permutation(257);
  std::set<std::int32_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 257u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 256);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(9);
  for (std::int32_t k : {1, 5, 50, 99, 100}) {
    auto s = rng.sample_without_replacement(100, k);
    std::set<std::int32_t> seen(s.begin(), s.end());
    EXPECT_EQ(static_cast<std::int32_t>(seen.size()), k);
    for (auto v : s) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 100);
    }
  }
}

TEST(Rng, SampleRejectsBadArgs) {
  Rng rng(3);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), std::invalid_argument);
  EXPECT_THROW(rng.sample_without_replacement(5, -1), std::invalid_argument);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(BitCost, KnownValues) {
  EXPECT_EQ(bits_for(0), 1);
  EXPECT_EQ(bits_for(1), 1);
  EXPECT_EQ(bits_for(2), 1);
  EXPECT_EQ(bits_for(4), 2);
  EXPECT_EQ(bits_for(1024), 10);
  EXPECT_EQ(bits_for(1025), 11);
}

// bits_for is a bit_width; the counting loop it replaced is the reference.
TEST(BitCost, MatchesTheCountingLoop) {
  auto reference = [](std::int64_t n) -> std::int64_t {
    if (n <= 2) return 1;
    std::int64_t bits = 0;
    for (std::int64_t v = n - 1; v > 0; v >>= 1) ++bits;
    return bits;
  };
  for (std::int64_t n = -3; n <= 70000; ++n) {
    ASSERT_EQ(bits_for(n), reference(n)) << n;
  }
  for (int shift = 17; shift < 63; ++shift) {
    for (std::int64_t delta : {-1, 0, 1}) {
      const std::int64_t n = (std::int64_t{1} << shift) + delta;
      ASSERT_EQ(bits_for(n), reference(n)) << n;
    }
  }
  EXPECT_EQ(bits_for(INT64_MAX), 63);
}

TEST(InlineVec, PushPopKeepsStackOrder) {
  InlineVec<std::string, 3> v;
  EXPECT_TRUE(v.empty());
  v.push_back("a");
  v.push_back("b");
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.back(), "b");
  v.pop_back();
  EXPECT_EQ(v.back(), "a");
  v.push_back("c");
  v.push_back(std::string(100, 'd'));  // beyond any small-string buffer
  EXPECT_EQ((std::vector<std::string>(v.begin(), v.end())),
            (std::vector<std::string>{"a", "c", std::string(100, 'd')}));
  EXPECT_THROW(v.push_back("e"), std::length_error);
  EXPECT_EQ(v.size(), 3u);
}

TEST(InlineVec, CopiesAndMovesElementwise) {
  InlineVec<std::string, 4> v;
  v.push_back(std::string(50, 'x'));
  v.push_back("y");
  InlineVec<std::string, 4> copy(v);
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy.back(), "y");
  EXPECT_EQ(*copy.begin(), std::string(50, 'x'));
  InlineVec<std::string, 4> moved(std::move(copy));
  EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_EQ(moved.size(), 2u);
  InlineVec<std::string, 4> assigned;
  assigned.push_back("z");
  assigned = v;
  EXPECT_EQ(assigned.size(), 2u);
  EXPECT_EQ(assigned.back(), "y");
  assigned = std::move(moved);
  EXPECT_EQ(*assigned.begin(), std::string(50, 'x'));
  EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)
  assigned.clear();
  EXPECT_TRUE(assigned.empty());
}

TEST(Summary, BasicStatistics) {
  Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(v);
  EXPECT_EQ(s.count(), 5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 5.0);
}

TEST(Summary, EmptyThrows) {
  Summary s;
  EXPECT_THROW((void)s.mean(), std::logic_error);
  EXPECT_THROW((void)s.percentile(0.5), std::logic_error);
}

TEST(Summary, PercentileAfterInterleavedAdds) {
  Summary s;
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 10.0);
  s.add(0.0);
  s.add(20.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(s.max(), 20.0);
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  auto out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TextTable, ShortRowsArePadded) {
  TextTable t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_NO_THROW(t.render());
}

}  // namespace
}  // namespace rtr
