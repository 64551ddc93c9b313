#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "cover/partial_cover.h"

namespace rtr {
namespace {

// The inverse index partial_cover reads: per node, ascending, the ids of
// the clusters containing it.  Arbitrary cluster sets are not symmetric the
// way roundtrip balls are, so the tests build it here.
NodeSets containing_index(const NodeSets& clusters, NodeId n) {
  std::vector<std::vector<NodeId>> at(static_cast<std::size_t>(n));
  for (std::int32_t c = 0; c < clusters.count(); ++c) {
    for (NodeId v : clusters[c]) at[static_cast<std::size_t>(v)].push_back(c);
  }
  NodeSets index;
  for (const auto& list : at) {
    index.members.insert(index.members.end(), list.begin(), list.end());
    index.offsets.push_back(static_cast<std::int64_t>(index.members.size()));
  }
  return index;
}

// A cluster collection over nodes [0, n): cluster i is raw[i], seeded at
// its first listed node.
struct Collection {
  std::vector<NodeId> seeds;
  NodeSets clusters;
  NodeSets containing;

  [[nodiscard]] std::size_t size() const { return seeds.size(); }
  [[nodiscard]] std::span<const NodeId> operator[](std::int32_t c) const {
    return clusters[c];
  }
};

Collection clusters_from(std::vector<std::vector<NodeId>> raw, NodeId n) {
  Collection out;
  for (auto& members : raw) {
    out.seeds.push_back(members.front());
    std::sort(members.begin(), members.end());
    out.clusters.members.insert(out.clusters.members.end(), members.begin(),
                                members.end());
    out.clusters.offsets.push_back(
        static_cast<std::int64_t>(out.clusters.members.size()));
  }
  out.containing = containing_index(out.clusters, n);
  return out;
}

PartialCoverResult run(const Collection& r, const std::vector<char>& active,
                       NodeId n, int k) {
  return partial_cover(r.seeds, r.clusters, r.containing, active, n, k);
}

TEST(PartialCover, DisjointClustersPassThrough) {
  auto r = clusters_from({{0, 1}, {2, 3}, {4, 5}}, 6);
  std::vector<char> active(r.size(), 1);
  auto res = run(r, active, 6, 2);
  EXPECT_EQ(res.merged.size(), 3u);
  EXPECT_EQ(res.covered.size(), 3u);
  EXPECT_TRUE(res.consumed.empty());
  // Lemma 11(2): outputs pairwise disjoint.
  std::set<NodeId> seen;
  for (const auto& m : res.merged) {
    for (NodeId v : m.members) EXPECT_TRUE(seen.insert(v).second);
  }
}

TEST(PartialCover, CoveredClustersAreContained) {
  // Lemma 11(1): every covered cluster is inside its merged output.
  auto r = clusters_from({{0, 1, 2}, {2, 3}, {3, 4}, {7, 8}}, 9);
  std::vector<char> active(r.size(), 1);
  auto res = run(r, active, 9, 2);
  for (std::size_t i = 0; i < res.merged.size(); ++i) {
    for (std::int32_t c : res.merged[i].absorbed) {
      for (NodeId v : r[c]) {
        EXPECT_TRUE(std::binary_search(res.merged[i].members.begin(),
                                       res.merged[i].members.end(), v));
      }
    }
  }
  // Every input cluster is either covered or consumed (this instance has a
  // chain, so one pass handles all of it) -- and never both.
  std::set<std::int32_t> covered(res.covered.begin(), res.covered.end());
  std::set<std::int32_t> consumed(res.consumed.begin(), res.consumed.end());
  for (std::int32_t c : consumed) EXPECT_FALSE(covered.contains(c));
}

TEST(PartialCover, InactiveClustersUntouched) {
  auto r = clusters_from({{0, 1}, {1, 2}, {4, 5}}, 6);
  std::vector<char> active = {1, 0, 1};
  auto res = run(r, active, 6, 2);
  // Cluster 1 is inactive: never covered, never consumed.
  for (std::int32_t c : res.covered) EXPECT_NE(c, 1);
  for (std::int32_t c : res.consumed) EXPECT_NE(c, 1);
}

TEST(PartialCover, CenterIsSeedOfFirstCluster) {
  auto r = clusters_from({{5, 1}, {1, 2}}, 6);
  std::vector<char> active(r.size(), 1);
  auto res = run(r, active, 6, 2);
  ASSERT_FALSE(res.merged.empty());
  EXPECT_EQ(res.merged[0].center, 5);
}

TEST(PartialCover, ChainMergesRespectGrowthBound) {
  // A long chain of pairwise-overlapping clusters; with k=2 the growth
  // condition |Z| <= sqrt(|R|) |Y| stops the merge early, consuming the
  // boundary clusters without covering them.
  std::vector<std::vector<NodeId>> raw;
  for (NodeId i = 0; i < 16; ++i) raw.push_back({i, static_cast<NodeId>(i + 1)});
  auto r = clusters_from(std::move(raw), 20);
  std::vector<char> active(r.size(), 1);
  auto res = run(r, active, 20, 2);
  EXPECT_FALSE(res.merged.empty());
  std::size_t processed = res.covered.size() + res.consumed.size();
  EXPECT_EQ(processed, r.size());  // the chain all intersects transitively
  EXPECT_LT(res.covered.size(), r.size());  // some were merely consumed
}

TEST(PartialCover, RejectsBadK) {
  auto r = clusters_from({{0}}, 1);
  std::vector<char> active = {1};
  EXPECT_THROW(run(r, active, 1, 1), std::invalid_argument);
}

TEST(PartialCover, RejectsAnIndexThatIsNotTheInverse) {
  auto r = clusters_from({{0, 1}, {1, 2}}, 3);
  const std::vector<char> active(r.size(), 1);
  Collection wrong_n = r;
  wrong_n.containing = containing_index(r.clusters, 4);  // sized for 4 nodes
  EXPECT_THROW(run(wrong_n, active, 3, 2), std::invalid_argument);
  Collection short_index = r;
  short_index.containing.members.pop_back();  // drops a membership
  short_index.containing.offsets.back() -= 1;
  EXPECT_THROW(run(short_index, active, 3, 2), std::invalid_argument);
  Collection bad_id = r;
  bad_id.containing.members.front() = 7;  // no cluster 7
  EXPECT_THROW(run(bad_id, active, 3, 2), std::invalid_argument);
}

TEST(PartialCover, EmptyActiveSetYieldsNothing) {
  auto r = clusters_from({{0, 1}}, 2);
  std::vector<char> active = {0};
  auto res = run(r, active, 2, 2);
  EXPECT_TRUE(res.merged.empty());
  EXPECT_TRUE(res.covered.empty());
}

}  // namespace
}  // namespace rtr
