// Algorithm PartialCover (paper Fig. 7, after Awerbuch-Peleg sparse
// partitions [8], generalized to any distance metric per Theorem 10).
//
// Input: a collection R of clusters (each a vertex set grown around a seed).
// Output:
//   * DT -- disjoint merged clusters Y, each formed by repeatedly absorbing
//     every remaining cluster that intersects it until the count stops
//     growing by a factor |R|^{1/k} (at most k rounds, Lemma 11(4): radius
//     blowup <= 2k-1);
//   * DR -- the input clusters fully covered by some Y (Lemma 11(1)).
// Clusters that intersected a Y but were not merged into it are *removed*
// from the active set without being covered; the outer Cover loop re-feeds
// them to later PartialCover rounds (Lemma 12 bounds the rounds).
#ifndef RTR_COVER_PARTIAL_COVER_H
#define RTR_COVER_PARTIAL_COVER_H

#include <cstdint>
#include <span>
#include <vector>

#include "util/types.h"

namespace rtr {

/// Sets of ids in CSR form: set i is members[offsets[i] .. offsets[i+1]),
/// ascending.  Holds clusters (sets of nodes) and their inverse index (per
/// node, the ids of the clusters containing it).
struct NodeSets {
  std::vector<std::int64_t> offsets{0};
  std::vector<NodeId> members;

  [[nodiscard]] std::int32_t count() const {
    return static_cast<std::int32_t>(offsets.size() - 1);
  }
  [[nodiscard]] std::span<const NodeId> operator[](std::int32_t i) const {
    const auto at = static_cast<std::size_t>(i);
    return {members.data() + offsets[at],
            static_cast<std::size_t>(offsets[at + 1] - offsets[at])};
  }
};

/// A merged output cluster Y.  `center` is the seed of the first cluster
/// selected (S_0), which the Lemma 11(4) induction measures radii from.
struct MergedCluster {
  NodeId center = kNoNode;
  std::vector<NodeId> members;           // sorted ascending
  std::vector<std::int32_t> absorbed;    // indices into R of the Y-clusters
};

struct PartialCoverResult {
  std::vector<MergedCluster> merged;   // DT
  std::vector<std::int32_t> covered;   // DR (indices into R)
  std::vector<std::int32_t> consumed;  // Z \ Y: removed but not covered
};

/// Runs one PartialCover pass over the clusters flagged active.  Cluster c
/// is clusters[c], grown around seeds[c].  `containing` is the inverse
/// index: containing[v] lists, ascending, every cluster (active or not) with
/// v as a member; the pass reads it instead of rebuilding it.  Roundtrip
/// balls are symmetric (w in N-hat^d(v) iff v in N-hat^d(w)), so for the
/// seed balls of Theorem 10 the clusters themselves are their own inverse
/// index.  n is the graph's node count; k the tradeoff parameter (> 1).
[[nodiscard]] PartialCoverResult partial_cover(
    std::span<const NodeId> seeds, const NodeSets& clusters,
    const NodeSets& containing, const std::vector<char>& active, NodeId n,
    int k);

}  // namespace rtr

#endif  // RTR_COVER_PARTIAL_COVER_H
