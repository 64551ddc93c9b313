// Algorithm Cover (paper Fig. 8) and the Theorem 10 guarantees.
//
// Seeds R = { N-hat^d(v) : v in V } (closed roundtrip balls of radius d);
// repeatedly runs PartialCover, removing covered seeds, until R is empty.
// Lemma 12 bounds the number of rounds by 2k n^{1/k}, which also bounds how
// many clusters any vertex appears in (Theorem 10(3)) because each round's
// output clusters are pairwise disjoint (Lemma 11(2)).
//
// Output guarantees (all verified by tests/bench):
//   (1) every node v has a home cluster fully containing N-hat^d(v),
//   (2) the cluster radius from its center, measured *inside the induced
//       subgraph*, is at most (2k-1) d,
//   (3) every node appears in at most 2k n^{1/k} clusters.
//
// The seed balls come from the metric's streamed roundtrip rows
// (RoundtripMetric::for_each_roundtrip_row), never from per-node ball()
// calls: one pass over the rows yields every ball at one radius
// (roundtrip_balls) or at every doubling radius (RoundtripBallLevels).
#ifndef RTR_COVER_SPARSE_COVER_H
#define RTR_COVER_SPARSE_COVER_H

#include <cstdint>
#include <vector>

#include "cover/partial_cover.h"
#include "rt/metric.h"

namespace rtr {

/// The closed roundtrip ball N-hat^radius(v) of every node v: rows[v] lists
/// its members ascending.  Roundtrip balls are symmetric (w is in v's ball
/// iff v is in w's), so `rows` is also its own inverse index.
struct RoundtripBalls {
  Dist radius = 0;
  NodeSets rows;
};

/// Every node's ball at `radius`, from one pass over the metric's rows.
[[nodiscard]] RoundtripBalls roundtrip_balls(const RoundtripMetric& metric,
                                             Dist radius);

/// Every pair's doubling level, from one pass over the metric's rows: the
/// level of (v, u) is the smallest i >= 0 with r(v,u) <= 2^(i+1), stored as
/// one byte per pair (n^2 bytes in all).  Level i's balls, at radius
/// 2^(i+1), are then one byte scan per row.
class RoundtripBallLevels {
 public:
  explicit RoundtripBallLevels(const RoundtripMetric& metric);

  /// RTDiam(G), the largest roundtrip distance the pass saw.
  [[nodiscard]] Dist diameter() const { return diameter_; }
  /// Levels up to the first whose radius 2^(i+1) reaches the diameter (at
  /// least one): the levels a cover hierarchy builds.
  [[nodiscard]] std::int32_t level_count() const;
  /// The balls at level i (radius 2^(i+1)), each row sized exactly.
  [[nodiscard]] RoundtripBalls balls(std::int32_t level) const;

 private:
  NodeId n_ = 0;
  Dist diameter_ = 0;
  std::vector<std::uint8_t> level_;  // row-major n x n
};

struct SparseCoverResult {
  Dist d = 0;
  int k = 0;
  std::vector<MergedCluster> clusters;
  /// Per node: index into `clusters` of a cluster containing N-hat^d(v)
  /// (the merged cluster that absorbed v's seed ball).
  std::vector<std::int32_t> home_of;
  /// Number of PartialCover rounds Cover() ran (Lemma 12's quantity).
  int rounds = 0;

  /// How many clusters contain node v (Theorem 10(3)'s quantity).
  [[nodiscard]] std::vector<std::int32_t> membership_counts(NodeId n) const;
};

/// Builds the Theorem 10 cover at radius balls.radius from the seed balls.
/// Precondition: the rows are symmetric (w in row v iff v in row w), as
/// roundtrip balls are; PartialCover reads them as their own inverse index.
[[nodiscard]] SparseCoverResult build_sparse_cover(const RoundtripBalls& balls,
                                                   int k);

}  // namespace rtr

#endif  // RTR_COVER_SPARSE_COVER_H
