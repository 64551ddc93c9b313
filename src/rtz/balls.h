// Thorup-Zwick-style balls over the roundtrip metric.
//
//   r(v, A)    = min over centers a of r(v, a)
//   Ball(v)    = { w : r(v,w) < r(v,A) } union {v}
//   Cluster(w) = { v : w in Ball(v) }
//
// Key closure property (the reason per-ball double trees are well-defined and
// cheap; proved here, exploited by Rtz3Scheme, verified in tests):
//
//   If w is in Ball(v) and x lies on any shortest v->w or w->v path, then x
//   is in Ball(v).  Proof: x lies on a directed cycle through v of length
//   d(v,w)+d(w,v) = r(v,w), so r(v,x) <= r(v,w) < r(v,A).
//
// Consequently the subgraph induced by Ball(v) contains shortest v->w and
// w->v paths for every member w, so in/out trees inside the ball realize the
// exact global distances.
//
// Storage is flat and relocatable: ball and cluster rows live in CSR arrays
// (offsets + one members array each) behind FlatVec, so a BallSystem either
// owns its arrays or views them inside a mapped snapshot arena (io/arena.h)
// with zero copying.
#ifndef RTR_RTZ_BALLS_H
#define RTR_RTZ_BALLS_H

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "rt/metric.h"
#include "util/flat_vec.h"

namespace rtr {

class AuditReport;
class ArenaStorage;  // io/arena.h
class ArenaView;
class ArenaWriter;

struct BallSystem {
  FlatVec<NodeId> centers;               // sorted
  FlatVec<std::int32_t> center_index_of; // per node: index in centers or -1
  FlatVec<Dist> r_to_centers;            // r(v, A)
  FlatVec<std::int32_t> nearest_center;  // index into centers
  // Ball/cluster rows in CSR form: row v is members[off[v] .. off[v+1]),
  // sorted ascending, v (resp. w) included.
  FlatVec<std::int64_t> ball_off;        // n + 1
  FlatVec<NodeId> ball_members;
  FlatVec<std::int64_t> cluster_off;     // n + 1
  FlatVec<NodeId> cluster_members;
  /// Keepalive when the arrays are views into a mapped arena.
  std::shared_ptr<const ArenaStorage> arena;

  [[nodiscard]] NodeId node_count() const {
    return ball_off.empty() ? 0 : static_cast<NodeId>(ball_off.size() - 1);
  }
  [[nodiscard]] std::span<const NodeId> ball(NodeId v) const {
    const auto lo = static_cast<std::size_t>(ball_off[static_cast<std::size_t>(v)]);
    const auto hi =
        static_cast<std::size_t>(ball_off[static_cast<std::size_t>(v) + 1]);
    return {ball_members.data() + lo, hi - lo};
  }
  [[nodiscard]] std::span<const NodeId> cluster(NodeId v) const {
    const auto lo =
        static_cast<std::size_t>(cluster_off[static_cast<std::size_t>(v)]);
    const auto hi =
        static_cast<std::size_t>(cluster_off[static_cast<std::size_t>(v) + 1]);
    return {cluster_members.data() + lo, hi - lo};
  }

  [[nodiscard]] std::int64_t max_ball_size() const;
  [[nodiscard]] std::int64_t max_cluster_size() const;

  /// Packs materialized rows into the CSR arrays (construction; also handy
  /// for tests that need to damage a row).
  void adopt_rows(const std::vector<std::vector<NodeId>>& ball_rows,
                  const std::vector<std::vector<NodeId>>& cluster_rows);

  /// Appends every array as one arena section under `prefix` (e.g.
  /// "scheme/balls/").
  void save_arena(ArenaWriter& w, const std::string& prefix) const;

  /// Rebuilds a BallSystem as zero-copy views into an arena.  Validates CSR
  /// well-formedness (offsets monotone, front 0, back matching the members
  /// array) so a CRC-valid-but-inconsistent region fails loudly.
  [[nodiscard]] static BallSystem from_arena(const ArenaView& a,
                                             const std::string& prefix);

  /// Auditable: array sizing, sorted/unique center set with a consistent
  /// inverse index, finite r(v, A) with a valid nearest center, well-formed
  /// CSR offsets, sorted ball and cluster rows that are exact duals of each
  /// other (w in Ball(v) iff v in Cluster(w)), centers owning the singleton
  /// ball {c}, and the Lemma 2 O~(sqrt n) size budget (ball_slack *
  /// sqrt(n ln n)) on the largest ball and cluster.
  void audit(AuditReport& report) const;
};

/// Computes balls and clusters for a given center set.  Per-node work
/// (nearest center + ball membership) fans out over `threads` workers
/// (<= 0 resolves the process default); the result is a pure function of
/// (metric, centers) for any thread count.  Ball membership is served by
/// metric.nearest() + metric.ball(), so the sparse backend answers from
/// one bounded-Dijkstra row per node instead of n full r() lookups.
[[nodiscard]] BallSystem build_ball_system(const RoundtripMetric& metric,
                                           std::vector<NodeId> centers,
                                           int threads = 1);

}  // namespace rtr

#endif  // RTR_RTZ_BALLS_H
