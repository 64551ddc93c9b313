// The roundtrip distance metric and the Init_v total order (Sections 1.1, 2).
//
//   r(u,v) = d(u,v) + d(v,u)   -- the minimum cost of a directed tour from u
//                                 through v back to u; symmetric, and it
//                                 satisfies the triangle inequality.
//
// For each node v, the paper fixes the total order Init_v over V:
//   u comes before w  iff  r(v,u) < r(v,w),
//                     or   r equal and d(u,v) < d(w,v),
//                     or   both equal and name(u) < name(w).
// (d(u,v) is the distance *toward* v; ties end at the adversarial name, which
// keeps the order topology-independent-friendly and total.)
//
// Neighborhoods N_i(u) are prefixes of Init_u: the first n^{i/k} nodes
// (Section 3.1); the stretch-6 scheme's N(u) is the k=2, i=1 case (first
// ceil(sqrt(n)) nodes).  Init_v starts with v itself since r(v,v) = 0.
//
// Two interchangeable backends implement the metric:
//
//   * DenseRoundtripMetric  -- the full APSP matrix; O(1) d/r lookups, O(n^2)
//     8-byte memory.  The MetricMode::kDense backend and the test oracle.
//   * SparseRoundtripMetric -- a pure function of its graph: every query
//     searches and leaves nothing behind.  A ball is one budget-pruned
//     bidirectional search (roundtrip_ball_bounded), and an Init prefix a
//     few of them probing for a radius, so both cost about what the ball
//     costs, O~(sqrt n) nodes for the paper's constructions; a d/r pair is
//     one exact point-to-point search per direction; a roundtrip row is one
//     full sweep per direction.  Results
//     are identical to the dense backend by construction (pinned by the
//     differential suite in tests/sparse_metric_test.cpp).
//
// Whole-metric readers (rt_diameter, the cover hierarchy's seed balls, the
// exstretch/polystretch dictionaries) read roundtrip rows r(v, .), one node
// at a time (roundtrip_row) or all in one stream (for_each_roundtrip_row).
// The dense backend streams them from cache-line-wide tiles of D and its
// transpose.  The sparse one fills each row from two sweeps in O(n) memory
// and streams blocks of rows filled on the ticket pool; under kAuto up to
// kDenseMetricAutoThreshold nodes, whole_levels() first fills the symmetric
// n x n table R of 4-byte roundtrip distances (n forward sweeps, then one
// in-place transpose-add), and r and every row read R's contiguous rows.
#ifndef RTR_RT_METRIC_H
#define RTR_RT_METRIC_H

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <span>
#include <vector>

#include "graph/apsp.h"
#include "graph/digraph.h"

namespace rtr {

/// Roundtrip metric over a strongly connected digraph.  Also exposes the
/// cover-construction vocabulary of Section 4: balls, rows, diameter.
/// Implementations must be safe to query concurrently from many threads
/// (the QueryEngine pool and the parallel scheme builders do exactly that).
class RoundtripMetric {
 public:
  virtual ~RoundtripMetric() = default;

  [[nodiscard]] virtual NodeId node_count() const = 0;

  /// One-way distance d(u,v).
  [[nodiscard]] virtual Dist d(NodeId u, NodeId v) const = 0;

  /// Roundtrip distance r(u,v) = d(u,v) + d(v,u).
  [[nodiscard]] virtual Dist r(NodeId u, NodeId v) const = 0;

  /// First min(size, n) nodes of Init_v (the neighborhood ball N(v) /
  /// N_i(v)); size n gives the whole order.  names[x] is the TINN name of
  /// internal node x.
  [[nodiscard]] virtual std::vector<NodeId> neighborhood(
      NodeId v, NodeId size, std::span<const NodeName> names) const = 0;

  /// Closed roundtrip ball N-hat^d(v) = { w : r(v,w) <= d } (Section 4),
  /// ascending by node id.
  [[nodiscard]] virtual std::vector<NodeId> ball(NodeId v, Dist radius) const = 0;

  /// The Thorup-Zwick center step for every node at once: nearest_idx[v] /
  /// nearest_r[v] receive the index into `candidates` of the candidate
  /// nearest to v by roundtrip distance (ties toward the earlier list
  /// position) and that distance; -1 / kInfDist only when `candidates` is
  /// empty.  The base implementation scans r(v, c) per node; the sparse
  /// backend overrides it with |candidates| global sweeps, since the answer
  /// genuinely needs the distances to ALL candidates.
  virtual void nearest_all(const std::vector<NodeId>& candidates, int threads,
                           std::vector<std::int32_t>& nearest_idx,
                           std::vector<Dist>& nearest_r) const;

  /// Hint that `neighborhood(v, want, ...)` is about to be asked for every
  /// node.  Answers are identical with or without the call; backends may use
  /// it to amortize work.  The sparse backend measures the critical q-NN
  /// radius on a deterministic pilot sample and starts each count search
  /// there, instead of walking a doubling ladder whose overshoot probes
  /// explore near-whole-graph one-directional balls on expander-like
  /// families.  Base implementation is a no-op.
  virtual void prepare_neighborhoods(NodeId want, int threads) const {
    (void)want;
    (void)threads;
  }

  /// Fills row[u] = r(v,u) for every u in [0, n); row.size() must be n.
  /// O(n) memory beyond the backend's own state, safe to call from many
  /// threads at once, each with its own row.
  virtual void roundtrip_row(NodeId v, std::span<Dist> row) const = 0;

  /// Receives one roundtrip row: row[u] = r(v,u) for every u in [0, n).
  using RowVisitor = std::function<void(NodeId v, std::span<const Dist> row)>;

  /// Streams every node's roundtrip row: calls visit(v, row) once per node,
  /// v ascending, on the calling thread.  `row` is valid only during the
  /// call.  Costs O(n^2) time but holds only a bounded block of rows beyond
  /// the backend's own state.
  virtual void for_each_roundtrip_row(const RowVisitor& visit) const = 0;

  /// RTDiam(G) = max over pairs of r(u,v), from one pass over the rows.
  [[nodiscard]] Dist rt_diameter() const;

  /// Called by a whole-level consumer before it reads every pair; returns
  /// *this.  Whole-level consumers are the cover hierarchy (every roundtrip
  /// row once, for the diameter and every level's balls) and the
  /// exstretch/polystretch dictionaries (one roundtrip row per node).  The
  /// base does nothing; an auto-mode sparse metric at n <=
  /// kDenseMetricAutoThreshold fills its roundtrip table on the first call.
  [[nodiscard]] virtual const RoundtripMetric& whole_levels() const {
    return *this;
  }
};

/// Dense backend: the full APSP matrix.
class DenseRoundtripMetric final : public RoundtripMetric {
 public:
  /// Computes APSP internally.  Throws if g is not strongly connected.
  explicit DenseRoundtripMetric(const Digraph& g);

  /// Takes a precomputed APSP matrix (must match g).
  DenseRoundtripMetric(const Digraph& g, DistMatrix apsp);

  [[nodiscard]] NodeId node_count() const override { return d_.size(); }
  [[nodiscard]] Dist d(NodeId u, NodeId v) const override { return d_.at(u, v); }
  [[nodiscard]] Dist r(NodeId u, NodeId v) const override {
    return d_.at(u, v) + d_.at(v, u);
  }
  [[nodiscard]] std::vector<NodeId> neighborhood(
      NodeId v, NodeId size, std::span<const NodeName> names) const override;
  [[nodiscard]] std::vector<NodeId> ball(NodeId v, Dist radius) const override;
  /// d(v,u) from row v of D, d(u,v) from column v.
  void roundtrip_row(NodeId v, std::span<Dist> row) const override;
  /// Serves kRowTile rows at a time from one tile of D and the matching
  /// kRowTile-wide column strip of D, read row by row: r(v,u) = d(v,u) +
  /// d(u,v), and d(u, v0 .. v0+kRowTile) is contiguous in row u.
  void for_each_roundtrip_row(const RowVisitor& visit) const override;

  [[nodiscard]] const DistMatrix& distances() const { return d_; }

 private:
  /// Rows per tile: one 64-byte cache line of each D row's column strip.
  static constexpr NodeId kRowTile = 8;

  DistMatrix d_;
};

/// Sparse backend: a pure function of its graph, holding no per-node state.
/// Every query runs its own search on per-thread scratch and keeps nothing:
///   * ball(v, R) is one roundtrip_ball_bounded search with budget R, which
///     settles only the ball members and the half-radius one-directional
///     balls around them -- never the near-n one-directional balls that a
///     pair of radius-R Dijkstras would explore on expander-like graphs;
///   * neighborhood(v, k) searches for a radius whose ball holds at least k
///     members (doubling, then binary search while the ball overshoots
///     kCountSlack * k) and returns the Init_v prefix of that ball;
///   * d/r run exact point-to-point searches;
///   * roundtrip_row runs one full sweep per direction.
/// Concurrent queries share nothing but the hint atomics, and answers never
/// depend on the query history, so any build schedule (serial, parallel,
/// any thread count) observes identical results.
///
/// The one exception is the roundtrip table R that an auto-mode metric
/// fills for whole-level consumers: n^2 4-byte entries, R[u][v] = r(u,v),
/// half the APSP matrix and already summed, so r and rows read it without
/// gathering a column.  It is filled only when every roundtrip distance
/// fits: 2(n-1) * max_weight <= INT32_MAX.
class SparseRoundtripMetric final : public RoundtripMetric {
 public:
  /// Keeps shared ownership of g and materializes its reversal once.  Throws
  /// if g is not strongly connected.  With `whole_level_table` (and entries
  /// that fit in 32 bits), the first whole_levels() call fills the roundtrip
  /// table and r/rows read it from then on.  `threads` (<= 0 resolves via
  /// default_apsp_threads) is the fan-out of the table fill and of the row
  /// stream.
  explicit SparseRoundtripMetric(std::shared_ptr<const Digraph> g,
                                 bool whole_level_table = false,
                                 int threads = 0);

  [[nodiscard]] NodeId node_count() const override {
    return graph_->node_count();
  }
  [[nodiscard]] Dist d(NodeId u, NodeId v) const override;
  [[nodiscard]] Dist r(NodeId u, NodeId v) const override;
  [[nodiscard]] std::vector<NodeId> neighborhood(
      NodeId v, NodeId size, std::span<const NodeName> names) const override;
  [[nodiscard]] std::vector<NodeId> ball(NodeId v, Dist radius) const override;
  void nearest_all(const std::vector<NodeId>& candidates, int threads,
                   std::vector<std::int32_t>& nearest_idx,
                   std::vector<Dist>& nearest_r) const override;
  void prepare_neighborhoods(NodeId want, int threads) const override;
  void roundtrip_row(NodeId v, std::span<Dist> row) const override;
  /// From the table if it is filled.  Otherwise workers sweep blocks of rows
  /// (about kStreamBlockBytes each) while the calling thread visits the
  /// previous block's rows, v ascending.
  void for_each_roundtrip_row(const RowVisitor& visit) const override;
  [[nodiscard]] const RoundtripMetric& whole_levels() const override;

  /// Whether the roundtrip table has been filled.
  [[nodiscard]] bool holds_roundtrip_table() const {
    return table_.load(std::memory_order_acquire) != nullptr;
  }

 private:
  /// Finds a radius whose complete roundtrip ball around v holds at least
  /// `want` members (want in [1, n]) and leaves that ball in this thread's
  /// scratch: doubles the probe radius until enough members appear, then
  /// narrows by binary search while the member count overshoots
  /// kCountSlack * want, so the ball stays near the request even on
  /// expander-like graphs where ball sizes jump sharply with radius.  With
  /// the roundtrip table filled, the least such radius is read off row v
  /// and searched once.  Returns the radius.
  Dist count_ball(NodeId v, NodeId want) const;

  /// Fills the roundtrip table and publishes it to table_.
  void fill_roundtrip_table() const;

  /// The ball count_ball returns may overshoot the request by at most this
  /// factor, unless the member count jumps past it at a single radius.
  static constexpr NodeId kCountSlack = 4;
  /// Pilot sample size for prepare_neighborhoods.
  static constexpr NodeId kHintPilots = 16;
  /// Side of the square tiles the table's transpose-add walks: two 64 x 64
  /// tiles of 4-byte entries fit in L1.
  static constexpr NodeId kTableTile = 64;
  /// Target bytes of one block of streamed rows.
  static constexpr std::size_t kStreamBlockBytes = std::size_t{2} << 20;

  std::shared_ptr<const Digraph> graph_;
  Digraph reversed_;
  Dist seed_radius_;  // first probe radius of an unhinted count search
  /// Median count_ball radius of the prepare_neighborhoods pilots (-1 until
  /// prepared) and the count it was measured for.  Read relaxed inside
  /// count_ball: any stale or torn view only changes which budgets get
  /// probed, never which nodes an answer holds.
  mutable std::atomic<Dist> hint_radius_{-1};
  mutable std::atomic<NodeId> hint_want_{0};
  const bool table_eligible_;
  const int threads_;
  /// The roundtrip table whole_levels() fills (once, under table_once_);
  /// `table_` publishes it to r/rows without taking the once flag.
  mutable std::once_flag table_once_;
  mutable std::unique_ptr<std::int32_t[]> table_owner_;
  mutable std::atomic<const std::int32_t*> table_{nullptr};
};

/// Which backend BuildContext / the bench harness should materialize.
enum class MetricMode {
  kAuto,    // sparse searches; whole-level consumers get the roundtrip table up to the cap
  kDense,   // the APSP matrix, built up front
  kSparse,  // sparse searches only; rows are always swept
};

/// Largest node count at which an auto-mode metric's whole_levels() fills
/// the roundtrip table.  Up to here the table is at most 64 MB, and the
/// cover schemes, which read every pair anyway, read its rows instead of
/// sweeping each row twice; beyond it they read swept rows.  Consumers that
/// read only O~(sqrt n) balls (rtz3, stretch6, hashed64) never fill it.
inline constexpr NodeId kDenseMetricAutoThreshold = 4096;

/// Parses "auto" / "dense" / "sparse"; throws std::invalid_argument otherwise.
[[nodiscard]] MetricMode parse_metric_mode(const std::string& text);
[[nodiscard]] const char* metric_mode_name(MetricMode mode);

/// Builds the backend `mode` selects for this graph.  kAuto and kSparse cost
/// O(m) here (one reversal, one SCC check); kDense pays the APSP.  `threads`
/// (<= 0 resolves via default_apsp_threads) feeds the APSP fan-out for
/// kDense, and the table fill and row stream for kAuto and kSparse; other
/// sparse queries search on the querying threads.
[[nodiscard]] std::shared_ptr<const RoundtripMetric> make_roundtrip_metric(
    std::shared_ptr<const Digraph> graph, MetricMode mode = MetricMode::kAuto,
    int threads = 0);

/// Induced roundtrip distances within a member set: r restricted to paths
/// whose every node lies in the member mask.  Used by Section 4's clusters,
/// whose radii are measured in the induced subgraph.  Returns the induced
/// roundtrip distance center<->v for every member (kInfDist if not strongly
/// connected within the mask).
[[nodiscard]] std::vector<Dist> induced_roundtrip_from(
    const Digraph& g, const Digraph& reversed, NodeId center,
    const std::vector<char>& member_mask);

}  // namespace rtr

#endif  // RTR_RT_METRIC_H
