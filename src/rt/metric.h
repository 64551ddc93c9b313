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
//     memory.  A test oracle, and what whole-level consumers read up to
//     kDenseMetricAutoThreshold nodes (see whole_levels()).
//   * SparseRoundtripMetric -- lazy per-node rows fed by *bounded* Dijkstra
//     (forward on g plus forward on reversed(g), both stopped at a radius).
//     A row covering radius R holds exactly the nodes with r(v,u) <= R, so
//     balls and Init prefixes are served from O(|row|) state and memory grows
//     with what the schemes actually touch -- O~(n sqrt n) for the paper's
//     constructions -- instead of O(n^2).  Rows double their radius on demand;
//     a d/r pair outside the cached rows is one exact point-to-point search.
//     Results are identical to the dense backend by construction (pinned by
//     the differential suite in tests/sparse_metric_test.cpp).
//
// Whole-metric readers (rt_diameter, the cover hierarchy's seed balls) take
// the roundtrip rows r(v, .) in one stream, for_each_roundtrip_row: the
// dense backend serves it from cache-line-wide tiles of D and its
// transpose, the sparse one from one unbounded both-directions sweep per
// node.  Neither walks a matrix column per node.
#ifndef RTR_RT_METRIC_H
#define RTR_RT_METRIC_H

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <span>
#include <vector>

#include "graph/apsp.h"
#include "graph/digraph.h"

namespace rtr {

/// Roundtrip metric over a strongly connected digraph.  Also exposes the
/// cover-construction vocabulary of Section 4: balls, radii, diameter.
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

  /// The full Init_v order: a permutation of V sorted by (r(v,u), d(u,v),
  /// name(u)).  names[x] is the TINN name of internal node x.
  [[nodiscard]] virtual std::vector<NodeId> init_order(
      NodeId v, std::span<const NodeName> names) const = 0;

  /// First `size` nodes of Init_v (the neighborhood ball N(v) / N_i(v)).
  [[nodiscard]] virtual std::vector<NodeId> neighborhood(
      NodeId v, NodeId size, std::span<const NodeName> names) const = 0;

  /// Closed roundtrip ball N-hat^d(v) = { w : r(v,w) <= d } (Section 4),
  /// ascending by node id.
  [[nodiscard]] virtual std::vector<NodeId> ball(NodeId v, Dist radius) const = 0;

  /// Index into `candidates` of the nearest candidate by roundtrip distance
  /// from v; ties break toward the earlier list position.  -1 only when
  /// `candidates` is empty.  Exactly the scan the Thorup-Zwick center step
  /// performs, exposed here so the sparse backend can answer it from one row
  /// expansion instead of |candidates| full r() calls.
  [[nodiscard]] virtual std::int32_t nearest(
      NodeId v, const std::vector<NodeId>& candidates) const;

  /// nearest() for every node at once: nearest_idx[v] / nearest_r[v] receive
  /// the winning candidate index and its roundtrip distance from v (-1 /
  /// kInfDist only when `candidates` is empty).  The base implementation
  /// loops nearest(); the sparse backend overrides it with |candidates|
  /// global sweeps instead of n row expansions -- the one query in the
  /// Thorup-Zwick center step whose answer genuinely needs distances to ALL
  /// candidates, which per-node rows can only certify by growing near-full.
  virtual void nearest_all(const std::vector<NodeId>& candidates, int threads,
                           std::vector<std::int32_t>& nearest_idx,
                           std::vector<Dist>& nearest_r) const;

  /// Hint that `neighborhood(v, want, ...)` is about to be asked for every
  /// node.  Answers are identical with or without the call; backends may use
  /// it to amortize work.  The sparse backend measures the critical q-NN
  /// radius on a deterministic pilot sample and starts each row's budget
  /// search there, instead of walking a doubling ladder whose overshoot
  /// probes explore near-whole-graph one-directional balls on expander-like
  /// families.  Base implementation is a no-op.
  virtual void prepare_neighborhoods(NodeId want, int threads) const {
    (void)want;
    (void)threads;
  }

  /// Hint that r(v, u) is about to be asked for arbitrary pairs from every
  /// node v (the exstretch/polystretch dictionaries' nearest-member scans).
  /// Answers are identical with or without the call.  The sparse backend,
  /// unless it reads a matrix, grows every row to full over `threads`
  /// workers, so those reads are row lookups instead of one point-to-point
  /// search each.  Base implementation is a no-op.
  virtual void prepare_all_pairs(int threads) const { (void)threads; }

  /// max_u r(v,u).
  [[nodiscard]] virtual Dist rt_radius_from(NodeId v) const = 0;

  /// Receives one roundtrip row: row[u] = r(v,u) for every u in [0, n).
  using RowVisitor = std::function<void(NodeId v, std::span<const Dist> row)>;

  /// Streams every node's roundtrip row: calls visit(v, row) once per node,
  /// v ascending, on the calling thread.  `row` is valid only during the
  /// call.  This is the one way to read the whole metric: it costs O(n^2)
  /// time but only O(n) memory beyond the backend's own state, and no backend
  /// walks a column of the distance matrix to serve it.
  virtual void for_each_roundtrip_row(const RowVisitor& visit) const = 0;

  /// RTDiam(G) = max over pairs of r(u,v), from one pass over the rows.
  [[nodiscard]] Dist rt_diameter() const;

  /// The metric a whole-level consumer reads, with answers identical to
  /// this one.  Whole-level consumers are the cover hierarchy (every
  /// roundtrip row once, for the diameter and every level's balls) and the
  /// exstretch/polystretch dictionaries (r() between arbitrarily far pairs).
  /// Those touch every pair, so a matrix pays for itself there.  The base
  /// returns *this; an auto-mode sparse metric at n <=
  /// kDenseMetricAutoThreshold materialises the APSP matrix on the first call.
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
  [[nodiscard]] std::vector<NodeId> init_order(
      NodeId v, std::span<const NodeName> names) const override;
  [[nodiscard]] std::vector<NodeId> neighborhood(
      NodeId v, NodeId size, std::span<const NodeName> names) const override;
  [[nodiscard]] std::vector<NodeId> ball(NodeId v, Dist radius) const override;
  [[nodiscard]] Dist rt_radius_from(NodeId v) const override;
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

/// Sparse backend: lazy per-node rows fed by the bidirectional roundtrip-ball
/// search (roundtrip_ball_bounded).  A row for v is complete up to its covered
/// radius R -- it lists every u with r(v,u) <= R, each with exact d(v,u) and
/// d(u,v) -- and grows by doubling R (recomputing from scratch, ~2x the final
/// cost) whenever a ball, Init prefix or nearest query needs more.  d(u,v)
/// and r(u,v) read row u when it holds v; otherwise they run exact
/// point-to-point searches and grow no row, so sampled pair checks (stretch
/// denominators) leave no state behind.  The budget search is load-bearing for
/// the memory bound: the row holds exactly the roundtrip-ball members, never
/// the near-n one-directional balls that a pair of radius-R Dijkstras would
/// certify with on expander-like graphs, so resident entries track O~(ball)
/// and total memory stays O~(n sqrt n) for the paper's constructions.
/// Count-driven requests (neighborhoods) narrow the probe radius by binary
/// search, so committed rows overshoot the request by a bounded factor
/// instead of a radius-doubling jump.  Rows are guarded by per-node mutexes,
/// so concurrent queries are safe; answers never depend on the expansion
/// history, so any build schedule (serial, parallel, any thread count)
/// observes identical results.
class SparseRoundtripMetric final : public RoundtripMetric {
 public:
  /// Keeps shared ownership of g and materializes its reversal once.  Throws
  /// if g is not strongly connected.  With `whole_level_matrix`, the first
  /// whole_levels() call builds the dense APSP matrix (`threads` wide, <= 0
  /// resolves via default_apsp_threads) and d/r read it from then on; without
  /// it whole_levels() returns *this.
  explicit SparseRoundtripMetric(std::shared_ptr<const Digraph> g,
                                 bool whole_level_matrix = false,
                                 int threads = 0);

  [[nodiscard]] NodeId node_count() const override {
    return graph_->node_count();
  }
  [[nodiscard]] Dist d(NodeId u, NodeId v) const override;
  [[nodiscard]] Dist r(NodeId u, NodeId v) const override;
  [[nodiscard]] std::vector<NodeId> init_order(
      NodeId v, std::span<const NodeName> names) const override;
  [[nodiscard]] std::vector<NodeId> neighborhood(
      NodeId v, NodeId size, std::span<const NodeName> names) const override;
  [[nodiscard]] std::vector<NodeId> ball(NodeId v, Dist radius) const override;
  [[nodiscard]] std::int32_t nearest(
      NodeId v, const std::vector<NodeId>& candidates) const override;
  void nearest_all(const std::vector<NodeId>& candidates, int threads,
                   std::vector<std::int32_t>& nearest_idx,
                   std::vector<Dist>& nearest_r) const override;
  void prepare_neighborhoods(NodeId want, int threads) const override;
  void prepare_all_pairs(int threads) const override;
  [[nodiscard]] Dist rt_radius_from(NodeId v) const override;
  /// One full both-directions sweep per node, streamed and never cached, so
  /// the O(n^2) distances stay out of memory; reads the matrix instead once
  /// whole_levels() has built it.
  void for_each_roundtrip_row(const RowVisitor& visit) const override;
  [[nodiscard]] const RoundtripMetric& whole_levels() const override;

  /// Resident entry count across all cached rows (memory diagnostics).
  [[nodiscard]] std::int64_t cached_entries() const;

 private:
  struct Entry {
    NodeId node = kNoNode;
    Dist r = kInfDist;
    Dist d_out = kInfDist;  // d(v, node)
    Dist d_in = kInfDist;   // d(node, v)
  };
  struct Row {
    Dist covered = -1;  // complete for every u with r(v,u) <= covered
    bool full = false;  // all n nodes present (covered is then RTRadius(v))
    std::vector<Entry> entries;       // sorted by (r, d_in, node)
    std::vector<std::int32_t> by_id;  // entry indices sorted by node id
  };

  /// Grows row v until covered >= radius (kInfDist forces a full row) with
  /// one roundtrip-budget search; the rebuilt row holds exactly the ball
  /// members, so resident memory tracks ball sizes, not the one-directional
  /// balls the exploration transits.  Caller must hold locks_[v].
  void expand_to_radius(NodeId v, Row& row, Dist radius) const;
  /// Grows row v until it holds >= want complete entries (capped at full):
  /// doubles the probe radius until enough members appear, then narrows by
  /// binary search while the member count overshoots kCountSlack * want, so
  /// the committed row stays near the request even on expander-like graphs
  /// where ball sizes jump sharply with radius.  Caller must hold locks_[v].
  void expand_to_count(NodeId v, Row& row, NodeId want) const;
  /// Rebuilds row entries/by_id from the thread-local ball scratch
  /// (roundtrip_ball_bounded output) and stamps the covered radius.
  void rebuild_row_from_ball(Row& row, Dist covered) const;
  [[nodiscard]] const Entry* find_entry(const Row& row, NodeId u) const;
  /// Row u's entry for v when the row already holds it; never expands.
  [[nodiscard]] std::optional<Entry> cached_pair(NodeId u, NodeId v) const;

  /// Committed rows may overshoot a count request by at most this factor.
  static constexpr NodeId kCountSlack = 4;
  /// Pilot sample size for prepare_neighborhoods.
  static constexpr NodeId kHintPilots = 16;

  std::shared_ptr<const Digraph> graph_;
  Digraph reversed_;
  Dist seed_radius_;  // first expansion radius guess
  /// Median committed radius of the prepare_neighborhoods pilot rows (-1
  /// until prepared) and the count it was measured for.  Read relaxed inside
  /// expand_to_count: any stale or torn view only changes which budgets get
  /// probed, never what a committed row contains.
  mutable std::atomic<Dist> hint_radius_{-1};
  mutable std::atomic<NodeId> hint_want_{0};
  mutable std::vector<Row> rows_;
  mutable std::vector<std::mutex> locks_;
  const bool whole_level_matrix_;
  const int threads_;
  /// The matrix whole_levels() materialises (once, under matrix_once_);
  /// `matrix_` publishes it to d/r without taking the once flag.
  mutable std::once_flag matrix_once_;
  mutable std::unique_ptr<const DenseRoundtripMetric> matrix_owner_;
  mutable std::atomic<const DenseRoundtripMetric*> matrix_{nullptr};
};

/// Which backend BuildContext / the bench harness should materialize.
enum class MetricMode {
  kAuto,    // sparse rows; whole-level consumers get the matrix up to the cap
  kDense,   // the APSP matrix, built up front
  kSparse,  // sparse rows only; whole_levels() never builds a matrix
};

/// Largest node count at which an auto-mode metric's whole_levels()
/// materialises the APSP matrix.  Up to here the matrix is at most 134 MB and
/// its O(1) lookups beat rows grown to full for the cover schemes, which
/// touch every pair anyway; beyond it they answer from rows.  Consumers that
/// read only O~(sqrt n) balls (rtz3, stretch6, hashed64) never build it.
inline constexpr NodeId kDenseMetricAutoThreshold = 4096;

/// Parses "auto" / "dense" / "sparse"; throws std::invalid_argument otherwise.
[[nodiscard]] MetricMode parse_metric_mode(const std::string& text);
[[nodiscard]] const char* metric_mode_name(MetricMode mode);

/// Builds the backend `mode` selects for this graph.  kAuto and kSparse cost
/// O(m) here (one reversal, one SCC check); kDense pays the APSP.  `threads`
/// feeds the APSP fan-out, up front for kDense and on the first
/// whole_levels() call for kAuto (<= 0 resolves via default_apsp_threads);
/// sparse rows expand lazily on querying threads instead.
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
