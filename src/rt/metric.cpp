#include "rt/metric.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "graph/dijkstra.h"
#include "graph/scc.h"
#include "util/parallel.h"

namespace rtr {

void RoundtripMetric::nearest_all(const std::vector<NodeId>& candidates,
                                  int threads,
                                  std::vector<std::int32_t>& nearest_idx,
                                  std::vector<Dist>& nearest_r) const {
  const NodeId n = node_count();
  nearest_idx.assign(static_cast<std::size_t>(n), -1);
  nearest_r.assign(static_cast<std::size_t>(n), kInfDist);
  if (candidates.empty()) return;
  const int workers = resolve_apsp_threads(threads);
  parallel_tickets(n, workers, [&] {
    return [&](std::int64_t ticket) {
      const auto v = static_cast<NodeId>(ticket);
      const auto vz = static_cast<std::size_t>(v);
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        const Dist rv = r(v, candidates[i]);
        if (rv < nearest_r[vz]) {
          nearest_r[vz] = rv;
          nearest_idx[vz] = static_cast<std::int32_t>(i);
        }
      }
    };
  });
}

void RoundtripMetric::for_each_roundtrip_row(const RowVisitor& visit) const {
  const NodeId n = node_count();
  std::vector<Dist> row(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    roundtrip_row(v, row);
    visit(v, row);
  }
}

Dist RoundtripMetric::rt_diameter() const {
  Dist mx = 0;
  for_each_roundtrip_row([&](NodeId, std::span<const Dist> row) {
    for (const Dist r : row) mx = std::max(mx, r);
  });
  return mx;
}

// ---------------------------------------------------- DenseRoundtripMetric --

DenseRoundtripMetric::DenseRoundtripMetric(const Digraph& g)
    : DenseRoundtripMetric(g, all_pairs_shortest_paths(g)) {}

DenseRoundtripMetric::DenseRoundtripMetric(const Digraph& g, DistMatrix apsp)
    : d_(std::move(apsp)) {
  if (d_.size() != g.node_count()) {
    throw std::invalid_argument("RoundtripMetric: matrix size mismatch");
  }
  if (!is_strongly_connected(g)) {
    throw std::invalid_argument(
        "RoundtripMetric: graph must be strongly connected");
  }
}

std::vector<NodeId> DenseRoundtripMetric::neighborhood(
    NodeId v, NodeId size, std::span<const NodeName> names) const {
  std::vector<NodeId> order(static_cast<std::size_t>(node_count()));
  std::iota(order.begin(), order.end(), 0);
  const auto take = static_cast<std::ptrdiff_t>(
      std::clamp<NodeId>(size, 0, node_count()));
  std::partial_sort(
      order.begin(), order.begin() + take, order.end(),
      [&](NodeId a, NodeId b) {
        const Dist ra = r(v, a), rb = r(v, b);
        if (ra != rb) return ra < rb;
        const Dist da = d(a, v), db = d(b, v);
        if (da != db) return da < db;
        return names[static_cast<std::size_t>(a)] <
               names[static_cast<std::size_t>(b)];
      });
  order.resize(static_cast<std::size_t>(take));
  return order;
}

std::vector<NodeId> DenseRoundtripMetric::ball(NodeId v, Dist radius) const {
  std::vector<NodeId> members;
  for (NodeId w = 0; w < node_count(); ++w) {
    if (r(v, w) <= radius) members.push_back(w);
  }
  return members;
}

void DenseRoundtripMetric::roundtrip_row(NodeId v, std::span<Dist> row) const {
  const std::span<const Dist> out = d_.row(v);
  for (NodeId u = 0; u < node_count(); ++u) {
    const auto uz = static_cast<std::size_t>(u);
    row[uz] = out[uz] + d_.at(u, v);
  }
}

void DenseRoundtripMetric::for_each_roundtrip_row(
    const RowVisitor& visit) const {
  const NodeId n = node_count();
  const auto nz = static_cast<std::size_t>(n);
  std::vector<Dist> tile(static_cast<std::size_t>(kRowTile) * nz);
  for (NodeId v0 = 0; v0 < n; v0 += kRowTile) {
    const auto rows = static_cast<std::size_t>(std::min(kRowTile, n - v0));
    for (NodeId u = 0; u < n; ++u) {
      const auto uz = static_cast<std::size_t>(u);
      const Dist* to_tile = d_.row(u).data() + v0;  // d(u, v0 + j)
      for (std::size_t j = 0; j < rows; ++j) {
        tile[j * nz + uz] =
            d_.at(v0 + static_cast<NodeId>(j), u) + to_tile[j];
      }
    }
    for (std::size_t j = 0; j < rows; ++j) {
      visit(v0 + static_cast<NodeId>(j),
            std::span<const Dist>(tile.data() + j * nz, nz));
    }
  }
}

// --------------------------------------------------- SparseRoundtripMetric --

namespace {

// Search scratch, thread-local so queries from the QueryEngine pool or a
// parallel scheme build never share buffers.  The bounded runs reset their
// dist arrays sparsely (touched lists), so reuse across queries, graphs and
// metrics is free; buffers grow to the largest graph seen per thread.
struct SearchScratch {
  BoundedDijkstraWorkspace pair;      // point-to-point d/r
  RoundtripBallWorkspace rt;          // balls and count searches
  std::vector<RoundtripReach> ball;   // the last complete ball searched
  DijkstraWorkspace sweep;            // full sweeps for roundtrip rows
  std::vector<Dist> back;             // d(., v) during a row sweep
};

SearchScratch& search_scratch() {
  thread_local SearchScratch scratch;
  return scratch;
}

// Doubling schedule for open-ended radius growth: seed first, then double,
// saturating at kInfDist (the whole graph).
Dist next_radius(Dist radius, Dist seed) {
  if (radius < seed) return seed;
  return radius > kInfDist / 2 ? kInfDist : radius * 2;
}

}  // namespace

SparseRoundtripMetric::SparseRoundtripMetric(std::shared_ptr<const Digraph> g,
                                             bool whole_level_matrix,
                                             int threads)
    : graph_(std::move(g)),
      reversed_(graph_->reversed()),
      // A few hops' worth of the heaviest edge: small enough that a seed ball
      // stays tiny, large enough that the first probe usually catches the
      // immediate roundtrip neighbours (min r to a neighbour is >= 2 weights).
      seed_radius_(std::max<Dist>(1, 4 * graph_->max_weight())),
      whole_level_matrix_(whole_level_matrix),
      threads_(threads) {
  if (!is_strongly_connected(*graph_)) {
    throw std::invalid_argument(
        "RoundtripMetric: graph must be strongly connected");
  }
}

Dist SparseRoundtripMetric::count_ball(NodeId v, NodeId want) const {
  SearchScratch& scratch = search_scratch();
  // Probes are capped at the overshoot allowance: a budget past the critical
  // radius answers "more than cap" (-1) after O(cap) confirmations instead
  // of walking the whole oversize ball (which on expander-like graphs is
  // most of the graph one doubling past the request).
  const std::int64_t cap = static_cast<std::int64_t>(kCountSlack) * want;
  // Radius whose *complete* ball scratch currently holds, or -1.
  Dist held = -1;
  const auto probe = [&](Dist budget, std::int64_t probe_cap) {
    scratch.ball.clear();
    const bool complete = roundtrip_ball_bounded(
        *graph_, reversed_, v, budget, scratch.rt, scratch.ball, probe_cap);
    held = complete ? budget : -1;
    return complete ? static_cast<std::int64_t>(scratch.ball.size())
                    : std::int64_t{-1};
  };
  // Exponential phase: grow the budget until the ball holds enough members
  // (strong connectivity guarantees all n appear eventually) or overshoots
  // the cap.  When prepare_neighborhoods has published a pilot radius for a
  // request this large, the first probe lands there and further growth is a
  // gentle 1.25x: critical radii concentrate sharply across nodes, so most
  // searches resolve in one near-critical probe and the doubling ladder's
  // expensive overshoot budgets (where one-directional balls approach the
  // whole graph on expander-like families) are never visited.
  const Dist hint = hint_radius_.load(std::memory_order_relaxed);
  const NodeId hint_want = hint_want_.load(std::memory_order_relaxed);
  const bool hinted = hint > 0 && hint_want > 0 && want >= hint_want;
  const auto step = [&](Dist cur) {
    if (!hinted) return next_radius(cur, seed_radius_);
    if (cur < hint) return hint;
    return cur > kInfDist / 2 ? kInfDist : cur + std::max<Dist>(1, cur / 4);
  };
  Dist lo = 0;
  Dist hi = step(lo);
  std::int64_t cnt_hi = probe(hi, cap);  // -1 means more than cap
  while (cnt_hi >= 0 && cnt_hi < want) {
    lo = hi;
    hi = step(hi);
    cnt_hi = probe(hi, cap);
  }
  // Refinement phase: binary-search an over-cap budget down until the ball
  // is within the allowance of the request.  If the window collapses while
  // still over cap, the member count jumps past the cap at a single radius
  // and the minimal sufficient budget hi must be taken with its full ball.
  while (cnt_hi < 0 && hi - lo > 1) {
    const Dist mid = lo + (hi - lo) / 2;
    const std::int64_t cnt = probe(mid, cap);
    if (cnt >= 0 && cnt < want) {
      lo = mid;
    } else {
      hi = mid;
      cnt_hi = cnt;
    }
  }
  if (held != hi) probe(hi, -1);  // scratch must hold the complete ball
  return hi;
}

// One exact search per direction that stops at its target.
Dist SparseRoundtripMetric::d(NodeId u, NodeId v) const {
  if (const DenseRoundtripMetric* m = matrix_.load(std::memory_order_acquire)) {
    return m->d(u, v);
  }
  return dijkstra_point_to_point(*graph_, u, v, search_scratch().pair);
}

Dist SparseRoundtripMetric::r(NodeId u, NodeId v) const {
  if (const DenseRoundtripMetric* m = matrix_.load(std::memory_order_acquire)) {
    return m->r(u, v);
  }
  BoundedDijkstraWorkspace& ws = search_scratch().pair;
  return dijkstra_point_to_point(*graph_, u, v, ws) +
         dijkstra_point_to_point(*graph_, v, u, ws);
}

std::vector<NodeId> SparseRoundtripMetric::neighborhood(
    NodeId v, NodeId size, std::span<const NodeName> names) const {
  const NodeId want = std::min<NodeId>(size, node_count());
  if (want <= 0) return {};
  (void)count_ball(v, want);
  // The ball holds every u with r(v,u) <= its radius and nothing beyond, so
  // it is downward-closed under Init_v's major key r: its Init order,
  // truncated, is the Init_v prefix.
  std::vector<RoundtripReach>& ball = search_scratch().ball;
  const auto take = static_cast<std::ptrdiff_t>(want);
  std::partial_sort(ball.begin(), ball.begin() + take, ball.end(),
                    [&](const RoundtripReach& a, const RoundtripReach& b) {
                      const Dist ra = a.d_out + a.d_in, rb = b.d_out + b.d_in;
                      if (ra != rb) return ra < rb;
                      if (a.d_in != b.d_in) return a.d_in < b.d_in;
                      return names[static_cast<std::size_t>(a.node)] <
                             names[static_cast<std::size_t>(b.node)];
                    });
  std::vector<NodeId> out(static_cast<std::size_t>(want));
  std::transform(ball.begin(), ball.begin() + take, out.begin(),
                 [](const RoundtripReach& m) { return m.node; });
  return out;
}

std::vector<NodeId> SparseRoundtripMetric::ball(NodeId v, Dist radius) const {
  if (radius < 0) return {};
  SearchScratch& scratch = search_scratch();
  scratch.ball.clear();
  roundtrip_ball_bounded(*graph_, reversed_, v, radius, scratch.rt,
                         scratch.ball);
  std::vector<NodeId> members(scratch.ball.size());
  std::transform(scratch.ball.begin(), scratch.ball.end(), members.begin(),
                 [](const RoundtripReach& m) { return m.node; });
  std::sort(members.begin(), members.end());
  return members;
}

void SparseRoundtripMetric::nearest_all(const std::vector<NodeId>& candidates,
                                        int threads,
                                        std::vector<std::int32_t>& nearest_idx,
                                        std::vector<Dist>& nearest_r) const {
  const NodeId n = node_count();
  nearest_idx.assign(static_cast<std::size_t>(n), -1);
  nearest_r.assign(static_cast<std::size_t>(n), kInfDist);
  if (candidates.empty()) return;
  const int workers = resolve_apsp_threads(threads);
  // |candidates| global sweeps instead of one search per node: a per-node
  // search can only certify its nearest center by covering out to it, which
  // on expander-like graphs means near-whole-graph searches.  Two full
  // Dijkstras per candidate give every node's r(v, c) at once; chunking
  // bounds the resident distance rows to 2 * kSweepChunk * n.
  constexpr std::size_t kSweepChunk = 32;
  std::vector<std::vector<Dist>> fwd(kSweepChunk);
  std::vector<std::vector<Dist>> rev(kSweepChunk);
  for (std::size_t base = 0; base < candidates.size(); base += kSweepChunk) {
    const std::size_t chunk = std::min(kSweepChunk, candidates.size() - base);
    parallel_tickets(static_cast<std::int64_t>(chunk), workers, [&] {
      return [&, ws = DijkstraWorkspace{}](std::int64_t k) mutable {
        const auto kz = static_cast<std::size_t>(k);
        const NodeId c = candidates[base + kz];
        fwd[kz].resize(static_cast<std::size_t>(n));
        rev[kz].resize(static_cast<std::size_t>(n));
        dijkstra_distances_into(*graph_, c, ws, fwd[kz]);    // d(c, v)
        dijkstra_distances_into(reversed_, c, ws, rev[kz]);  // d(v, c)
      };
    });
    // Serial merge in ascending candidate order with a strict < reproduces
    // the base scan's earliest-list-position tie-break exactly.
    for (std::size_t k = 0; k < chunk; ++k) {
      const auto idx = static_cast<std::int32_t>(base + k);
      const auto& df = fwd[k];
      const auto& dr = rev[k];
      for (NodeId v = 0; v < n; ++v) {
        const auto vz = static_cast<std::size_t>(v);
        const Dist rv = df[vz] + dr[vz];  // r(v, c) = d(v,c) + d(c,v)
        if (rv < nearest_r[vz]) {
          nearest_r[vz] = rv;
          nearest_idx[vz] = idx;
        }
      }
    }
  }
}

void SparseRoundtripMetric::prepare_neighborhoods(NodeId want,
                                                  int threads) const {
  (void)threads;  // pilots run serially: kHintPilots searches, each one ladder
  const NodeId n = node_count();
  want = std::min<NodeId>(want, n);
  if (want <= 0 || want >= n) return;  // whole orders have no critical radius
  // Deterministic evenly spaced pilots: search each through the regular
  // (unhinted) ladder and publish the median radius.  Every pilot radius
  // holds >= want members, so every sample is an upper bound on its node's
  // critical radius and the median resists outliers.  The hint only
  // redirects probe budgets -- answers are identical with or without it.
  std::vector<Dist> radii;
  radii.reserve(static_cast<std::size_t>(kHintPilots));
  for (NodeId i = 0; i < kHintPilots && i < n; ++i) {
    const NodeId v = static_cast<NodeId>(
        (static_cast<std::int64_t>(i) * n) / kHintPilots);
    radii.push_back(count_ball(v, want));
  }
  std::sort(radii.begin(), radii.end());
  hint_radius_.store(radii[radii.size() / 2], std::memory_order_relaxed);
  hint_want_.store(want, std::memory_order_relaxed);
}

void SparseRoundtripMetric::roundtrip_row(NodeId v, std::span<Dist> row) const {
  if (const DenseRoundtripMetric* m = matrix_.load(std::memory_order_acquire)) {
    m->roundtrip_row(v, row);
    return;
  }
  // Strongly connected: both unbounded sweeps settle every node.
  SearchScratch& scratch = search_scratch();
  scratch.back.resize(row.size());
  dijkstra_distances_into(*graph_, v, scratch.sweep, row);             // d(v, .)
  dijkstra_distances_into(reversed_, v, scratch.sweep, scratch.back);  // d(., v)
  for (std::size_t u = 0; u < row.size(); ++u) row[u] += scratch.back[u];
}

const RoundtripMetric& SparseRoundtripMetric::whole_levels() const {
  if (!whole_level_matrix_) return *this;
  std::call_once(matrix_once_, [this] {
    matrix_owner_ = std::make_unique<const DenseRoundtripMetric>(
        *graph_, all_pairs_shortest_paths(*graph_, threads_));
    matrix_.store(matrix_owner_.get(), std::memory_order_release);
  });
  return *matrix_owner_;
}

// ------------------------------------------------------------- MetricMode --

MetricMode parse_metric_mode(const std::string& text) {
  if (text == "auto") return MetricMode::kAuto;
  if (text == "dense") return MetricMode::kDense;
  if (text == "sparse") return MetricMode::kSparse;
  throw std::invalid_argument(
      "metric mode must be auto, dense, or sparse; got '" + text + "'");
}

const char* metric_mode_name(MetricMode mode) {
  switch (mode) {
    case MetricMode::kAuto: return "auto";
    case MetricMode::kDense: return "dense";
    case MetricMode::kSparse: return "sparse";
  }
  return "auto";
}

std::shared_ptr<const RoundtripMetric> make_roundtrip_metric(
    std::shared_ptr<const Digraph> graph, MetricMode mode, int threads) {
  if (graph == nullptr) {
    throw std::invalid_argument("make_roundtrip_metric: null graph");
  }
  if (mode == MetricMode::kDense) {
    return std::make_shared<const DenseRoundtripMetric>(
        *graph, all_pairs_shortest_paths(*graph, threads));
  }
  const bool whole_level_matrix =
      mode == MetricMode::kAuto &&
      graph->node_count() <= kDenseMetricAutoThreshold;
  return std::make_shared<const SparseRoundtripMetric>(
      std::move(graph), whole_level_matrix, threads);
}

// -------------------------------------------------- induced roundtrip dist --

std::vector<Dist> induced_roundtrip_from(const Digraph& g,
                                         const Digraph& reversed, NodeId center,
                                         const std::vector<char>& member_mask) {
  OutTree out = dijkstra_out_tree_within(g, center, member_mask);
  // In-distance toward center == out-distance from center in reversed graph.
  OutTree in = dijkstra_out_tree_within(reversed, center, member_mask);
  std::vector<Dist> rt(static_cast<std::size_t>(g.node_count()), kInfDist);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    auto idx = static_cast<std::size_t>(v);
    if (!member_mask[idx]) continue;
    if (out.dist[idx] >= kInfDist || in.dist[idx] >= kInfDist) continue;
    rt[idx] = out.dist[idx] + in.dist[idx];
  }
  return rt;
}

}  // namespace rtr
