#include "rt/metric.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "graph/dijkstra.h"
#include "graph/scc.h"
#include "util/parallel.h"

namespace rtr {

std::int32_t RoundtripMetric::nearest(
    NodeId v, const std::vector<NodeId>& candidates) const {
  std::int32_t best = -1;
  Dist best_r = kInfDist;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const Dist rv = r(v, candidates[i]);
    if (rv < best_r) {
      best_r = rv;
      best = static_cast<std::int32_t>(i);
    }
  }
  return best;
}

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
      const std::int32_t best = nearest(v, candidates);
      nearest_idx[vz] = best;
      nearest_r[vz] = r(v, candidates[static_cast<std::size_t>(best)]);
    };
  });
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

std::vector<NodeId> DenseRoundtripMetric::init_order(
    NodeId v, std::span<const NodeName> names) const {
  std::vector<NodeId> order(static_cast<std::size_t>(node_count()));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    const Dist ra = r(v, a), rb = r(v, b);
    if (ra != rb) return ra < rb;
    const Dist da = d(a, v), db = d(b, v);
    if (da != db) return da < db;
    return names[static_cast<std::size_t>(a)] < names[static_cast<std::size_t>(b)];
  });
  return order;
}

std::vector<NodeId> DenseRoundtripMetric::neighborhood(
    NodeId v, NodeId size, std::span<const NodeName> names) const {
  auto order = init_order(v, names);
  order.resize(static_cast<std::size_t>(
      std::min<NodeId>(size, node_count())));
  return order;
}

std::vector<NodeId> DenseRoundtripMetric::ball(NodeId v, Dist radius) const {
  std::vector<NodeId> members;
  for (NodeId w = 0; w < node_count(); ++w) {
    if (r(v, w) <= radius) members.push_back(w);
  }
  return members;
}

Dist DenseRoundtripMetric::rt_radius_from(NodeId v) const {
  Dist mx = 0;
  for (NodeId u = 0; u < node_count(); ++u) mx = std::max(mx, r(v, u));
  return mx;
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

// Bounded-run scratch, thread-local so lazily expanding rows from the
// QueryEngine pool or a parallel scheme build never shares buffers.  The
// dist arrays reset sparsely (touched lists), so reuse across rows, graphs,
// and metrics is free; buffers grow to the largest graph seen per thread.
struct BoundedScratch {
  BoundedDijkstraWorkspace fwd;
  BoundedDijkstraWorkspace rev;
  std::vector<BoundedReach> fwd_out;
  std::vector<BoundedReach> rev_out;
  RoundtripBallWorkspace rt;
  std::vector<RoundtripReach> ball_out;
};

BoundedScratch& bounded_scratch() {
  thread_local BoundedScratch scratch;
  return scratch;
}

// Doubling schedule for open-ended row growth: seed first, then double the
// covered radius, saturating at kInfDist (forces a full row).
Dist next_radius(Dist covered, Dist seed) {
  if (covered < seed) return seed;
  return covered > kInfDist / 2 ? kInfDist : covered * 2;
}

// One both-directions bounded sweep from v: fills scratch.fwd_out/rev_out
// with the nodes settled within `limit` in each direction.  After the call,
// scratch.rev.dist[u] holds the exact d(u, v) for every u in rev_out (and
// kInfDist semantics for the rest of the touched set), valid until the next
// reverse run on this thread.
void bounded_sweep(const Digraph& g, const Digraph& reversed, NodeId v,
                   Dist limit, BoundedScratch& scratch) {
  scratch.fwd_out.clear();
  scratch.rev_out.clear();
  dijkstra_bounded(g, v, limit, scratch.fwd, scratch.fwd_out);
  dijkstra_bounded(reversed, v, limit, scratch.rev, scratch.rev_out);
}

}  // namespace

SparseRoundtripMetric::SparseRoundtripMetric(std::shared_ptr<const Digraph> g,
                                             bool whole_level_matrix,
                                             int threads)
    : graph_(std::move(g)),
      reversed_(graph_->reversed()),
      // A few hops' worth of the heaviest edge: small enough that a seed row
      // stays tiny, large enough that the first expansion usually catches the
      // immediate roundtrip neighbours (min r to a neighbour is >= 2 weights).
      seed_radius_(std::max<Dist>(1, 4 * graph_->max_weight())),
      rows_(static_cast<std::size_t>(graph_->node_count())),
      locks_(static_cast<std::size_t>(graph_->node_count())),
      whole_level_matrix_(whole_level_matrix),
      threads_(threads) {
  if (!is_strongly_connected(*graph_)) {
    throw std::invalid_argument(
        "RoundtripMetric: graph must be strongly connected");
  }
}

void SparseRoundtripMetric::rebuild_row_from_ball(Row& row,
                                                  Dist covered) const {
  const BoundedScratch& scratch = bounded_scratch();
  row.entries.clear();
  row.entries.reserve(scratch.ball_out.size());
  for (const RoundtripReach& m : scratch.ball_out) {
    row.entries.push_back(Entry{m.node, m.d_out + m.d_in, m.d_out, m.d_in});
  }
  // (r, d_in, node id): the Init_v order up to the per-call name tie-break,
  // which queries apply themselves -- one metric may serve several
  // NameAssignments (hashed64 builds its own).
  std::sort(row.entries.begin(), row.entries.end(),
            [](const Entry& a, const Entry& b) {
              if (a.r != b.r) return a.r < b.r;
              if (a.d_in != b.d_in) return a.d_in < b.d_in;
              return a.node < b.node;
            });
  row.covered = covered;
  row.full = row.entries.size() == static_cast<std::size_t>(
                                       rows_.size());
  row.by_id.resize(row.entries.size());
  std::iota(row.by_id.begin(), row.by_id.end(), 0);
  std::sort(row.by_id.begin(), row.by_id.end(),
            [&](std::int32_t a, std::int32_t b) {
              return row.entries[static_cast<std::size_t>(a)].node <
                     row.entries[static_cast<std::size_t>(b)].node;
            });
}

void SparseRoundtripMetric::expand_to_radius(NodeId v, Row& row,
                                             Dist radius) const {
  if (row.full || row.covered >= radius) return;
  BoundedScratch& scratch = bounded_scratch();
  scratch.ball_out.clear();
  roundtrip_ball_bounded(*graph_, reversed_, v, radius, scratch.rt,
                         scratch.ball_out);
  rebuild_row_from_ball(row, radius);
}

void SparseRoundtripMetric::expand_to_count(NodeId v, Row& row,
                                            NodeId want) const {
  const NodeId n = graph_->node_count();
  want = std::min<NodeId>(want, n);
  // Every row entry is a certified ball member (r <= covered), so the row's
  // size IS its complete count.
  if (row.full || static_cast<NodeId>(row.entries.size()) >= want) return;
  BoundedScratch& scratch = bounded_scratch();
  // Probes are capped at the overshoot allowance: a budget past the critical
  // radius answers "more than cap" (-1) after O(cap) confirmations instead
  // of walking the whole oversize ball (which on expander-like graphs is
  // most of the graph one doubling past the request).
  const std::int64_t cap = static_cast<std::int64_t>(kCountSlack) * want;
  // Radius whose *complete* ball scratch currently holds, or -1.
  Dist held = -1;
  const auto probe = [&](Dist budget, std::int64_t probe_cap) {
    scratch.ball_out.clear();
    const bool complete = roundtrip_ball_bounded(
        *graph_, reversed_, v, budget, scratch.rt, scratch.ball_out,
        probe_cap);
    held = complete ? budget : -1;
    return complete ? static_cast<std::int64_t>(scratch.ball_out.size())
                    : std::int64_t{-1};
  };
  // Exponential phase: grow the budget until the ball holds enough members
  // (strong connectivity guarantees all n appear eventually) or overshoots
  // the cap.  When prepare_neighborhoods has published a pilot radius for a
  // request this large, the first probe past it lands there and further
  // growth is a gentle 1.25x: critical radii concentrate sharply across
  // nodes, so most rows resolve in one near-critical probe and the doubling
  // ladder's expensive overshoot budgets (where one-directional balls
  // approach the whole graph on expander-like families) are never visited.
  const Dist hint = hint_radius_.load(std::memory_order_relaxed);
  const NodeId hint_want = hint_want_.load(std::memory_order_relaxed);
  const bool hinted = hint > 0 && hint_want > 0 && want >= hint_want;
  const auto step = [&](Dist cur) {
    if (!hinted) return next_radius(cur, seed_radius_);
    if (cur < hint) return hint;
    return cur > kInfDist / 2 ? kInfDist : cur + std::max<Dist>(1, cur / 4);
  };
  Dist lo = std::max<Dist>(row.covered, 0);  // member count at lo is < want
  Dist hi = step(lo);
  std::int64_t cnt_hi = probe(hi, cap);  // -1 means more than cap
  while (cnt_hi >= 0 && cnt_hi < want) {
    lo = hi;
    hi = step(hi);
    cnt_hi = probe(hi, cap);
  }
  // Refinement phase: binary-search an over-cap budget down until the
  // committed row is within the allowance of the request.  If the window
  // collapses while still over cap, the member count jumps past the cap at a
  // single radius and the minimal sufficient budget hi must be committed
  // with its full ball.
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
  if (held != hi) probe(hi, -1);  // scratch must hold the committed ball
  rebuild_row_from_ball(row, hi);
}

const SparseRoundtripMetric::Entry* SparseRoundtripMetric::find_entry(
    const Row& row, NodeId u) const {
  const auto it = std::lower_bound(
      row.by_id.begin(), row.by_id.end(), u,
      [&](std::int32_t idx, NodeId val) {
        return row.entries[static_cast<std::size_t>(idx)].node < val;
      });
  if (it == row.by_id.end()) return nullptr;
  const Entry& e = row.entries[static_cast<std::size_t>(*it)];
  return e.node == u ? &e : nullptr;
}

std::optional<SparseRoundtripMetric::Entry> SparseRoundtripMetric::cached_pair(
    NodeId u, NodeId v) const {
  const std::lock_guard<std::mutex> lock(locks_[static_cast<std::size_t>(u)]);
  if (const Entry* e = find_entry(rows_[static_cast<std::size_t>(u)], v)) {
    return *e;
  }
  return std::nullopt;
}

// A miss is one exact search per direction that stops at its target.  It
// grows no row: sampled pairs (stretch denominators) are far apart, and
// covering r(u,v) would hold about half the graph per source.
Dist SparseRoundtripMetric::d(NodeId u, NodeId v) const {
  if (const DenseRoundtripMetric* m = matrix_.load(std::memory_order_acquire)) {
    return m->d(u, v);
  }
  if (const auto e = cached_pair(u, v)) return e->d_out;
  return dijkstra_point_to_point(*graph_, u, v, bounded_scratch().fwd);
}

Dist SparseRoundtripMetric::r(NodeId u, NodeId v) const {
  if (const DenseRoundtripMetric* m = matrix_.load(std::memory_order_acquire)) {
    return m->r(u, v);
  }
  if (const auto e = cached_pair(u, v)) return e->r;
  BoundedDijkstraWorkspace& ws = bounded_scratch().fwd;
  return dijkstra_point_to_point(*graph_, u, v, ws) +
         dijkstra_point_to_point(*graph_, v, u, ws);
}

std::vector<NodeId> SparseRoundtripMetric::init_order(
    NodeId v, std::span<const NodeName> names) const {
  return neighborhood(v, node_count(), names);
}

std::vector<NodeId> SparseRoundtripMetric::neighborhood(
    NodeId v, NodeId size, std::span<const NodeName> names) const {
  const std::lock_guard<std::mutex> lock(locks_[static_cast<std::size_t>(v)]);
  Row& row = rows_[static_cast<std::size_t>(v)];
  expand_to_count(v, row, size);
  // Every entry is complete (r <= covered) and the set is downward-closed
  // under the (r, d_in) major keys, so refining its order with the per-call
  // name tie-break and truncating reproduces the dense Init_v prefix exactly.
  const std::size_t complete = row.entries.size();
  std::vector<std::int32_t> idx(complete);
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(), [&](std::int32_t a, std::int32_t b) {
    const Entry& ea = row.entries[static_cast<std::size_t>(a)];
    const Entry& eb = row.entries[static_cast<std::size_t>(b)];
    if (ea.r != eb.r) return ea.r < eb.r;
    if (ea.d_in != eb.d_in) return ea.d_in < eb.d_in;
    return names[static_cast<std::size_t>(ea.node)] <
           names[static_cast<std::size_t>(eb.node)];
  });
  const auto take = std::min<std::size_t>(
      static_cast<std::size_t>(std::max<NodeId>(size, 0)), idx.size());
  std::vector<NodeId> out;
  out.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    out.push_back(row.entries[static_cast<std::size_t>(idx[i])].node);
  }
  return out;
}

std::vector<NodeId> SparseRoundtripMetric::ball(NodeId v, Dist radius) const {
  const std::lock_guard<std::mutex> lock(locks_[static_cast<std::size_t>(v)]);
  Row& row = rows_[static_cast<std::size_t>(v)];
  expand_to_radius(v, row, std::max<Dist>(radius, 0));
  std::vector<NodeId> members;
  for (const Entry& e : row.entries) {
    if (e.r <= radius) members.push_back(e.node);
  }
  std::sort(members.begin(), members.end());
  return members;
}

std::int32_t SparseRoundtripMetric::nearest(
    NodeId v, const std::vector<NodeId>& candidates) const {
  if (candidates.empty()) return -1;
  const std::lock_guard<std::mutex> lock(locks_[static_cast<std::size_t>(v)]);
  Row& row = rows_[static_cast<std::size_t>(v)];
  for (;;) {
    std::int32_t best = -1;
    Dist best_r = kInfDist;
    // Every row entry has r <= covered, so any present candidate beats all
    // absent ones (their r exceeds covered) and the scan is decisive as
    // soon as one candidate appears.
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const Entry* e = find_entry(row, candidates[i]);
      if (e == nullptr) continue;
      if (e->r < best_r) {
        best_r = e->r;
        best = static_cast<std::int32_t>(i);
      }
    }
    if (best != -1 || row.full) return best;
    expand_to_radius(v, row, next_radius(row.covered, seed_radius_));
  }
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
  // |candidates| global sweeps instead of n row expansions: per-node rows
  // can only certify a nearest center by covering out to it, which on
  // expander-like graphs means near-full rows and O(n^2) resident entries.
  // Two full Dijkstras per candidate give every node's r(v, c) at once;
  // chunking bounds the resident distance rows to 2 * kSweepChunk * n.
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
    // nearest()'s earliest-list-position tie-break exactly.
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
  (void)threads;  // pilots run serially: kHintPilots rows, each one ladder
  const NodeId n = node_count();
  want = std::min<NodeId>(want, n);
  if (want <= 0 || want >= n) return;  // full rows have no critical radius
  // Deterministic evenly spaced pilots: expand each through the regular
  // (unhinted) ladder and publish the median committed radius.  A pilot row
  // holding >= want entries is already past its critical radius, so every
  // sample is an upper bound and the median resists fat outlier rows left by
  // earlier pair queries.  Row contents stay schedule-independent, so the
  // hint only redirects probe budgets -- answers are identical with or
  // without it.
  std::vector<Dist> radii;
  radii.reserve(static_cast<std::size_t>(kHintPilots));
  for (NodeId i = 0; i < kHintPilots && i < n; ++i) {
    const NodeId v = static_cast<NodeId>(
        (static_cast<std::int64_t>(i) * n) / kHintPilots);
    const std::lock_guard<std::mutex> lock(locks_[static_cast<std::size_t>(v)]);
    Row& row = rows_[static_cast<std::size_t>(v)];
    expand_to_count(v, row, want);
    radii.push_back(row.covered);
  }
  if (radii.empty()) return;
  std::sort(radii.begin(), radii.end());
  hint_radius_.store(radii[radii.size() / 2], std::memory_order_relaxed);
  hint_want_.store(want, std::memory_order_relaxed);
}

void SparseRoundtripMetric::prepare_all_pairs(int threads) const {
  if (matrix_.load(std::memory_order_acquire) != nullptr) return;
  // Each full row depends only on v, so any schedule commits the same rows.
  parallel_tickets(node_count(), resolve_apsp_threads(threads), [&] {
    return [&](std::int64_t ticket) {
      const auto v = static_cast<std::size_t>(ticket);
      const std::lock_guard<std::mutex> lock(locks_[v]);
      expand_to_radius(static_cast<NodeId>(v), rows_[v], kInfDist);
    };
  });
}

Dist SparseRoundtripMetric::rt_radius_from(NodeId v) const {
  const std::lock_guard<std::mutex> lock(locks_[static_cast<std::size_t>(v)]);
  Row& row = rows_[static_cast<std::size_t>(v)];
  expand_to_radius(v, row, kInfDist);
  Dist mx = 0;
  for (const Entry& e : row.entries) mx = std::max(mx, e.r);
  return mx;
}

void SparseRoundtripMetric::for_each_roundtrip_row(
    const RowVisitor& visit) const {
  if (const DenseRoundtripMetric* m = matrix_.load(std::memory_order_acquire)) {
    m->for_each_roundtrip_row(visit);
    return;
  }
  const NodeId n = graph_->node_count();
  BoundedScratch& scratch = bounded_scratch();
  std::vector<Dist> row(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    // Strongly connected: both unbounded sweeps settle every node.
    bounded_sweep(*graph_, reversed_, v, kInfDist, scratch);
    for (const BoundedReach& f : scratch.fwd_out) {
      const auto u = static_cast<std::size_t>(f.node);
      row[u] = f.dist + scratch.rev.dist[u];
    }
    visit(v, row);
  }
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

std::int64_t SparseRoundtripMetric::cached_entries() const {
  std::int64_t total = 0;
  for (std::size_t v = 0; v < rows_.size(); ++v) {
    const std::lock_guard<std::mutex> lock(locks_[v]);
    total += static_cast<std::int64_t>(rows_[v].entries.size());
  }
  return total;
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
