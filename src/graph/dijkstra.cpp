#include "graph/dijkstra.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <stdexcept>

namespace rtr {

namespace {

using QueueItem = std::pair<Dist, NodeId>;  // (distance, node), min-heap

// Core Dijkstra over the subgraph induced by `mask` (nullptr = whole graph).
// Fills dist (and, when kWithParents, parent/parent_port) relative to `g`, so
// for in-trees the caller passes the reversed graph and reinterprets parents
// as next hops.
//
// The heap lives in a caller-owned buffer driven with std::push_heap /
// std::pop_heap -- exactly the algorithms std::priority_queue is specified
// in terms of, so pop order (and therefore every tie-break) is bit-identical
// to the seed implementation while the buffer's capacity survives across
// runs.  Distance-only runs (kWithParents = false) skip the parent arrays
// entirely: two fewer O(n) fills per run and one fewer store per relaxation.
template <bool kWithParents>
void run_core(const Digraph& g, NodeId src, const std::vector<char>* mask,
              std::span<Dist> dist, std::vector<NodeId>* parent,
              std::vector<Port>* parent_port, std::vector<QueueItem>& heap) {
  const auto n = static_cast<std::size_t>(g.node_count());
  std::fill(dist.begin(), dist.end(), kInfDist);
  if constexpr (kWithParents) {
    parent->assign(n, kNoNode);
    parent_port->assign(n, kNoPort);
  }
  if (mask != nullptr && !(*mask)[static_cast<std::size_t>(src)]) {
    throw std::invalid_argument("dijkstra: source not in member mask");
  }
  heap.clear();
  dist[static_cast<std::size_t>(src)] = 0;
  heap.emplace_back(0, src);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const auto [d, u] = heap.back();
    heap.pop_back();
    if (d != dist[static_cast<std::size_t>(u)]) continue;  // stale entry
    for (const Edge& e : g.out_edges(u)) {
      if (mask != nullptr && !(*mask)[static_cast<std::size_t>(e.to)]) continue;
      const Dist nd = d + e.weight;
      const auto to = static_cast<std::size_t>(e.to);
      if (nd < dist[to]) {
        dist[to] = nd;
        if constexpr (kWithParents) {
          (*parent)[to] = u;
          (*parent_port)[to] = e.port;
        }
        heap.emplace_back(nd, e.to);
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
      }
    }
  }
}

// Tree-shaped run into the tree's own arrays (they must outlive the
// workspace), reusing only the heap buffer.
void run_tree(const Digraph& g, NodeId src, const std::vector<char>* mask,
              std::vector<Dist>& dist, std::vector<NodeId>& parent,
              std::vector<Port>& parent_port, DijkstraWorkspace& ws) {
  dist.resize(static_cast<std::size_t>(g.node_count()));
  run_core<true>(g, src, mask, dist, &parent, &parent_port, ws.heap);
}

}  // namespace

void dijkstra_bounded(const Digraph& g, NodeId src, Dist limit,
                      BoundedDijkstraWorkspace& ws,
                      std::vector<BoundedReach>& out) {
  const auto n = static_cast<std::size_t>(g.node_count());
  if (src < 0 || static_cast<std::size_t>(src) >= n) {
    throw std::invalid_argument("dijkstra_bounded: source out of range");
  }
  // Sparse reset: only slots dirtied by the previous run are re-infinitized,
  // so back-to-back small-radius runs never pay an O(n) fill.
  if (ws.dist.size() < n) ws.dist.assign(n, kInfDist);
  for (const NodeId v : ws.touched) {
    ws.dist[static_cast<std::size_t>(v)] = kInfDist;
  }
  ws.touched.clear();
  ws.heap.clear();
  ws.dist[static_cast<std::size_t>(src)] = 0;
  ws.touched.push_back(src);
  ws.heap.emplace_back(0, src);
  while (!ws.heap.empty()) {
    std::pop_heap(ws.heap.begin(), ws.heap.end(), std::greater<>{});
    const auto [d, u] = ws.heap.back();
    ws.heap.pop_back();
    if (d != ws.dist[static_cast<std::size_t>(u)]) continue;  // stale entry
    out.push_back(BoundedReach{u, d});
    const std::int64_t end = g.arcs_end(u);
    for (std::int64_t i = g.arcs_begin(u); i < end; ++i) {
      const Dist nd = d + g.arc_weight(i);
      if (nd > limit) continue;  // the frontier stops at the radius
      const auto to = static_cast<std::size_t>(g.arc_head(i));
      if (nd < ws.dist[to]) {
        if (ws.dist[to] == kInfDist) ws.touched.push_back(g.arc_head(i));
        ws.dist[to] = nd;
        ws.heap.emplace_back(nd, g.arc_head(i));
        std::push_heap(ws.heap.begin(), ws.heap.end(), std::greater<>{});
      }
    }
  }
}

namespace {

// One half of the tandem roundtrip-ball search.  `mine`/`mine_mark` are this
// direction's state, `other`/`other_mark` the opposite direction's; `frontier`
// of a direction is the smallest valid key in its heap (kInfDist when
// drained).  Pops the next valid entry of `mine`, settles it, and relaxes its
// edges iff the node can still be a ball member.
struct RoundtripSide {
  const Digraph* graph = nullptr;
  BoundedDijkstraWorkspace* ws = nullptr;
  std::vector<std::uint64_t>* mark = nullptr;
};

// Smallest valid heap key of a side, discarding stale tops (a stale top is
// always an already-settled node: any superseded entry has a smaller live
// twin below it, so the minimum is never superseded-stale).
Dist roundtrip_frontier(RoundtripSide& s, std::uint64_t epoch) {
  auto& heap = s.ws->heap;
  while (!heap.empty()) {
    const auto [d, u] = heap.front();
    if ((*s.mark)[static_cast<std::size_t>(u)] != epoch &&
        d == s.ws->dist[static_cast<std::size_t>(u)]) {
      return d;
    }
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    heap.pop_back();
  }
  return kInfDist;
}

}  // namespace

bool roundtrip_ball_bounded(const Digraph& g, const Digraph& reversed,
                            NodeId src, Dist budget,
                            RoundtripBallWorkspace& ws,
                            std::vector<RoundtripReach>& out,
                            std::int64_t member_cap) {
  const auto n = static_cast<std::size_t>(g.node_count());
  if (src < 0 || static_cast<std::size_t>(src) >= n) {
    throw std::invalid_argument("roundtrip_ball_bounded: source out of range");
  }
  if (budget < 0) return true;
  std::int64_t members = 0;
  const std::uint64_t epoch = ++ws.epoch;
  if (ws.fwd_mark.size() < n) ws.fwd_mark.assign(n, 0);
  if (ws.rev_mark.size() < n) ws.rev_mark.assign(n, 0);
  RoundtripSide sides[2] = {{&g, &ws.fwd, &ws.fwd_mark},
                            {&reversed, &ws.rev, &ws.rev_mark}};
  for (RoundtripSide& s : sides) {
    if (s.ws->dist.size() < n) s.ws->dist.assign(n, kInfDist);
    for (const NodeId v : s.ws->touched) {
      s.ws->dist[static_cast<std::size_t>(v)] = kInfDist;
    }
    s.ws->touched.clear();
    s.ws->heap.clear();
    s.ws->dist[static_cast<std::size_t>(src)] = 0;
    s.ws->touched.push_back(src);
    s.ws->heap.emplace_back(0, src);
  }
  for (;;) {
    const Dist kf = roundtrip_frontier(sides[0], epoch);
    const Dist kr = roundtrip_frontier(sides[1], epoch);
    if (kf >= kInfDist && kr >= kInfDist) break;
    // Advance the smaller frontier (forward on ties): balanced half-radius
    // exploration is what keeps both sides small.
    const int side = kf <= kr ? 0 : 1;
    RoundtripSide& s = sides[side];
    RoundtripSide& o = sides[1 - side];
    auto& heap = s.ws->heap;
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const auto [d, u] = heap.back();
    heap.pop_back();
    const auto uz = static_cast<std::size_t>(u);
    (*s.mark)[uz] = epoch;  // settled in this direction; dist[u] is final
    const bool other_settled = (*o.mark)[uz] == epoch;
    if (other_settled) {
      const Dist sum = d + o.ws->dist[uz];
      if (sum > budget) continue;  // proven non-member: never relax
      // Second settle of a member: report it exactly once.
      const Dist d_out = side == 0 ? d : o.ws->dist[uz];
      const Dist d_in = side == 0 ? o.ws->dist[uz] : d;
      out.push_back(RoundtripReach{u, d_out, d_in});
      // A count-probing caller only needs to learn "more than cap members":
      // aborting here caps an overshooting probe at O(cap) confirmations
      // instead of walking the whole oversize ball.
      if (member_cap >= 0 && ++members > member_cap) return false;
    } else {
      // Unsettled in the other direction means its distance there is at
      // least that frontier key, so this test can only cull non-members.
      const Dist other_lb = side == 0 ? kr : kf;
      if (other_lb > budget - d) continue;
    }
    const Digraph& dg = *s.graph;
    const std::int64_t end = dg.arcs_end(u);
    for (std::int64_t i = dg.arcs_begin(u); i < end; ++i) {
      const Dist nd = d + dg.arc_weight(i);
      if (nd > budget) continue;
      const auto to = static_cast<std::size_t>(dg.arc_head(i));
      if (nd < s.ws->dist[to]) {
        if (s.ws->dist[to] == kInfDist) s.ws->touched.push_back(dg.arc_head(i));
        s.ws->dist[to] = nd;
        s.ws->heap.emplace_back(nd, dg.arc_head(i));
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
      }
    }
  }
  return true;
}

std::vector<Dist> dijkstra_distances(const Digraph& g, NodeId src) {
  DijkstraWorkspace ws;
  dijkstra_distances_into(g, src, ws);
  return std::move(ws.dist);
}

void dijkstra_distances_into(const Digraph& g, NodeId src,
                             DijkstraWorkspace& ws) {
  ws.dist.resize(static_cast<std::size_t>(g.node_count()));
  dijkstra_distances_into(g, src, ws, ws.dist);
}

namespace {

// Largest edge weight the Dial bucket queue is used for.  Dial's outer loop
// walks every integer distance up to the max settled distance, so its cost
// is O(m + hop_diameter * max_weight) per source: small weights keep the
// empty-bucket scan negligible, while a large max_weight on a high-diameter
// graph (e.g. a weighted ring) would make the scan dwarf the heap it
// replaces.  64 keeps the worst case (~64n probes) at the same order as the
// heap's m log n while covering every in-repo generator (weights <= 12);
// anything heavier falls back to the binary heap (same distances, different
// queue).
constexpr Weight kDialMaxWeight = 64;

// Dial's empty-bucket scan walks every integer distance up to the max settled
// distance, which is bounded only by (n - 1) * max_weight: on a high-diameter
// graph (e.g. a large weighted ring) that scan balloons to ~n * max_weight
// probes per source and dwarfs both the relaxations and the heap it replaced.
// The weight cap alone does not catch this -- it bounds the bucket *count*,
// not the scan *length*.  Budget the worst-case scan against the relaxation
// work O(m + n): beyond ~8x we fall back to the binary heap (same distances,
// different queue).  Every in-repo generator (weights <= 12, m >= n) stays
// comfortably on the Dial path at any n.
[[nodiscard]] bool dial_scan_within_budget(const Digraph& g) {
  const auto scan = static_cast<std::int64_t>(g.max_weight()) *
                    static_cast<std::int64_t>(g.node_count());
  const std::int64_t work =
      g.edge_count() + static_cast<std::int64_t>(g.node_count());
  return scan <= 8 * work;
}

// Dial's algorithm: a circular bucket queue with max_weight + 1 buckets.
// Dijkstra's settled distances are non-decreasing and every relaxation adds
// at most max_weight, so active keys always span <= max_weight + 1 values --
// bucket (d mod nb) holds exactly the nodes with tentative distance d.  No
// comparisons, no log factor; stale entries are skipped by the dist check
// like the heap path.  Shortest distances are unique, so the result is
// bit-identical to any other Dijkstra regardless of pop order.
void dial_run(const Digraph& g, NodeId src,
              std::vector<std::vector<NodeId>>& buckets, std::span<Dist> out) {
  const auto nb = static_cast<std::size_t>(g.max_weight()) + 1;
  if (buckets.size() < nb) buckets.resize(nb);
  std::int64_t pending = 1;
  out[static_cast<std::size_t>(src)] = 0;
  buckets[0].push_back(src);
  for (Dist d = 0; pending > 0; ++d) {
    auto& bucket = buckets[static_cast<std::size_t>(d) % nb];
    if (bucket.empty()) continue;
    pending -= static_cast<std::int64_t>(bucket.size());
    // Relaxed targets land in other buckets (weights are >= 1 and <= nb - 1),
    // so iterating by index while the vector is stable is safe.
    for (const NodeId u : bucket) {
      if (out[static_cast<std::size_t>(u)] != d) continue;  // stale entry
      const std::int64_t end = g.arcs_end(u);
      for (std::int64_t i = g.arcs_begin(u); i < end; ++i) {
        const Dist nd = d + g.arc_weight(i);
        const auto to = static_cast<std::size_t>(g.arc_head(i));
        if (nd < out[to]) {
          out[to] = nd;
          buckets[static_cast<std::size_t>(nd) % nb].push_back(g.arc_head(i));
          ++pending;
        }
      }
    }
    bucket.clear();
  }
}

}  // namespace

void dijkstra_distances_into(const Digraph& g, NodeId src,
                             DijkstraWorkspace& ws, std::span<Dist> out) {
  if (out.size() != static_cast<std::size_t>(g.node_count())) {
    throw std::invalid_argument(
        "dijkstra_distances_into: output span size != node count");
  }
  std::fill(out.begin(), out.end(), kInfDist);
  if (g.edge_count() > 0 && g.max_weight() <= kDialMaxWeight &&
      dial_scan_within_budget(g)) {
    dial_run(g, src, ws.buckets, out);
    return;
  }
  auto& heap = ws.heap;
  heap.clear();
  out[static_cast<std::size_t>(src)] = 0;
  heap.emplace_back(0, src);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const auto [d, u] = heap.back();
    heap.pop_back();
    if (d != out[static_cast<std::size_t>(u)]) continue;  // stale entry
    const std::int64_t end = g.arcs_end(u);
    for (std::int64_t i = g.arcs_begin(u); i < end; ++i) {
      const Dist nd = d + g.arc_weight(i);
      const auto to = static_cast<std::size_t>(g.arc_head(i));
      if (nd < out[to]) {
        out[to] = nd;
        heap.emplace_back(nd, g.arc_head(i));
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
      }
    }
  }
}

std::vector<Dist> dijkstra_distances_reference(const Digraph& g, NodeId src) {
  // Test oracle: fresh vectors and a std::priority_queue per call.  The
  // tests compare the workspace path and APSP against it.
  const auto n = static_cast<std::size_t>(g.node_count());
  std::vector<Dist> dist(n, kInfDist);
  std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>> pq;
  dist[static_cast<std::size_t>(src)] = 0;
  pq.emplace(0, src);
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (d != dist[static_cast<std::size_t>(u)]) continue;
    for (const Edge& e : g.out_edges(u)) {
      Dist nd = d + e.weight;
      auto to = static_cast<std::size_t>(e.to);
      if (nd < dist[to]) {
        dist[to] = nd;
        pq.emplace(nd, e.to);
      }
    }
  }
  return dist;
}

OutTree dijkstra_out_tree(const Digraph& g, NodeId root) {
  DijkstraWorkspace ws;
  return dijkstra_out_tree(g, root, ws);
}

OutTree dijkstra_out_tree(const Digraph& g, NodeId root, DijkstraWorkspace& ws) {
  OutTree t;
  t.root = root;
  run_tree(g, root, nullptr, t.dist, t.parent, t.parent_port, ws);
  return t;
}

OutTree dijkstra_out_tree_within(const Digraph& g, NodeId root,
                                 const std::vector<char>& member_mask) {
  DijkstraWorkspace ws;
  OutTree t;
  t.root = root;
  run_tree(g, root, &member_mask, t.dist, t.parent, t.parent_port, ws);
  return t;
}

namespace {

// Builds an InTree from a Dijkstra run on the reversed graph.  The reversed
// run's parent[v] is the next hop of v toward the root in the original graph;
// the port must be looked up in the *original* graph because ports are
// per-tail-node and the reversal has fresh ports.
InTree in_tree_from_reversed_run(const Digraph& g, NodeId root,
                                 std::vector<Dist> dist,
                                 std::vector<NodeId> parent) {
  InTree t;
  t.root = root;
  t.dist = std::move(dist);
  t.next = std::move(parent);
  t.next_port.assign(t.next.size(), kNoPort);
  for (std::size_t v = 0; v < t.next.size(); ++v) {
    if (t.next[v] != kNoNode) {
      // Any minimum-weight parallel edge v -> next[v] is fine; Digraph
      // forbids parallel edges so the lookup is unambiguous.
      t.next_port[v] = g.port_of_edge(static_cast<NodeId>(v), t.next[v]);
    }
  }
  return t;
}

InTree in_tree_run(const Digraph& g, const Digraph& reversed, NodeId root,
                   const std::vector<char>* mask, DijkstraWorkspace& ws) {
  std::vector<Dist> dist(static_cast<std::size_t>(reversed.node_count()));
  std::vector<NodeId> parent;
  std::vector<Port> port_unused;
  run_core<true>(reversed, root, mask, dist, &parent, &port_unused, ws.heap);
  return in_tree_from_reversed_run(g, root, std::move(dist), std::move(parent));
}

}  // namespace

InTree dijkstra_in_tree(const Digraph& g, const Digraph& reversed, NodeId root) {
  DijkstraWorkspace ws;
  return in_tree_run(g, reversed, root, nullptr, ws);
}

InTree dijkstra_in_tree(const Digraph& g, const Digraph& reversed, NodeId root,
                        DijkstraWorkspace& ws) {
  return in_tree_run(g, reversed, root, nullptr, ws);
}

InTree dijkstra_in_tree_within(const Digraph& g, const Digraph& reversed,
                               NodeId root, const std::vector<char>& member_mask) {
  DijkstraWorkspace ws;
  return in_tree_run(g, reversed, root, &member_mask, ws);
}

std::optional<std::vector<NodeId>> out_tree_path(const OutTree& t, NodeId v) {
  if (t.dist[static_cast<std::size_t>(v)] >= kInfDist) return std::nullopt;
  std::vector<NodeId> path;
  for (NodeId x = v; x != kNoNode; x = t.parent[static_cast<std::size_t>(x)]) {
    path.push_back(x);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace rtr
