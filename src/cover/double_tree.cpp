#include "cover/double_tree.h"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>

#include "audit/audit.h"

namespace rtr {

namespace {

// Maps the members to their ranks in ws.rank for the scope's lifetime, so
// the workspace is clean again after every build, thrown or not.
class RankBinding {
 public:
  RankBinding(DoubleTreeWorkspace& ws, const std::vector<NodeId>& members)
      : ws_(ws), members_(members) {
    for (std::size_t i = 0; i < members_.size(); ++i) {
      ws_.rank[static_cast<std::size_t>(members_[i])] = static_cast<NodeId>(i);
    }
  }
  ~RankBinding() {
    for (const NodeId v : members_) ws_.rank[static_cast<std::size_t>(v)] = kNoNode;
  }
  RankBinding(const RankBinding&) = delete;
  RankBinding& operator=(const RankBinding&) = delete;

 private:
  DoubleTreeWorkspace& ws_;
  const std::vector<NodeId>& members_;
};

// Dijkstra from rank `root` over `graph` restricted to the members ws.rank
// maps, in member-local form: dist[i], parent[i] (a rank; kNoNode at the
// root and at unreached members) and, when asked, port[i] -- the port of the
// tree edge at the parent.  The heap orders (distance, rank) pairs, which
// compare exactly as (distance, node id) pairs do because ranks follow node
// order; edges relax in the same order too, so the tree is the one
// dijkstra_*_tree_within builds from the members' mask, tie for tie.
void run_among(const Digraph& graph, const std::vector<NodeId>& members,
               NodeId root, DoubleTreeWorkspace& ws, std::vector<Dist>& dist,
               std::vector<NodeId>& parent, std::vector<Port>* port) {
  const auto m = members.size();
  dist.assign(m, kInfDist);
  parent.assign(m, kNoNode);
  if (port != nullptr) port->assign(m, kNoPort);
  auto& heap = ws.heap;
  heap.clear();
  dist[static_cast<std::size_t>(root)] = 0;
  heap.emplace_back(0, root);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const auto [d, u] = heap.back();
    heap.pop_back();
    if (d != dist[static_cast<std::size_t>(u)]) continue;  // stale entry
    for (const Edge& e : graph.out_edges(members[static_cast<std::size_t>(u)])) {
      const NodeId to = ws.rank[static_cast<std::size_t>(e.to)];
      if (to == kNoNode) continue;
      const Dist nd = d + e.weight;
      if (nd < dist[static_cast<std::size_t>(to)]) {
        dist[static_cast<std::size_t>(to)] = nd;
        parent[static_cast<std::size_t>(to)] = u;
        if (port != nullptr) (*port)[static_cast<std::size_t>(to)] = e.port;
        heap.emplace_back(nd, to);
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
      }
    }
  }
}

}  // namespace

DoubleTree::DoubleTree(const Digraph& g, const Digraph& reversed, NodeId center,
                       std::vector<NodeId> members, DoubleTreeWorkspace& ws)
    : center_(center),
      // Fills rt_height_ and the per-rank arrays, declared before the router.
      out_router_(build(g, reversed, std::move(members), ws)) {}

DoubleTree::DoubleTree(const Digraph& g, const Digraph& reversed, NodeId center,
                       std::vector<NodeId> members)
    : center_(center),
      out_router_([&] {
        DoubleTreeWorkspace ws;
        return build(g, reversed, std::move(members), ws);
      }()) {}

TreeRouter DoubleTree::build(const Digraph& g, const Digraph& reversed,
                             std::vector<NodeId> members,
                             DoubleTreeWorkspace& ws) {
  const NodeId n = g.node_count();
  std::sort(members.begin(), members.end());
  if (!members.empty() && (members.front() < 0 || members.back() >= n)) {
    throw std::invalid_argument("DoubleTree: member id out of range");
  }
  if (std::adjacent_find(members.begin(), members.end()) != members.end()) {
    throw std::invalid_argument("DoubleTree: repeated member");
  }
  const auto center_it =
      std::lower_bound(members.begin(), members.end(), center_);
  if (center_it == members.end() || *center_it != center_) {
    throw std::invalid_argument("DoubleTree: center not among members");
  }
  const auto root = static_cast<NodeId>(center_it - members.begin());
  if (ws.rank.size() < static_cast<std::size_t>(n)) {
    ws.rank.resize(static_cast<std::size_t>(n), kNoNode);
  }

  std::vector<NodeId> out_parent;
  std::vector<Port> out_port;
  std::vector<NodeId> up_next;
  {
    const RankBinding bound(ws, members);
    run_among(g, members, root, ws, down_dist_, out_parent, &out_port);
    run_among(reversed, members, root, ws, up_dist_, up_next, nullptr);
  }
  const auto m = members.size();
  up_port_.assign(m, kNoPort);
  for (std::size_t i = 0; i < m; ++i) {
    if (down_dist_[i] >= kInfDist || up_dist_[i] >= kInfDist) {
      throw std::invalid_argument(
          "DoubleTree: induced subgraph is not strongly connected");
    }
    rt_height_ = std::max(rt_height_, down_dist_[i] + up_dist_[i]);
    // The reversed run's parent is the next hop toward the center; its port
    // comes from the original graph, whose ports are per tail node.
    if (up_next[i] != kNoNode) {
      up_port_[i] = g.port_of_edge(
          members[i], members[static_cast<std::size_t>(up_next[i])]);
    }
  }
  return TreeRouter(std::move(members), std::move(out_parent),
                    std::move(out_port));
}

Dist DoubleTree::down_dist(NodeId v) const {
  const NodeId r = out_router_.rank_of(v);
  return r == kNoNode ? kInfDist : down_dist_[static_cast<std::size_t>(r)];
}

Dist DoubleTree::up_dist(NodeId v) const {
  const NodeId r = out_router_.rank_of(v);
  return r == kNoNode ? kInfDist : up_dist_[static_cast<std::size_t>(r)];
}

Port DoubleTree::up_port(NodeId v) const {
  const NodeId r = out_router_.rank_of(v);
  return r == kNoNode ? kNoPort : up_port_[static_cast<std::size_t>(r)];
}

void DoubleTree::audit(AuditReport& report) const {
  auto scope = report.scope("double-tree");
  const auto m = members().size();

  const bool sized = down_dist_.size() == m && up_dist_.size() == m &&
                     up_port_.size() == m;
  report.check("member-arrays-sized", sized,
               "per-rank distance and port arrays must match the member list");
  if (!sized) return;

  report.check("center-is-member", contains(center_),
               "center " + std::to_string(center_));

  bool reach_ok = true;
  std::string reach_detail;
  Dist recomputed_height = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const NodeId v = members()[i];
    if (down_dist_[i] >= kInfDist || up_dist_[i] >= kInfDist) {
      reach_ok = false;
      reach_detail = "member " + std::to_string(v) +
                     " unreachable inside the induced subgraph";
      break;
    }
    if (v != center_ && up_port_[i] == kNoPort) {
      reach_ok = false;
      reach_detail = "member " + std::to_string(v) + " has no up port";
      break;
    }
    recomputed_height =
        std::max(recomputed_height, down_dist_[i] + up_dist_[i]);
  }
  report.check("members-reach-center", reach_ok, std::move(reach_detail));
  if (reach_ok) {
    report.check("rt-height-cached", recomputed_height == rt_height_,
                 "cached " + std::to_string(rt_height_) + ", recomputed " +
                     std::to_string(recomputed_height));
  }

  report.check("out-router-root", out_router_.root() == center_,
               "Lemma 14 router must be rooted at the center");
  out_router_.audit(report);
}

}  // namespace rtr
