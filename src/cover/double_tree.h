// Double trees (Section 3.2 / Theorem 13).
//
// For a cluster C with center v, OutTree(C) is a shortest-path tree from v
// spanning C and InTree(C) holds a shortest path from every node of C to v,
// both computed inside the subgraph induced by C (Section 4 measures cluster
// radii in the induced subgraph; Theorem 10's construction guarantees the
// induced subgraph is strongly connected).  DoubleTree(C) is their union;
// RTHeight is the maximum induced roundtrip distance root <-> member.
//
// Routing inside a double tree always goes through the root: up along InTree
// next-hop pointers (each member stores one port), down along OutTree via the
// Lemma 14 tree router.  The cost between two members is at most twice the
// RTHeight.
#ifndef RTR_COVER_DOUBLE_TREE_H
#define RTR_COVER_DOUBLE_TREE_H

#include <vector>

#include "graph/dijkstra.h"
#include "rt/metric.h"
#include "treeroute/tree_router.h"

namespace rtr {

class AuditReport;  // audit/audit.h

class DoubleTree {
 public:
  /// Builds in/out trees for `members` (must include center) inside the
  /// induced subgraph.  Throws std::invalid_argument if the induced subgraph
  /// does not strongly connect the members.
  DoubleTree(const Digraph& g, const Digraph& reversed, NodeId center,
             std::vector<NodeId> members);

  [[nodiscard]] NodeId center() const { return center_; }
  [[nodiscard]] const std::vector<NodeId>& members() const { return members_; }
  [[nodiscard]] bool contains(NodeId v) const {
    return member_mask_[static_cast<std::size_t>(v)] != 0;
  }
  [[nodiscard]] NodeId member_count() const {
    return static_cast<NodeId>(members_.size());
  }

  /// Max induced roundtrip distance from the center to any member.
  [[nodiscard]] Dist rt_height() const { return rt_height_; }

  /// Induced d(center, v) / d(v, center).
  [[nodiscard]] Dist down_dist(NodeId v) const {
    return out_tree_.dist[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] Dist up_dist(NodeId v) const {
    return in_tree_.dist[static_cast<std::size_t>(v)];
  }

  /// Member v's next-hop port toward the center (kNoPort at the center).
  [[nodiscard]] Port up_port(NodeId v) const {
    return in_tree_.next_port[static_cast<std::size_t>(v)];
  }

  /// Lemma 14 routing structure on OutTree.
  [[nodiscard]] const TreeRouter& out_router() const { return out_router_; }

  /// Auditable: the member mask matches the member list, the center is a
  /// member, every member is reachable both ways (finite up/down distances,
  /// an up port everywhere but the center), the cached rt_height_ equals the
  /// recomputed max roundtrip, and the Lemma 14 out-router is itself sound
  /// with root == center and exactly the member set.
  void audit(AuditReport& report) const;

 private:
  friend struct AuditTestPeer;
  NodeId center_;
  std::vector<NodeId> members_;
  std::vector<char> member_mask_;
  Dist rt_height_ = 0;
  OutTree out_tree_;
  InTree in_tree_;
  TreeRouter out_router_;
};

}  // namespace rtr

#endif  // RTR_COVER_DOUBLE_TREE_H
