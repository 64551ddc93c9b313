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
//
// Cost: a double tree of m members holds O(m) words -- every array is
// indexed by member rank, the position in the ascending member list -- and
// builds in O(m log m + (edges among the members) log m) time.  The two
// masked Dijkstras run in a DoubleTreeWorkspace whose node-indexed map is
// sized to the graph once per worker and reset through the member list, so
// no tree allocates or clears anything of size n.  Node-id queries
// (contains, down_dist, up_dist, up_port) binary-search the member list;
// they serve construction and audits, while forwarding reads flat tables.
//
// Two builders make double trees, each with one workspace per worker:
// CoverHierarchy keeps one per cover cluster (the cover schemes forward
// from the CoverTable built out of them), and Rtz3Scheme builds one per
// ball, copies its labels, tables and up-ports into its own dictionaries,
// and drops it.
#ifndef RTR_COVER_DOUBLE_TREE_H
#define RTR_COVER_DOUBLE_TREE_H

#include <utility>
#include <vector>

#include "graph/dijkstra.h"
#include "rt/metric.h"
#include "treeroute/tree_router.h"

namespace rtr {

class AuditReport;  // audit/audit.h

/// Per-worker scratch for building double trees: a node -> member-rank map
/// (kNoNode outside the tree being built) and the Dijkstra heap buffer.
/// One workspace serves any number of sequential builds on graphs of up to
/// its size; it is NOT safe to share across threads.
struct DoubleTreeWorkspace {
  std::vector<NodeId> rank;
  std::vector<std::pair<Dist, NodeId>> heap;
};

class DoubleTree {
 public:
  /// Builds in/out trees for `members` (must include center) inside the
  /// induced subgraph, using `ws` as scratch.  Throws std::invalid_argument
  /// if the induced subgraph does not strongly connect the members or a
  /// member is out of range or repeated.  Members may come in any order;
  /// the tree keeps them sorted.
  DoubleTree(const Digraph& g, const Digraph& reversed, NodeId center,
             std::vector<NodeId> members, DoubleTreeWorkspace& ws);
  /// One-shot build with a private workspace (O(n) scratch).
  DoubleTree(const Digraph& g, const Digraph& reversed, NodeId center,
             std::vector<NodeId> members);

  [[nodiscard]] NodeId center() const { return center_; }
  /// Members in ascending node order.
  [[nodiscard]] const std::vector<NodeId>& members() const {
    return out_router_.members();
  }
  [[nodiscard]] bool contains(NodeId v) const {
    return out_router_.contains(v);
  }
  [[nodiscard]] NodeId member_count() const {
    return out_router_.member_count();
  }

  /// Max induced roundtrip distance from the center to any member.
  [[nodiscard]] Dist rt_height() const { return rt_height_; }

  /// Induced d(center, v) / d(v, center); kInfDist for a non-member.
  [[nodiscard]] Dist down_dist(NodeId v) const;
  [[nodiscard]] Dist up_dist(NodeId v) const;

  /// Member v's next-hop port toward the center (kNoPort at the center and
  /// for a non-member).
  [[nodiscard]] Port up_port(NodeId v) const;

  /// Lemma 14 routing structure on OutTree.
  [[nodiscard]] const TreeRouter& out_router() const { return out_router_; }

  /// Auditable: the per-rank arrays match the member list, the center is a
  /// member, every member is reachable both ways (finite up/down distances,
  /// an up port everywhere but the center), the cached rt_height_ equals the
  /// recomputed max roundtrip, and the Lemma 14 out-router is itself sound
  /// with root == center and exactly the member set.
  void audit(AuditReport& report) const;

 private:
  friend struct AuditTestPeer;
  /// Runs both masked Dijkstras into the per-rank arrays and rt_height_,
  /// then hands the member list to the out-router it returns.
  TreeRouter build(const Digraph& g, const Digraph& reversed,
                   std::vector<NodeId> members, DoubleTreeWorkspace& ws);

  NodeId center_;
  Dist rt_height_ = 0;
  // Per member rank:
  std::vector<Dist> down_dist_;
  std::vector<Dist> up_dist_;
  std::vector<Port> up_port_;
  TreeRouter out_router_;  // owns the member list
};

}  // namespace rtr

#endif  // RTR_COVER_DOUBLE_TREE_H
