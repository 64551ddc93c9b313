// Single-source shortest paths (Dijkstra) with the tree shapes the routing
// schemes consume:
//
//  * OutTree  -- shortest paths *from* the root: parent pointers and, for
//    each tree edge parent->child, the child and the port at the parent.
//    This is the paper's OutTree(C) (Section 3.2).
//  * InTree   -- shortest paths *to* the root: for each node, the next hop
//    (and its port) on a shortest path toward the root.  This is InTree(C).
//
// Restricted variants compute the same trees inside the subgraph induced by a
// member mask, over n-length arrays; they are the dense oracles that the
// member-local double trees (cover/double_tree.h) are tested against.
//
// Repeated-run callers (APSP is n runs, rtz3's center phase two per
// center) pass a DijkstraWorkspace so the distance array and the binary-heap
// buffer are allocated once and reused: after the first run the hot loop
// performs no heap allocation at all.  The workspace-free overloads remain
// for one-shot callers.  dijkstra_distances_reference() is the test oracle
// (std::priority_queue, fresh buffers per call) the arena is tested
// bit-identical against.
#ifndef RTR_GRAPH_DIJKSTRA_H
#define RTR_GRAPH_DIJKSTRA_H

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "graph/digraph.h"

namespace rtr {

/// Shortest-path out-tree from a root.  parent[root] == kNoNode.
/// Unreachable nodes have dist == kInfDist and parent == kNoNode.
struct OutTree {
  NodeId root = kNoNode;
  std::vector<Dist> dist;          // d(root, v)
  std::vector<NodeId> parent;      // predecessor of v on the root->v path
  std::vector<Port> parent_port;   // port at parent[v] leading to v
};

/// Shortest-path in-tree toward a root.  next[root] == kNoNode.
/// Unreachable nodes have dist == kInfDist and next == kNoNode.
struct InTree {
  NodeId root = kNoNode;
  std::vector<Dist> dist;       // d(v, root)
  std::vector<NodeId> next;     // successor of v on the v->root path
  std::vector<Port> next_port;  // port at v leading to next[v]
};

/// Reusable scratch for repeated Dijkstra runs.  The buffers grow to the
/// largest graph seen and are then reused verbatim; one workspace serves any
/// number of sequential runs (it is NOT safe to share across threads).
struct DijkstraWorkspace {
  std::vector<Dist> dist;                       // distance-only results
  std::vector<std::pair<Dist, NodeId>> heap;    // binary-heap buffer
  /// Circular bucket queue (Dial) used by the small-weight distance-only
  /// fast path; one bucket per residual distance in [0, max_weight].
  std::vector<std::vector<NodeId>> buckets;
};

/// One settled node of a bounded run: the exact distance d(src, node).
struct BoundedReach {
  NodeId node = kNoNode;
  Dist dist = kInfDist;
};

/// Scratch for repeated *bounded* runs.  The dist array is reset sparsely via
/// the touched list, so a run costs O(settled + touched), not O(n) -- the
/// whole point of stopping Dijkstra at a radius.  Not safe to share across
/// threads.
struct BoundedDijkstraWorkspace {
  std::vector<Dist> dist;                     // kInfDist outside touched
  std::vector<NodeId> touched;                // nodes whose dist slot is dirty
  std::vector<std::pair<Dist, NodeId>> heap;  // binary-heap buffer
};

/// Bounded single-source run: appends (u, d(src,u)) to `out` for every node u
/// with d(src, u) <= limit, in ascending settled order (ties in heap pop
/// order).  Distances are exact global distances -- a node settled within the
/// limit cannot have a shorter path through nodes beyond it.  The frontier
/// stops expanding past `limit`, so the cost is proportional to the region
/// explored, not to the graph.
void dijkstra_bounded(const Digraph& g, NodeId src, Dist limit,
                      BoundedDijkstraWorkspace& ws,
                      std::vector<BoundedReach>& out);

/// One member of a bounded roundtrip ball: exact d(src, node) out and
/// d(node, src) back.
struct RoundtripReach {
  NodeId node = kNoNode;
  Dist d_out = kInfDist;
  Dist d_in = kInfDist;
};

/// Scratch for roundtrip_ball_bounded.  Settled markers are epoch-stamped so
/// back-to-back runs never pay an O(n) clear.  Not safe to share across
/// threads.
struct RoundtripBallWorkspace {
  BoundedDijkstraWorkspace fwd;
  BoundedDijkstraWorkspace rev;
  std::vector<std::uint64_t> fwd_mark;  // == epoch when settled forward
  std::vector<std::uint64_t> rev_mark;  // == epoch when settled backward
  std::uint64_t epoch = 0;
};

/// Appends every node u with d(src,u) + d(u,src) <= budget to `out`, each
/// with its exact one-way distances, in no particular order.  `reversed`
/// must be g.reversed().  A non-negative `member_cap` aborts the search as
/// soon as more than cap members have been confirmed and returns false (the
/// appended members are genuine but the set is incomplete) -- this is how a
/// count-probing caller learns "too many" in O(cap) work instead of walking
/// an oversize ball to the end.  Returns true when the ball is complete.
///
/// This is NOT two radius-`budget` bounded runs intersected: on
/// expander-like graphs the one-directional ball of radius `budget` is
/// close to the whole graph even when the roundtrip ball is O~(sqrt n).
/// Instead two Dijkstras advance in tandem (smaller frontier first) and a
/// node's out-edges are only relaxed while d_out(x) + LB(d_in(x)) <= budget,
/// where LB is the exact distance once x is settled backward and the
/// backward frontier key otherwise (sound: Dijkstra settles in ascending
/// order).  Roundtrip balls are closed under shortest-path prefixes --
/// every node on a shortest v->w or w->v path of a member w is itself a
/// member -- so pruned nodes can never sit on a member's shortest path and
/// member distances stay exact.  Exploration is proportional to the
/// half-radius one-directional balls, not the full-radius ones.
bool roundtrip_ball_bounded(const Digraph& g, const Digraph& reversed,
                            NodeId src, Dist budget,
                            RoundtripBallWorkspace& ws,
                            std::vector<RoundtripReach>& out,
                            std::int64_t member_cap = -1);

/// Distances from src to every node.
[[nodiscard]] std::vector<Dist> dijkstra_distances(const Digraph& g, NodeId src);

/// Distance-only run into ws.dist (parents are never materialized, which
/// skips two array fills and one store per edge relaxation).
void dijkstra_distances_into(const Digraph& g, NodeId src, DijkstraWorkspace& ws);

/// Distance-only run writing into caller storage (e.g. an APSP matrix row);
/// `out.size()` must equal g.node_count().  The APSP hot loop: streams the
/// frozen graph's flat arc arrays (structure-of-arrays heads/weights) with a
/// Dial bucket queue for small weights and the binary heap otherwise; no
/// allocation after the first run with a reused workspace.  The frozen
/// Digraph IS the CSR, so there is no per-call adjacency snapshot to build.
void dijkstra_distances_into(const Digraph& g, NodeId src, DijkstraWorkspace& ws,
                             std::span<Dist> out);

/// Test oracle: the plain textbook loop (std::priority_queue, fresh buffers
/// per call) that the workspace fast path and APSP are tested against.
[[nodiscard]] std::vector<Dist> dijkstra_distances_reference(const Digraph& g,
                                                             NodeId src);

/// Out-tree of shortest paths from root over the whole graph.
[[nodiscard]] OutTree dijkstra_out_tree(const Digraph& g, NodeId root);
[[nodiscard]] OutTree dijkstra_out_tree(const Digraph& g, NodeId root,
                                        DijkstraWorkspace& ws);

/// In-tree of shortest paths to root over the whole graph.  `reversed` must
/// be g.reversed(); passing it explicitly lets callers amortize the reversal.
[[nodiscard]] InTree dijkstra_in_tree(const Digraph& g, const Digraph& reversed,
                                      NodeId root);
[[nodiscard]] InTree dijkstra_in_tree(const Digraph& g, const Digraph& reversed,
                                      NodeId root, DijkstraWorkspace& ws);

/// Out-tree restricted to the subgraph induced by member_mask (root must be a
/// member; non-members keep dist == kInfDist).  Every array is n-long, so
/// these runs are test oracles (induced_roundtrip_from, itself a test and
/// bench check, uses them too); builders use cover/double_tree.h's
/// member-local trees, and tools/lint.sh keeps other src/ callers out.
[[nodiscard]] OutTree dijkstra_out_tree_within(const Digraph& g, NodeId root,
                                               const std::vector<char>& member_mask);

/// In-tree restricted to the induced subgraph (same caveat).
[[nodiscard]] InTree dijkstra_in_tree_within(const Digraph& g,
                                             const Digraph& reversed, NodeId root,
                                             const std::vector<char>& member_mask);

/// Reconstructs the root->v path of an out-tree (node sequence including both
/// endpoints).  Returns std::nullopt if v is unreachable.
[[nodiscard]] std::optional<std::vector<NodeId>> out_tree_path(const OutTree& t,
                                                               NodeId v);

}  // namespace rtr

#endif  // RTR_GRAPH_DIJKSTRA_H
