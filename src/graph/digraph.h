// Directed weighted graph core with the paper's fixed-port model (Section
// 1.1.3), split into a mutable builder and an immutable frozen graph.
//
// Every outgoing edge of a node carries a *port* number.  In the fixed-port
// model these numbers are assigned by an adversary from an O(n)-sized
// namespace with no global consistency: the port of (u,v) at u bears no
// relation to the port of (v,u) at v, and the same port number at two
// different nodes can lead to unrelated neighbours.  Routing schemes output
// ports, never neighbour ids, and must therefore store ports in their tables.
//
// The two-type lifecycle mirrors production routing stacks (extract ->
// contract -> query in OSRM terms):
//
//   * GraphBuilder -- the mutable construction-time representation
//     (vector-of-vectors adjacency).  Generators add edges, churn re-wires
//     them, and the Section 1.1.3 adversary relabels ports here.
//   * Digraph      -- the immutable, CSR-packed artifact `freeze()` emits.
//     All edges live in one contiguous array with a per-node offset index
//     (one cache-friendly row per node, no per-node heap blocks), plus two
//     per-node sorted resolution tables: port -> edge (the "hardware"
//     operation of every simulated forwarding hop) and head -> edge.  Both
//     resolve in O(log degree) instead of the builder's O(degree) scans.
//     Preprocessing (APSP, tree builds) and the forwarding walk only ever
//     see a Digraph; epoch churn thaws it back into a builder, mutates, and
//     freezes the next epoch.
//
// Freezing preserves the builder's row order edge-for-edge, so any
// iteration-order-dependent computation (Dijkstra relaxation order and its
// tie-breaks, snapshot bytes) is bit-identical across a thaw -> freeze
// round-trip.
#ifndef RTR_GRAPH_DIGRAPH_H
#define RTR_GRAPH_DIGRAPH_H

#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "util/flat_vec.h"
#include "util/rng.h"
#include "util/types.h"

namespace rtr {

class AuditReport;
class ArenaStorage;
class ArenaView;
class ArenaWriter;

/// One directed edge as seen from its tail node.  Field order packs the two
/// 32-bit members ahead of the 64-bit weight so the struct is padding-free:
/// snapshot arenas write Edge arrays verbatim, and padding bytes would be
/// nondeterministic garbage in an otherwise byte-reproducible file.
struct Edge {
  NodeId to = kNoNode;
  Port port = kNoPort;
  Weight weight = 0;
};
static_assert(sizeof(Edge) == 16 && alignof(Edge) == 8,
              "Edge must stay padding-free: it is arena-mapped verbatim");
static_assert(std::is_trivially_copyable_v<Edge>);

class GraphBuilder;

/// An immutable directed graph with positive integer edge weights and
/// per-node ports, packed in compressed-sparse-row form.  Produced by
/// GraphBuilder::freeze(); a default-port edgeless graph can be made
/// directly with Digraph(n).
///
/// Invariants: weights are >= 1; port numbers and head nodes are unique per
/// tail node (no parallel edges); node ids are dense in [0, node_count()).
class Digraph {
 public:
  /// An edgeless frozen graph on n nodes.
  explicit Digraph(NodeId n);

  [[nodiscard]] NodeId node_count() const {
    return static_cast<NodeId>(offset_.size() - 1);
  }
  [[nodiscard]] std::int64_t edge_count() const {
    return static_cast<std::int64_t>(edges_.size());
  }

  /// The out-edges of u in builder insertion order, as one contiguous row of
  /// the shared CSR edge array.
  [[nodiscard]] std::span<const Edge> out_edges(NodeId u) const {
    const auto b = static_cast<std::size_t>(offset_[static_cast<std::size_t>(u)]);
    const auto e =
        static_cast<std::size_t>(offset_[static_cast<std::size_t>(u) + 1]);
    return {edges_.data() + b, e - b};
  }
  [[nodiscard]] NodeId out_degree(NodeId u) const {
    return static_cast<NodeId>(offset_[static_cast<std::size_t>(u) + 1] -
                               offset_[static_cast<std::size_t>(u)]);
  }

  /// True if u has an edge to v.  O(log degree) via the per-node head-sorted
  /// resolution table.
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const {
    return find_by_head(u, v) != nullptr;
  }

  /// Resolves a port at node u to the edge it names, or nullptr if u has no
  /// such port.  This is the "hardware" operation a router performs when the
  /// forwarding function returns a port; O(log degree) via the per-node
  /// port-sorted resolution table.
  [[nodiscard]] const Edge* edge_by_port(NodeId u, Port p) const;

  /// The port of edge u -> v, or kNoPort.  Preprocessing-only helper (a
  /// distributed node knows its own ports); never used during forwarding.
  /// O(log degree).
  [[nodiscard]] Port port_of_edge(NodeId u, NodeId v) const {
    const Edge* e = find_by_head(u, v);
    return e == nullptr ? kNoPort : e->port;
  }

  /// Upper bound (exclusive) on port numbers; O(n) as the model requires.
  [[nodiscard]] std::int64_t port_space() const;

  /// The graph with every edge reversed (weights preserved, fresh sequential
  /// ports).
  [[nodiscard]] Digraph reversed() const;

  /// Largest edge weight (1 if there are no edges).
  [[nodiscard]] Weight max_weight() const {
    return max_weight_ > 0 ? max_weight_ : 1;
  }

  // -- flat-arc accessors for distance-only hot loops ------------------------
  // The structure-of-arrays mirror of the edge array (heads and weights in
  // separate contiguous vectors) streams 12 bytes per relaxed edge instead
  // of the 24-byte Edge; APSP's inner loop runs on these.  Arc indices are
  // positions in the shared CSR edge array.

  [[nodiscard]] std::int64_t arcs_begin(NodeId u) const {
    return offset_[static_cast<std::size_t>(u)];
  }
  [[nodiscard]] std::int64_t arcs_end(NodeId u) const {
    return offset_[static_cast<std::size_t>(u) + 1];
  }
  [[nodiscard]] NodeId arc_head(std::int64_t i) const {
    return arc_head_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] Weight arc_weight(std::int64_t i) const {
    return arc_weight_[static_cast<std::size_t>(i)];
  }

  /// Auditable: CSR row monotonicity, edge-range validity, SoA mirror
  /// consistency, and the port/head resolution tables (sorted keys, unique
  /// per row, and a bijection onto the row's edge slots).  Records entries
  /// under the "graph" component.
  void audit(AuditReport& report) const;

  /// Writes every frozen array into "graph/..." arena sections (v2 snapshot
  /// payload; no re-encoding, the arrays ARE the format).
  void save_arena(ArenaWriter& w) const;

  /// Reconstructs a Digraph as zero-copy views over an arena's "graph/..."
  /// sections, holding the arena's storage alive.  Counts are cross-checked
  /// against the arena header; throws SnapshotArenaError on disagreement.
  [[nodiscard]] static Digraph from_arena(const ArenaView& a);

 private:
  friend class GraphBuilder;
  friend struct AuditTestPeer;
  Digraph() = default;  // freeze() fills the arrays

  /// Binary search in u's head-sorted resolution table.
  [[nodiscard]] const Edge* find_by_head(NodeId u, NodeId v) const;

  FlatVec<std::int64_t> offset_;  // size n+1; row bounds in edges_
  FlatVec<Edge> edges_;           // CSR rows, builder insertion order
  FlatVec<NodeId> arc_head_;      // SoA mirror of edges_[i].to
  FlatVec<Weight> arc_weight_;    // SoA mirror of edges_[i].weight
  // Per-node resolution tables, segmented exactly like edges_ (offset_):
  // sort keys contiguous and separate from the row slots they resolve to.
  FlatVec<Port> port_key_;           // u's ports, ascending
  FlatVec<std::int32_t> port_slot_;  // row slot of port_key_[k]
  FlatVec<NodeId> head_key_;         // u's heads, ascending
  FlatVec<std::int32_t> head_slot_;  // row slot of head_key_[k]
  Weight max_weight_ = 0;
  // Non-null iff the FlatVecs are views into a mapped/owned arena region;
  // keeps the bytes alive for the lifetime of every view.
  std::shared_ptr<const ArenaStorage> arena_;
};

/// The mutable construction-time graph: one growable edge row per node.
/// freeze() packs it into an immutable Digraph; thawing a Digraph back into
/// a builder (the churn path) reproduces its rows verbatim, ports included.
class GraphBuilder {
 public:
  explicit GraphBuilder(NodeId n);

  /// Thaw: a mutable copy of a frozen graph, row order and ports preserved.
  explicit GraphBuilder(const Digraph& g);

  [[nodiscard]] NodeId node_count() const {
    return static_cast<NodeId>(out_.size());
  }
  [[nodiscard]] std::int64_t edge_count() const { return edge_count_; }

  /// Adds edge u -> v with the given weight (>= 1).  Ports are assigned
  /// sequentially per tail node: 0, 1, 2, ... on a fresh builder, and one
  /// past the node's largest existing port on a thawed or
  /// explicitly-ported row (so a thaw -> add_edge -> freeze cycle never
  /// collides with an inherited adversarial port).  Call
  /// assign_adversarial_ports() afterwards to scramble them.
  void add_edge(NodeId u, NodeId v, Weight w);

  /// Appends all of `edges` (to/weight/port with explicit port numbers) at
  /// tail node u, validating ranges, weights, self-loops, and per-node port
  /// uniqueness in O(d log d).  Used when replaying a frozen graph -- e.g. a
  /// snapshot -- whose adversarial port choice must be reproduced exactly,
  /// because the routing tables built against it store those port numbers.
  void add_edges_with_ports(NodeId u, const std::vector<Edge>& edges);

  [[nodiscard]] std::span<const Edge> out_edges(NodeId u) const {
    return out_[static_cast<std::size_t>(u)];
  }
  [[nodiscard]] NodeId out_degree(NodeId u) const {
    return static_cast<NodeId>(out_[static_cast<std::size_t>(u)].size());
  }

  /// Re-labels all ports with adversarial (random, sparse, per-node unique)
  /// numbers drawn from [0, port_space()).  Models Section 1.1.3.
  void assign_adversarial_ports(Rng& rng);

  /// Upper bound (exclusive) on port numbers; O(n) as the model requires.
  [[nodiscard]] std::int64_t port_space() const;

  /// Packs the rows into an immutable CSR Digraph (insertion order
  /// preserved) and builds the per-node port/head resolution tables.
  /// Throws std::invalid_argument on a duplicate port or parallel edge.
  [[nodiscard]] Digraph freeze() const;

 private:
  std::vector<std::vector<Edge>> out_;
  std::vector<Port> next_port_;  // next sequential label per node (add_edge)
  std::int64_t edge_count_ = 0;
};

}  // namespace rtr

#endif  // RTR_GRAPH_DIGRAPH_H
