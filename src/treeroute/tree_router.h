// Fixed-port tree routing (Lemma 14, after Thorup-Zwick [39] and
// Fraigniaud-Gavoille [18]).
//
// Given a shortest-path out-tree rooted at r, the scheme routes a packet from
// r to any node v along the optimal tree path, with
//   * O(1) words stored per tree node (its DFS number and the port of its
//     heavy child), and
//   * an O(log^2 n)-bit address for v.
//
// The construction is the classic heavy-path decomposition: every node keeps
// the port toward its child with the largest subtree ("heavy child").  The
// address of v lists the (node, port) pairs of the *light* edges on the
// root->v path -- at most floor(log2 n) of them, since crossing a light edge
// at least halves the subtree size.  Forwarding at node x: if x is the
// target, deliver; if x appears in the address's light list, take the listed
// port; otherwise take the heavy port.  Packets enter a tree only at its root
// in all of our uses, so no off-path case arises (we still detect and reject
// it defensively).
#ifndef RTR_TREEROUTE_TREE_ROUTER_H
#define RTR_TREEROUTE_TREE_ROUTER_H

#include <algorithm>
#include <array>
#include <cstddef>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/dijkstra.h"
#include "util/flat_vec.h"
#include "util/types.h"

namespace rtr {

class AuditReport;  // audit/audit.h
class ArenaView;    // io/arena.h
class ArenaWriter;

/// Per-node state a tree member stores for one tree: O(1) words.
struct TreeNodeTable {
  std::int32_t dfs_in = -1;    // this node's DFS number within the tree
  Port heavy_port = kNoPort;   // port to the heavy child (kNoPort at leaves)
};
static_assert(sizeof(TreeNodeTable) == 8);
static_assert(std::is_trivially_copyable_v<TreeNodeTable>);

/// One light edge of a tree label in arena-storable form: labels that live
/// inside a relocatable snapshot arena are CSR-packed as (per-entry dfs,
/// hop ranges) over one flat LightHop array instead of per-label small
/// buffers (see PackedLabels).
struct LightHop {
  std::int32_t dfs = -1;   // DFS number of the light edge's tail
  Port port = kNoPort;     // port at that tail
};
static_assert(sizeof(LightHop) == 8);
static_assert(std::is_trivially_copyable_v<LightHop>);

/// Small-buffer sequence for a label's light edges.  Lemma 14 bounds the
/// count by floor(log2 |tree|), so labels of trees up to 2^8 members fit
/// entirely inline (no heap allocation per label -- the dominant case: ball
/// trees hold O~(sqrt n) members); deeper labels spill to a heap vector and
/// stay contiguous, so pointer iteration and std::reverse keep working.
class LightHops {
 public:
  using value_type = std::pair<std::int32_t, Port>;
  using iterator = value_type*;
  using const_iterator = const value_type*;
  static constexpr std::size_t kInlineCapacity = 8;

  LightHops() = default;
  LightHops(std::initializer_list<value_type> hops) {
    for (const value_type& hop : hops) push_back(hop);
  }
  LightHops(const LightHops&) = default;
  LightHops& operator=(const LightHops&) = default;
  LightHops(LightHops&& other) noexcept
      : inline_(other.inline_),
        spill_(std::move(other.spill_)),
        size_(other.size_) {
    other.size_ = 0;
  }
  LightHops& operator=(LightHops&& other) noexcept {
    if (this != &other) {
      inline_ = other.inline_;
      spill_ = std::move(other.spill_);
      size_ = other.size_;
      other.size_ = 0;
    }
    return *this;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  void clear() {
    size_ = 0;
    spill_.clear();
  }

  void emplace_back(std::int32_t dfs, Port port) {
    if (spill_.empty() && size_ < kInlineCapacity) {
      inline_[size_++] = value_type(dfs, port);
      return;
    }
    if (spill_.empty()) {
      // First spill: move the inline prefix so the sequence stays contiguous.
      spill_.reserve(2 * kInlineCapacity);
      spill_.assign(inline_.begin(), inline_.begin() + size_);
    }
    spill_.emplace_back(dfs, port);
    ++size_;
  }
  void push_back(const value_type& hop) { emplace_back(hop.first, hop.second); }

  [[nodiscard]] iterator begin() {
    return spill_.empty() ? inline_.data() : spill_.data();
  }
  [[nodiscard]] iterator end() { return begin() + size_; }
  [[nodiscard]] const_iterator begin() const {
    return spill_.empty() ? inline_.data() : spill_.data();
  }
  [[nodiscard]] const_iterator end() const { return begin() + size_; }

  [[nodiscard]] const value_type& operator[](std::size_t i) const {
    return begin()[i];
  }

  [[nodiscard]] bool operator==(const LightHops& other) const {
    return size_ == other.size_ && std::equal(begin(), end(), other.begin());
  }

 private:
  std::array<value_type, kInlineCapacity> inline_{};
  std::vector<value_type> spill_;
  std::size_t size_ = 0;
};

/// The routable address of a node within one tree: O(log^2 n) bits.
struct TreeLabel {
  std::int32_t dfs_in = -1;
  /// (dfs number of the light edge's tail, port at that tail), in root->v
  /// order.  At most floor(log2 |tree|) entries.
  LightHops light_hops;
};

/// Immutable routing structure for one tree.  Holds every member's
/// TreeNodeTable and can mint labels; per-member state is O(1) words as
/// Lemma 14 requires (labels are computed from the tree, not stored).
///
/// Cost: every array is indexed by member rank -- the position of a node in
/// the ascending member list -- so a tree of m members holds O(m) words and
/// builds in O(m) time, whatever the graph's size.  Node ids translate to
/// ranks by binary search over the member list, or directly when the members
/// are exactly 0 .. m-1 (a tree spanning the whole graph).
class TreeRouter {
 public:
  /// The one construction path, over a compact tree of m members:
  /// `members` holds their node ids in strictly ascending order, `parent[i]`
  /// is the rank of member i's parent (kNoNode at the root, and only there)
  /// and `parent_port[i]` the port at that parent leading to member i.
  /// Throws std::invalid_argument when the arrays disagree in size, the
  /// members are not strictly ascending, or the parents do not form one
  /// tree.
  TreeRouter(std::vector<NodeId> members, std::vector<NodeId> parent,
             std::vector<Port> parent_port);

  /// Builds from a shortest-path out-tree over the whole node range: the
  /// reachable nodes (dist < kInfDist) are the members, relabelled to their
  /// ranks in node order.
  explicit TreeRouter(const OutTree& tree);

  [[nodiscard]] NodeId root() const { return root_; }
  [[nodiscard]] bool contains(NodeId v) const { return rank_of(v) >= 0; }
  [[nodiscard]] NodeId member_count() const { return member_count_; }

  /// v's position in members(), or kNoNode when v is not a member.
  [[nodiscard]] NodeId rank_of(NodeId v) const {
    if (member_count_ == 0) return kNoNode;
    if (members_.back() == member_count_ - 1) {  // members are 0 .. m-1
      return v >= 0 && v < member_count_ ? v : kNoNode;
    }
    const auto it = std::lower_bound(members_.begin(), members_.end(), v);
    return it != members_.end() && *it == v
               ? static_cast<NodeId>(it - members_.begin())
               : kNoNode;
  }

  /// The O(1)-word table node v stores.  Throws std::invalid_argument
  /// unless contains(v).
  [[nodiscard]] const TreeNodeTable& table(NodeId v) const;

  /// v's parent node in the tree (kNoNode at the root).  Throws
  /// std::invalid_argument unless contains(v).
  [[nodiscard]] NodeId parent_of(NodeId v) const;

  /// The address of v (root->v light edges).  Throws std::invalid_argument
  /// unless contains(v).
  [[nodiscard]] TreeLabel label(NodeId v) const;

  /// Members in ascending node order (rank i is members()[i]).
  [[nodiscard]] const std::vector<NodeId>& members() const { return members_; }

  /// Auditable: member bookkeeping, acyclic parent pointers reaching the
  /// root, unique DFS numbers, heavy-child/heavy-port consistency, and the
  /// Lemma 14 bound of at most label_slack * floor(log2 |tree|) light hops
  /// on every member's address.
  void audit(AuditReport& report) const;

 private:
  friend struct AuditTestPeer;
  [[nodiscard]] TreeLabel label_at(NodeId rank) const;

  NodeId root_ = kNoNode;          // node id of the root
  NodeId member_count_ = 0;
  std::vector<NodeId> members_;    // rank -> node id, ascending
  // Per rank:
  std::vector<TreeNodeTable> tables_;
  std::vector<NodeId> parent_;      // parent's rank (for label walks)
  std::vector<Port> parent_port_;   // port at parent toward this node
  std::vector<NodeId> heavy_child_; // heavy child's rank
};

/// A sequence of tree labels in flat, arena-storable form: label i is
/// (dfs[i], hops[hop_off[i] .. hop_off[i+1])).  Owns its arrays when packed
/// from built labels, or views them inside a snapshot arena (the class that
/// embeds it keeps the arena storage alive).  HopOffset is the stored width
/// of the hop offsets: rtz3's ball and address labels keep their 64-bit
/// layout, the cover-tree schemes store 32-bit offsets.
template <typename HopOffset>
class PackedLabels {
 public:
  /// Packs labels one at a time, in index order.
  class Builder {
   public:
    void add(const TreeLabel& label);
    [[nodiscard]] PackedLabels build();

   private:
    std::vector<std::int32_t> dfs_;
    std::vector<HopOffset> hop_off_{0};
    std::vector<LightHop> hops_;
  };

  PackedLabels() : hop_off_(std::vector<HopOffset>{0}) {}
  explicit PackedLabels(const std::vector<TreeLabel>& labels);

  [[nodiscard]] std::size_t size() const { return dfs_.size(); }
  /// Label i, unpacked into the header representation.
  [[nodiscard]] TreeLabel at(std::size_t i) const;
  /// Hop offsets rise from 0 to the hop count, one per label plus one.
  [[nodiscard]] bool well_formed() const;

  /// Three sections: prefix + "dfs", "hop_off", "hops".
  void save_arena(ArenaWriter& w, const std::string& prefix) const;
  /// Views `count` labels saved under `prefix`; throws SnapshotArenaError
  /// unless the result is well_formed().
  [[nodiscard]] static PackedLabels from_arena(const ArenaView& a,
                                               const std::string& prefix,
                                               std::uint64_t count);

 private:
  FlatVec<std::int32_t> dfs_;
  FlatVec<HopOffset> hop_off_;  // size() + 1
  FlatVec<LightHop> hops_;
};

/// Forwarding decision at a node holding `at` for a packet addressed
/// `target`: kNoPort means "deliver here" (at.dfs_in == target.dfs_in).
/// Throws std::logic_error if the node is off the root->target path (cannot
/// happen when packets enter at the root).
[[nodiscard]] Port tree_next_port(const TreeNodeTable& at,
                                  const TreeLabel& target);

/// Encoded size of a label in bits, given the graph's name and port spaces.
[[nodiscard]] std::int64_t tree_label_bits(const TreeLabel& label,
                                           std::int64_t node_space,
                                           std::int64_t port_space);

}  // namespace rtr

#endif  // RTR_TREEROUTE_TREE_ROUTER_H
