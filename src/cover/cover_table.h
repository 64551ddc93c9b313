// The serving state of a double-tree cover hierarchy, node by node.
//
// Forwarding inside a double tree (rtz/handshake.h's dt_step) needs, at the
// current node and for the leg's tree only: whether the node is the tree's
// center, its up-port toward the center, and its Lemma 14 table in the
// OutTree.  CoverHierarchy keeps that state tree-major, in per-tree arrays
// over the tree's members, which is what construction wants but not what a
// node stores.
// CoverTable is the node-major view the paper accounts for (Sections 3-4):
// row v lists exactly the trees containing v, sorted by (level, tree), with
// those three fields per tree, plus v's home tree at every level.  Rows are
// indexed per (node, level) cell, so a hop finds its tree by scanning the
// few trees of one level (Theorem 13(3) bounds them) instead of searching
// the whole row.
//
// The table is built once from a CoverHierarchy and is the only cover state
// the forwarding path reads, whether the scheme was just built or mapped
// from a snapshot arena (the rows are flat sections; a mapped table views
// them in place).
#ifndef RTR_COVER_COVER_TABLE_H
#define RTR_COVER_COVER_TABLE_H

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>

#include "cover/hierarchy.h"
#include "treeroute/tree_router.h"
#include "util/flat_vec.h"

namespace rtr {

class ArenaStorage;  // io/arena.h
class ArenaView;
class ArenaWriter;
class AuditReport;  // audit/audit.h

/// What node v stores for one double tree containing it.
struct TreeMembership {
  TreeRef tree;
  Port up_port = kNoPort;       // InTree next hop; kNoPort at the center
  std::int32_t is_center = 0;   // 1 iff v is the tree's center
  TreeNodeTable table;          // v's Lemma 14 table in OutTree
};
static_assert(sizeof(TreeMembership) == 24);
static_assert(std::is_trivially_copyable_v<TreeMembership>);

class CoverTable {
 public:
  /// Sentinel find() result: the node is not in the tree.
  static constexpr std::int64_t kNotMember = -1;

  CoverTable() = default;
  explicit CoverTable(const CoverHierarchy& hierarchy);

  /// Sections prefix + "off", "rows", "home".
  void save_arena(ArenaWriter& w, const std::string& prefix) const;
  /// Views a table saved for `n` nodes; throws SnapshotArenaError when the
  /// rows are not a well-formed CSR over the (node, level) cells.
  [[nodiscard]] static CoverTable from_arena(const ArenaView& a,
                                             const std::string& prefix,
                                             NodeId n);

  [[nodiscard]] NodeId node_count() const { return node_count_; }
  [[nodiscard]] std::int32_t level_count() const { return level_count_; }
  /// Total memberships over all nodes (the global index space of find()).
  [[nodiscard]] std::int64_t size() const {
    return static_cast<std::int64_t>(rows_.size());
  }

  /// v's memberships are entries [begin(v), end(v)) of the global index.
  [[nodiscard]] std::int64_t begin(NodeId v) const { return off_[cell(v, 0)]; }
  [[nodiscard]] std::int64_t end(NodeId v) const {
    return off_[cell(v + 1, 0)];
  }
  [[nodiscard]] const TreeMembership& at(std::int64_t i) const {
    return rows_[static_cast<std::size_t>(i)];
  }

  /// Global index of v's membership in `tree`, or kNotMember.
  [[nodiscard]] std::int64_t find(NodeId v, TreeRef tree) const;

  /// v's home tree at a level (the one spanning its whole ball).
  [[nodiscard]] TreeRef home(NodeId v, std::int32_t level) const {
    return TreeRef{level, home_[cell(v, level)]};
  }

  /// Auditable: CSR framing, every cell holding its own level's trees in
  /// strictly increasing order, the center flag agreeing with the up-port,
  /// and every home tree among the node's memberships.  When `built_from`
  /// is given, every row must also equal what that hierarchy holds for the
  /// node.
  void audit(AuditReport& report,
             const CoverHierarchy* built_from = nullptr) const;

 private:
  /// Index of the (node, level) cell in off_ and home_.
  [[nodiscard]] std::size_t cell(NodeId v, std::int32_t level) const {
    return static_cast<std::size_t>(v) *
               static_cast<std::size_t>(level_count_) +
           static_cast<std::size_t>(level);
  }

  NodeId node_count_ = 0;
  std::int32_t level_count_ = 0;
  // Cell (v, l)'s memberships are rows_[off_[cell] .. off_[cell + 1]),
  // sorted by tree index; cells run node-major, so node v's whole row is
  // rows_[off_[cell(v, 0)] .. off_[cell(v + 1, 0)]).
  FlatVec<std::int64_t> off_;        // n x level_count + 1
  FlatVec<TreeMembership> rows_;
  FlatVec<std::int32_t> home_;       // n x level_count
  /// Keepalive when the arrays are views into a mapped arena.
  std::shared_ptr<const ArenaStorage> arena_;
};

}  // namespace rtr

#endif  // RTR_COVER_COVER_TABLE_H
