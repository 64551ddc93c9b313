// R2 handshake labels over the double-tree cover hierarchy.
//
// The paper (Section 3.2-3.3) uses the Roditty-Thorup-Zwick (2k+eps)-roundtrip
// spanner: R2(u,v) names "the most convenient double tree" containing both u
// and v plus the two endpoints' topology-dependent addresses inside it, and
// routing a u->v->u trip inside that tree costs at most a constant (in k)
// multiple of r(u,v).
//
// Our substitute (a documented deviation from the paper) derives R2 from the Theorem 13
// hierarchy: scan levels bottom-up; the first level ell where some tree
// contains both u and v satisfies 2^ell < 2 r(u,v) (v's home tree at level
// ceil(log2 r(u,v)) already contains u), every tree at that level has
// RTHeight <= (2k-1) 2^ell, and a through-the-root trip costs at most
// 2 RTHeight.  Hence
//
//     trip(u,v) <= 2 (2k-1) 2^ell < 4 (2k-1) r(u,v)  =:  beta(k) r(u,v),
//
// the analogue of the paper's (2k+eps) with beta = 4(2k-1).  Among the
// first-level candidates we pick the cheapest actual trip (the paper's "most
// convenient").
#ifndef RTR_RTZ_HANDSHAKE_H
#define RTR_RTZ_HANDSHAKE_H

#include <string>
#include <vector>

#include "cover/cover_table.h"
#include "cover/hierarchy.h"
#include "net/table_stats.h"
#include "treeroute/tree_router.h"

namespace rtr {

/// The handshake label for an ordered pair (u, v): o(log^2 n) bits.
struct R2Label {
  TreeRef tree;
  TreeLabel label_u;  // u's address in the tree (for the return trip)
  TreeLabel label_v;  // v's address in the tree (for the forward trip)
};

/// A sequence of handshake labels in flat, arena-storable form: the tree
/// references plus the two endpoint labels, each side packed on its own.
class PackedR2Labels {
 public:
  /// Packs labels one at a time, in index order.
  class Builder {
   public:
    void add(TreeRef tree, const TreeLabel& label_u, const TreeLabel& label_v);
    [[nodiscard]] PackedR2Labels build();

   private:
    std::vector<TreeRef> tree_;
    PackedLabels<std::int32_t>::Builder u_;
    PackedLabels<std::int32_t>::Builder v_;
  };

  PackedR2Labels() = default;

  [[nodiscard]] std::size_t size() const { return tree_.size(); }
  [[nodiscard]] R2Label at(std::size_t i) const {
    return R2Label{tree_[i], u_.at(i), v_.at(i)};
  }

  /// Sections prefix + "tree", then the u and v labels under prefix + "u_"
  /// and prefix + "v_".
  void save_arena(ArenaWriter& w, const std::string& prefix) const;
  [[nodiscard]] static PackedR2Labels from_arena(const ArenaView& a,
                                                 const std::string& prefix,
                                                 std::uint64_t count);

 private:
  FlatVec<TreeRef> tree_;
  PackedLabels<std::int32_t> u_;
  PackedLabels<std::int32_t> v_;
};

/// A one-way trip through a double tree: climb to the root, descend to the
/// labelled target.  Used for both directions of an R2 pair and by the
/// Section 4 scheme's within-cluster hops.
struct DtLeg {
  TreeRef tree;
  TreeLabel target;
  bool going_up = true;
};

struct DtStep {
  bool arrived = false;
  Port port = kNoPort;
};

/// One local forwarding step of a double-tree leg.  Uses only state the
/// current node stores for this tree (its cover-table row: center flag,
/// up-port, and tree-router table).  Throws std::logic_error when the node
/// is not in the leg's tree.
[[nodiscard]] DtStep dt_step(const CoverTable& cover, NodeId at, DtLeg& leg);

/// R2(u, v) is the tree r2_tree picks plus u's and v's labels in it; table
/// builders pick trees in parallel, then mint labels into a
/// PackedR2Labels::Builder.  Both throw std::logic_error if no common tree
/// exists (impossible when the hierarchy's top level covers the diameter).
[[nodiscard]] TreeRef r2_tree(const CoverHierarchy& h, NodeId u, NodeId v);
[[nodiscard]] R2Label compute_r2(const CoverHierarchy& h, NodeId u, NodeId v);

/// Worst-case roundtrip blowup of an R2 trip: beta(k) = 4 (2k - 1).
[[nodiscard]] constexpr double r2_beta(int k) { return 4.0 * (2 * k - 1); }

/// Per-node storage implied by hierarchy membership (what each node keeps to
/// play its part in every double tree containing it: tree id, up-port,
/// Lemma 14 node table, plus its home tree id per level).
[[nodiscard]] TableStats hierarchy_node_stats(const CoverTable& cover,
                                              std::int64_t node_space,
                                              std::int64_t port_space);

/// Encoded size of an R2 label.
[[nodiscard]] std::int64_t r2_label_bits(const R2Label& label,
                                         std::int64_t node_space,
                                         std::int64_t port_space);

}  // namespace rtr

#endif  // RTR_RTZ_HANDSHAKE_H
