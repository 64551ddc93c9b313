// The hierarchy of double-tree covers (Section 4's construction, also our
// stand-in for the Roditty-Thorup-Zwick roundtrip spanner of Lemma 5 -- see
// a documented deviation from the paper).
//
// For every level i = 1 .. ceil(log2 RTDiam), build the Theorem 13 cover at
// radius 2^i and a double tree per cluster.  Every node v picks a *home*
// double-tree at each level: one spanning its whole ball N-hat^{2^i}(v)
// (guaranteed to exist by Theorem 13(1)).
//
// Guarantees carried by construction, tested in tests/hierarchy_test.cpp:
//   * home tree of v at level i contains every w with r(v,w) <= 2^i,
//   * RTHeight of level-i trees <= (2k-1) 2^i,
//   * each node is in at most 2k n^{1/k} trees per level.
//
// Cost: a level's double trees hold O(their memberships) words in all
// (see double_tree.h); each level adds O(n) words of per-node home and
// trees_of lists, and each building worker one O(n) rank map per level.
// So the whole hierarchy is O(memberships + levels * n), not
// O(trees * n).
#ifndef RTR_COVER_HIERARCHY_H
#define RTR_COVER_HIERARCHY_H

#include <optional>
#include <vector>

#include "cover/double_tree.h"
#include "cover/sparse_cover.h"

namespace rtr {

/// Identifies one double tree in the hierarchy: (level index, tree index).
struct TreeRef {
  std::int32_t level = -1;  // 0-based level index; radius = 2^(level+1)
  std::int32_t tree = -1;

  friend bool operator==(const TreeRef&, const TreeRef&) = default;
};

struct HierarchyLevel {
  Dist radius = 0;  // 2^{i}
  std::vector<DoubleTree> trees;
  std::vector<std::int32_t> home_of;               // per node
  std::vector<std::vector<std::int32_t>> trees_of; // per node: tree indices
};

class CoverHierarchy {
 public:
  /// Builds all levels.  k > 1; metric must come from (g's) APSP.  The
  /// per-cluster double trees of each level build in parallel over `threads`
  /// workers (<= 0 resolves the process default); the hierarchy is a pure
  /// function of (g, metric, k) for any thread count.
  CoverHierarchy(const Digraph& g, const Digraph& reversed,
                 const RoundtripMetric& metric, int k, int threads = 1);

  [[nodiscard]] int k() const { return k_; }
  [[nodiscard]] std::int32_t level_count() const {
    return static_cast<std::int32_t>(levels_.size());
  }
  [[nodiscard]] const HierarchyLevel& level(std::int32_t i) const {
    return levels_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] const DoubleTree& tree(TreeRef ref) const {
    return levels_[static_cast<std::size_t>(ref.level)]
        .trees[static_cast<std::size_t>(ref.tree)];
  }

  /// The home double-tree of v at level i.
  [[nodiscard]] TreeRef home(NodeId v, std::int32_t level_index) const {
    return TreeRef{level_index,
                   levels_[static_cast<std::size_t>(level_index)]
                       .home_of[static_cast<std::size_t>(v)]};
  }

  /// The lowest level whose home tree of v also contains u (exists whenever
  /// the top level covers RTDiam; nullopt only for malformed inputs).
  [[nodiscard]] std::optional<TreeRef> lowest_home_containing(NodeId v,
                                                              NodeId u) const;

  /// Auditable: radii double per level, every node has a home tree it is a
  /// member of, trees_of lists exactly the trees containing each node,
  /// level-i RTHeights stay within (2k-1) * radius (Theorem 13(2)), the
  /// per-node tree count stays within tree_slack * 2k n^{1/k} per level
  /// (Theorem 13(3)), and every double tree is internally sound (their deep
  /// audits are aggregated into one entry per level to keep reports small).
  void audit(AuditReport& report) const;

 private:
  int k_;
  std::vector<HierarchyLevel> levels_;
};

}  // namespace rtr

#endif  // RTR_COVER_HIERARCHY_H
