#include "cover/cover_table.h"

#include <algorithm>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "io/arena.h"

namespace rtr {

CoverTable::CoverTable(const CoverHierarchy& hierarchy)
    : node_count_(hierarchy.level_count() == 0
                      ? 0
                      : static_cast<NodeId>(hierarchy.level(0).home_of.size())),
      level_count_(hierarchy.level_count()) {
  const auto cells = static_cast<std::size_t>(node_count_) *
                     static_cast<std::size_t>(level_count_);
  // Levels, then trees, in order: every cell comes out sorted by tree.
  std::vector<std::vector<TreeMembership>> by_cell(cells);
  std::vector<std::int32_t> home(cells);
  for (std::int32_t level = 0; level < level_count_; ++level) {
    const HierarchyLevel& lvl = hierarchy.level(level);
    for (std::size_t t = 0; t < lvl.trees.size(); ++t) {
      const DoubleTree& tree = lvl.trees[t];
      for (const NodeId v : tree.members()) {
        TreeMembership m;
        m.tree = TreeRef{level, static_cast<std::int32_t>(t)};
        m.up_port = tree.up_port(v);
        m.is_center = v == tree.center() ? 1 : 0;
        m.table = tree.out_router().table(v);
        by_cell[cell(v, level)].push_back(m);
      }
    }
    for (NodeId v = 0; v < node_count_; ++v) {
      home[cell(v, level)] = hierarchy.home(v, level).tree;
    }
  }
  std::vector<std::int64_t> off{0};
  std::vector<TreeMembership> rows;
  for (const auto& members : by_cell) {
    rows.insert(rows.end(), members.begin(), members.end());
    off.push_back(static_cast<std::int64_t>(rows.size()));
  }
  off_ = std::move(off);
  rows_ = std::move(rows);
  home_ = std::move(home);
}

std::int64_t CoverTable::find(NodeId v, TreeRef tree) const {
  if (tree.level < 0 || tree.level >= level_count_) return kNotMember;
  const std::size_t c = cell(v, tree.level);
  for (std::int64_t i = off_[c]; i < off_[c + 1]; ++i) {
    if (rows_[static_cast<std::size_t>(i)].tree.tree == tree.tree) return i;
  }
  return kNotMember;
}

void CoverTable::save_arena(ArenaWriter& w, const std::string& prefix) const {
  w.add(prefix + "off", off_);
  w.add(prefix + "rows", rows_);
  w.add(prefix + "home", home_);
}

CoverTable CoverTable::from_arena(const ArenaView& a, const std::string& prefix,
                                  NodeId n) {
  CoverTable c;
  c.node_count_ = n;
  c.home_ = a.vec<std::int32_t>(prefix + "home");
  const auto nodes = static_cast<std::size_t>(n);
  if (nodes == 0 || c.home_.size() % nodes != 0) {
    throw SnapshotArenaError("arena: " + prefix +
                             "home is not one row of levels per node");
  }
  c.level_count_ = static_cast<std::int32_t>(c.home_.size() / nodes);
  c.off_ = a.vec<std::int64_t>(prefix + "off", c.home_.size() + 1);
  c.rows_ = a.vec<TreeMembership>(prefix + "rows");
  check_csr_offsets(c.off_, c.rows_.size(), prefix + "off");
  c.arena_ = a.storage();
  return c;
}

void CoverTable::audit(AuditReport& report,
                       const CoverHierarchy* built_from) const {
  auto scope = report.scope("cover-table");
  const std::size_t cells = static_cast<std::size_t>(node_count_) *
                            static_cast<std::size_t>(level_count_);
  const bool framed =
      off_.size() == cells + 1 && off_.front() == 0 &&
      off_.back() == static_cast<std::int64_t>(rows_.size()) &&
      std::is_sorted(off_.begin(), off_.end()) && home_.size() == cells;
  report.check("rows-framed", framed,
               "offsets must frame the rows, one cell per node and level");
  if (!framed) return;

  bool sorted_ok = true;
  bool center_ok = true;
  bool homes_ok = true;
  std::string sorted_detail, center_detail, homes_detail;
  for (NodeId v = 0; v < node_count_; ++v) {
    for (std::int32_t level = 0; level < level_count_; ++level) {
      const std::size_t c = cell(v, level);
      for (std::int64_t i = off_[c]; i < off_[c + 1]; ++i) {
        const TreeMembership& m = at(i);
        const bool in_order = i == off_[c] || at(i - 1).tree.tree < m.tree.tree;
        if (sorted_ok &&
            (m.tree.level != level || m.tree.tree < 0 || !in_order)) {
          sorted_ok = false;
          sorted_detail = "cell of node " + std::to_string(v) + " at level " +
                          std::to_string(level) +
                          " is unsorted or holds another level's tree";
        }
        if (center_ok && (m.is_center != 0) != (m.up_port == kNoPort)) {
          center_ok = false;
          center_detail = "node " + std::to_string(v) +
                          " has a center flag that disagrees with its up-port";
        }
      }
      if (homes_ok && find(v, home(v, level)) == kNotMember) {
        homes_ok = false;
        homes_detail = "home tree of node " + std::to_string(v) +
                       " at level " + std::to_string(level) +
                       " is not among its memberships";
      }
    }
  }
  report.check("rows-sorted", sorted_ok, std::move(sorted_detail));
  report.check("center-flag-matches-up-port", center_ok,
               std::move(center_detail));
  report.check("homes-are-members", homes_ok, std::move(homes_detail));

  if (built_from != nullptr) {
    const CoverTable fresh(*built_from);
    report.check("matches-hierarchy",
                 fresh.node_count_ == node_count_ &&
                     fresh.level_count_ == level_count_ && fresh.off_ == off_ &&
                     fresh.home_ == home_ &&
                     std::equal(rows_.begin(), rows_.end(), fresh.rows_.begin(),
                                fresh.rows_.end(),
                                [](const TreeMembership& a,
                                   const TreeMembership& b) {
                                  return a.tree == b.tree &&
                                         a.up_port == b.up_port &&
                                         a.is_center == b.is_center &&
                                         a.table.dfs_in == b.table.dfs_in &&
                                         a.table.heavy_port ==
                                             b.table.heavy_port;
                                }),
                 "rows must equal what the cover hierarchy holds per node");
  }
}

}  // namespace rtr
