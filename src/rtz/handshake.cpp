#include "rtz/handshake.h"

#include <stdexcept>

#include "io/arena.h"
#include "util/bit_cost.h"

namespace rtr {

PackedR2Labels::PackedR2Labels(const std::vector<R2Label>& labels) {
  std::vector<TreeRef> trees;
  PackedLabels<std::int32_t>::Builder u, v;
  trees.reserve(labels.size());
  for (const R2Label& label : labels) {
    trees.push_back(label.tree);
    u.add(label.label_u);
    v.add(label.label_v);
  }
  tree_ = std::move(trees);
  u_ = u.build();
  v_ = v.build();
}

void PackedR2Labels::save_arena(ArenaWriter& w,
                                const std::string& prefix) const {
  w.add(prefix + "tree", tree_);
  u_.save_arena(w, prefix + "u_");
  v_.save_arena(w, prefix + "v_");
}

PackedR2Labels PackedR2Labels::from_arena(const ArenaView& a,
                                          const std::string& prefix,
                                          std::uint64_t count) {
  PackedR2Labels p;
  p.tree_ = a.vec<TreeRef>(prefix + "tree", count);
  p.u_ = PackedLabels<std::int32_t>::from_arena(a, prefix + "u_", count);
  p.v_ = PackedLabels<std::int32_t>::from_arena(a, prefix + "v_", count);
  return p;
}

DtStep dt_step(const CoverTable& cover, NodeId at, DtLeg& leg) {
  const std::int64_t i = cover.find(at, leg.tree);
  if (i == CoverTable::kNotMember) {
    throw std::logic_error("dt_step: node is outside the leg's double tree");
  }
  const TreeMembership& m = cover.at(i);
  if (leg.going_up) {
    if (m.is_center != 0) {
      leg.going_up = false;
    } else {
      return DtStep{false, m.up_port};
    }
  }
  Port p = tree_next_port(m.table, leg.target);
  if (p == kNoPort) return DtStep{true, kNoPort};
  return DtStep{false, p};
}

R2Label compute_r2(const CoverHierarchy& hierarchy, NodeId u, NodeId v) {
  for (std::int32_t level = 0; level < hierarchy.level_count(); ++level) {
    const HierarchyLevel& lvl = hierarchy.level(level);
    std::int32_t best_tree = -1;
    Dist best_cost = kInfDist;
    for (std::int32_t t : lvl.trees_of[static_cast<std::size_t>(u)]) {
      const DoubleTree& tree = lvl.trees[static_cast<std::size_t>(t)];
      if (!tree.contains(v)) continue;
      // Cost of the u -> root -> v trip ("most convenient" tree).
      const Dist cost = tree.up_dist(u) + tree.down_dist(v);
      if (cost < best_cost) {
        best_cost = cost;
        best_tree = t;
      }
    }
    if (best_tree >= 0) {
      const DoubleTree& tree = lvl.trees[static_cast<std::size_t>(best_tree)];
      return R2Label{TreeRef{level, best_tree}, tree.out_router().label(u),
                     tree.out_router().label(v)};
    }
  }
  throw std::logic_error("compute_r2: no common double tree for the pair");
}

TableStats hierarchy_node_stats(const CoverTable& cover,
                                std::int64_t node_space,
                                std::int64_t port_space) {
  const NodeId n = cover.node_count();
  TableStats stats(n);
  const std::int64_t id_bits = bits_for(node_space);
  const std::int64_t port_bits = bits_for(port_space);
  const std::int64_t tree_id_bits =
      bits_for(cover.level_count()) + id_bits;  // (level, tree index)
  const std::int64_t levels = cover.level_count();
  for (NodeId v = 0; v < n; ++v) {
    const std::int64_t memberships = cover.end(v) - cover.begin(v);
    // Per membership: tree id + up-port + (dfs_in, heavy_port) table.
    stats.add(v, memberships,
              memberships * (tree_id_bits + port_bits + id_bits + port_bits));
    // Home tree id per level.
    stats.add(v, levels, levels * tree_id_bits);
  }
  return stats;
}

std::int64_t r2_label_bits(const R2Label& label, std::int64_t node_space,
                           std::int64_t port_space) {
  const std::int64_t tree_id_bits = bits_for(node_space) + 8;
  (void)label;
  return tree_id_bits + tree_label_bits(label.label_u, node_space, port_space) +
         tree_label_bits(label.label_v, node_space, port_space);
}

}  // namespace rtr
