#include "treeroute/tree_router.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stack>
#include <stdexcept>
#include <string>

#include "audit/audit.h"
#include "io/arena.h"
#include "util/bit_cost.h"

namespace rtr {

TreeRouter::TreeRouter(const OutTree& tree) : root_(tree.root) {
  const auto n = tree.dist.size();
  tables_.assign(n, TreeNodeTable{});
  parent_.assign(n, kNoNode);
  parent_port_.assign(n, kNoPort);
  heavy_child_.assign(n, kNoNode);

  // Children lists over reachable members only.
  std::vector<std::vector<NodeId>> children(n);
  for (std::size_t v = 0; v < n; ++v) {
    if (tree.dist[v] >= kInfDist) continue;
    members_.push_back(static_cast<NodeId>(v));
    parent_[v] = tree.parent[v];
    parent_port_[v] = tree.parent_port[v];
    if (tree.parent[v] != kNoNode) {
      children[static_cast<std::size_t>(tree.parent[v])].push_back(
          static_cast<NodeId>(v));
    }
  }
  member_count_ = static_cast<NodeId>(members_.size());
  if (member_count_ == 0) return;

  // Subtree sizes by processing members in decreasing tree depth order
  // (distance order suffices: a child is strictly farther than its parent).
  std::vector<NodeId> by_depth = members_;
  std::sort(by_depth.begin(), by_depth.end(), [&](NodeId a, NodeId b) {
    return tree.dist[static_cast<std::size_t>(a)] >
           tree.dist[static_cast<std::size_t>(b)];
  });
  std::vector<std::int64_t> subtree(n, 1);
  for (NodeId v : by_depth) {
    NodeId p = parent_[static_cast<std::size_t>(v)];
    if (p != kNoNode) subtree[static_cast<std::size_t>(p)] += subtree[static_cast<std::size_t>(v)];
  }

  // Heavy child per node.
  for (NodeId v : members_) {
    std::int64_t best = -1;
    for (NodeId c : children[static_cast<std::size_t>(v)]) {
      if (subtree[static_cast<std::size_t>(c)] > best) {
        best = subtree[static_cast<std::size_t>(c)];
        heavy_child_[static_cast<std::size_t>(v)] = c;
        tables_[static_cast<std::size_t>(v)].heavy_port =
            parent_port_[static_cast<std::size_t>(c)];
      }
    }
  }

  // Iterative preorder DFS assigns dfs_in.
  std::int32_t counter = 0;
  std::stack<NodeId> todo;
  todo.push(root_);
  while (!todo.empty()) {
    NodeId v = todo.top();
    todo.pop();
    tables_[static_cast<std::size_t>(v)].dfs_in = counter++;
    for (NodeId c : children[static_cast<std::size_t>(v)]) todo.push(c);
  }
}

void TreeRouter::audit(AuditReport& report) const {
  auto scope = report.scope("tree");
  const auto n = tables_.size();

  report.check("arrays-sized",
               parent_.size() == n && parent_port_.size() == n &&
                   heavy_child_.size() == n &&
                   members_.size() == static_cast<std::size_t>(member_count_),
               "per-node arrays and the member list must agree");
  if (parent_.size() != n || parent_port_.size() != n ||
      heavy_child_.size() != n ||
      members_.size() != static_cast<std::size_t>(member_count_)) {
    return;  // the walks below index these arrays per member
  }
  if (member_count_ == 0) {
    report.check("root-is-member", true, "empty tree");
    return;
  }

  bool members_ok = contains(root_) &&
                    parent_[static_cast<std::size_t>(root_)] == kNoNode;
  std::string member_detail =
      members_ok ? "" : "root missing or has a parent";
  for (const NodeId v : members_) {
    if (!members_ok) break;
    if (!contains(v)) {
      members_ok = false;
      member_detail = "listed member " + std::to_string(v) + " has no table";
    } else if (v != root_) {
      const NodeId p = parent_[static_cast<std::size_t>(v)];
      if (p == kNoNode || !contains(p)) {
        members_ok = false;
        member_detail = "member " + std::to_string(v) +
                        " has a missing or non-member parent";
      }
    }
  }
  report.check("root-is-member", members_ok, std::move(member_detail));
  if (!members_ok) return;

  // Parent pointers must be acyclic and reach the root: a chain longer than
  // the member count has necessarily revisited a node.
  bool acyclic = true;
  std::string cycle_detail;
  for (const NodeId v : members_) {
    NodeId x = v;
    NodeId steps = 0;
    while (x != root_ && steps <= member_count_) {
      x = parent_[static_cast<std::size_t>(x)];
      ++steps;
    }
    if (x != root_) {
      acyclic = false;
      cycle_detail = "parent chain of member " + std::to_string(v) +
                     " does not reach the root (cycle)";
      break;
    }
  }
  report.check("parents-acyclic", acyclic, std::move(cycle_detail));

  bool dfs_ok = true;
  std::string dfs_detail;
  std::vector<bool> dfs_seen(static_cast<std::size_t>(member_count_), false);
  for (const NodeId v : members_) {
    const std::int32_t dfs = tables_[static_cast<std::size_t>(v)].dfs_in;
    if (dfs < 0 || dfs >= member_count_ ||
        dfs_seen[static_cast<std::size_t>(dfs)]) {
      dfs_ok = false;
      dfs_detail = "dfs number of member " + std::to_string(v) +
                   " out of range or duplicated";
      break;
    }
    dfs_seen[static_cast<std::size_t>(dfs)] = true;
  }
  report.check("dfs-numbers-unique", dfs_ok, std::move(dfs_detail));

  // Heavy links: a recorded heavy child must be a member child of its node
  // with the matching port; a node without one must present kNoPort (the
  // leaf condition tree_next_port uses to detect off-path packets).
  bool heavy_ok = true;
  std::string heavy_detail;
  for (const NodeId v : members_) {
    const NodeId h = heavy_child_[static_cast<std::size_t>(v)];
    const Port hp = tables_[static_cast<std::size_t>(v)].heavy_port;
    if (h == kNoNode) {
      if (hp != kNoPort) {
        heavy_ok = false;
        heavy_detail = "member " + std::to_string(v) +
                       " has a heavy port but no heavy child";
        break;
      }
      continue;
    }
    if (!contains(h) || parent_[static_cast<std::size_t>(h)] != v ||
        hp != parent_port_[static_cast<std::size_t>(h)]) {
      heavy_ok = false;
      heavy_detail = "heavy link of member " + std::to_string(v) +
                     " is not a child edge with the matching port";
      break;
    }
  }
  report.check("heavy-links-consistent", heavy_ok, std::move(heavy_detail));

  if (acyclic) {
    std::int64_t max_hops = 0;
    for (const NodeId v : members_) {
      max_hops = std::max(
          max_hops, static_cast<std::int64_t>(label(v).light_hops.size()));
    }
    const double budget =
        report.budgets().label_slack *
        std::floor(std::log2(std::max<double>(2.0,
                                              static_cast<double>(member_count_))));
    report.measure("light-hops", static_cast<double>(max_hops), budget,
                   "longest light-hop list vs label_slack * floor(log2 |tree|)");
  }
}

template <typename HopOffset>
void PackedLabels<HopOffset>::Builder::add(const TreeLabel& label) {
  dfs_.push_back(label.dfs_in);
  for (const auto& [tail_dfs, port] : label.light_hops) {
    hops_.push_back(LightHop{tail_dfs, port});
  }
  if (hops_.size() >
      static_cast<std::size_t>(std::numeric_limits<HopOffset>::max())) {
    throw std::length_error("PackedLabels: hop offsets overflow");
  }
  hop_off_.push_back(static_cast<HopOffset>(hops_.size()));
}

template <typename HopOffset>
PackedLabels<HopOffset> PackedLabels<HopOffset>::Builder::build() {
  PackedLabels p;
  p.dfs_ = std::move(dfs_);
  p.hop_off_ = std::move(hop_off_);
  p.hops_ = std::move(hops_);
  return p;
}

template <typename HopOffset>
PackedLabels<HopOffset>::PackedLabels(const std::vector<TreeLabel>& labels) {
  Builder b;
  for (const TreeLabel& label : labels) b.add(label);
  *this = b.build();
}

template <typename HopOffset>
TreeLabel PackedLabels<HopOffset>::at(std::size_t i) const {
  TreeLabel label;
  label.dfs_in = dfs_[i];
  const auto lo = static_cast<std::size_t>(hop_off_[i]);
  const auto hi = static_cast<std::size_t>(hop_off_[i + 1]);
  for (std::size_t h = lo; h < hi; ++h) {
    label.light_hops.emplace_back(hops_[h].dfs, hops_[h].port);
  }
  return label;
}

template <typename HopOffset>
bool PackedLabels<HopOffset>::well_formed() const {
  return hop_off_.size() == dfs_.size() + 1 && hop_off_.front() == 0 &&
         hop_off_.back() == static_cast<HopOffset>(hops_.size()) &&
         std::is_sorted(hop_off_.begin(), hop_off_.end());
}

template <typename HopOffset>
void PackedLabels<HopOffset>::save_arena(ArenaWriter& w,
                                         const std::string& prefix) const {
  w.add(prefix + "dfs", dfs_);
  w.add(prefix + "hop_off", hop_off_);
  w.add(prefix + "hops", hops_);
}

template <typename HopOffset>
PackedLabels<HopOffset> PackedLabels<HopOffset>::from_arena(
    const ArenaView& a, const std::string& prefix, std::uint64_t count) {
  PackedLabels p;
  p.dfs_ = a.vec<std::int32_t>(prefix + "dfs", count);
  p.hop_off_ = a.vec<HopOffset>(prefix + "hop_off", count + 1);
  p.hops_ = a.vec<LightHop>(prefix + "hops");
  // Every at() trusts this shape, so check it once here.
  if (!p.well_formed()) {
    throw SnapshotArenaError("arena: " + prefix +
                             "hop_off does not frame the hop array");
  }
  return p;
}

template class PackedLabels<std::int32_t>;
template class PackedLabels<std::int64_t>;

TreeLabel TreeRouter::label(NodeId v) const {
  if (!contains(v)) throw std::invalid_argument("TreeRouter::label: not a member");
  TreeLabel lab;
  lab.dfs_in = tables_[static_cast<std::size_t>(v)].dfs_in;
  // Walk v -> root collecting light edges, then reverse into root->v order.
  NodeId x = v;
  while (parent_[static_cast<std::size_t>(x)] != kNoNode) {
    NodeId p = parent_[static_cast<std::size_t>(x)];
    if (heavy_child_[static_cast<std::size_t>(p)] != x) {
      lab.light_hops.emplace_back(tables_[static_cast<std::size_t>(p)].dfs_in,
                                  parent_port_[static_cast<std::size_t>(x)]);
    }
    x = p;
  }
  std::reverse(lab.light_hops.begin(), lab.light_hops.end());
  return lab;
}

Port tree_next_port(const TreeNodeTable& at, const TreeLabel& target) {
  if (at.dfs_in == target.dfs_in) return kNoPort;
  for (const auto& [tail_dfs, port] : target.light_hops) {
    if (tail_dfs == at.dfs_in) return port;
  }
  if (at.heavy_port == kNoPort) {
    throw std::logic_error("tree_next_port: node is off the root->target path");
  }
  return at.heavy_port;
}

std::int64_t tree_label_bits(const TreeLabel& label, std::int64_t node_space,
                             std::int64_t port_space) {
  const std::int64_t id_bits = bits_for(node_space);
  const std::int64_t port_bits = bits_for(port_space);
  return id_bits +  // dfs_in
         static_cast<std::int64_t>(label.light_hops.size()) * (id_bits + port_bits) +
         bits_for(node_space);  // length field
}

}  // namespace rtr
