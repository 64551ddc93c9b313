#include "treeroute/tree_router.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>

#include "audit/audit.h"
#include "io/arena.h"
#include "util/bit_cost.h"

namespace rtr {

TreeRouter::TreeRouter(std::vector<NodeId> members, std::vector<NodeId> parent,
                       std::vector<Port> parent_port)
    : member_count_(static_cast<NodeId>(members.size())),
      members_(std::move(members)),
      parent_(std::move(parent)),
      parent_port_(std::move(parent_port)) {
  const auto m = members_.size();
  if (parent_.size() != m || parent_port_.size() != m) {
    throw std::invalid_argument("TreeRouter: member arrays differ in size");
  }
  if (m == 0) return;
  if (members_.front() < 0 ||
      std::adjacent_find(members_.begin(), members_.end(),
                         std::greater_equal<>{}) != members_.end()) {
    throw std::invalid_argument("TreeRouter: members not strictly ascending");
  }
  tables_.assign(m, TreeNodeTable{});
  heavy_child_.assign(m, kNoNode);

  // Children in CSR form, each list in ascending rank -- which is ascending
  // node order, the order the heavy-child ties and the DFS depend on.
  NodeId root = kNoNode;
  std::vector<std::int32_t> child_off(m + 1, 0);
  for (std::size_t v = 0; v < m; ++v) {
    const NodeId p = parent_[v];
    if (p == kNoNode) {
      if (root != kNoNode) {
        throw std::invalid_argument("TreeRouter: more than one root");
      }
      root = static_cast<NodeId>(v);
    } else if (p < 0 || static_cast<std::size_t>(p) >= m) {
      throw std::invalid_argument("TreeRouter: parent rank out of range");
    } else {
      ++child_off[static_cast<std::size_t>(p) + 1];
    }
  }
  if (root == kNoNode) throw std::invalid_argument("TreeRouter: no root");
  root_ = members_[static_cast<std::size_t>(root)];
  for (std::size_t v = 0; v < m; ++v) child_off[v + 1] += child_off[v];
  std::vector<NodeId> children(m - 1);
  {
    std::vector<std::int32_t> fill(child_off.begin(), child_off.end() - 1);
    for (std::size_t v = 0; v < m; ++v) {
      const NodeId p = parent_[v];
      if (p != kNoNode) {
        children[static_cast<std::size_t>(fill[static_cast<std::size_t>(p)]++)] =
            static_cast<NodeId>(v);
      }
    }
  }
  const auto kids = [&](NodeId v) {
    const auto i = static_cast<std::size_t>(v);
    return std::span<const NodeId>(children.data() + child_off[i],
                                   children.data() + child_off[i + 1]);
  };

  // Iterative preorder DFS assigns dfs_in; the last child pushed is the
  // first visited.
  std::vector<NodeId> preorder;
  preorder.reserve(m);
  std::vector<NodeId> todo{root};
  while (!todo.empty()) {
    const NodeId v = todo.back();
    todo.pop_back();
    tables_[static_cast<std::size_t>(v)].dfs_in =
        static_cast<std::int32_t>(preorder.size());
    preorder.push_back(v);
    for (const NodeId c : kids(v)) todo.push_back(c);
  }
  if (preorder.size() != m) {
    throw std::invalid_argument("TreeRouter: parents do not form one tree");
  }

  // Subtree sizes bottom-up (reverse preorder sees children first), then
  // the heavy child: the first child of largest subtree.
  std::vector<std::int64_t> subtree(m, 1);
  for (auto it = preorder.rbegin(); it != preorder.rend(); ++it) {
    const NodeId p = parent_[static_cast<std::size_t>(*it)];
    if (p != kNoNode) {
      subtree[static_cast<std::size_t>(p)] +=
          subtree[static_cast<std::size_t>(*it)];
    }
  }
  for (std::size_t v = 0; v < m; ++v) {
    std::int64_t best = -1;
    for (const NodeId c : kids(static_cast<NodeId>(v))) {
      if (subtree[static_cast<std::size_t>(c)] > best) {
        best = subtree[static_cast<std::size_t>(c)];
        heavy_child_[v] = c;
        tables_[v].heavy_port = parent_port_[static_cast<std::size_t>(c)];
      }
    }
  }
}

namespace {

// The reachable nodes of an OutTree, ranked in node order, as a compact tree.
TreeRouter compact_router(const OutTree& tree) {
  const auto n = tree.dist.size();
  std::vector<NodeId> rank(n, kNoNode);
  std::vector<NodeId> members;
  for (std::size_t v = 0; v < n; ++v) {
    if (tree.dist[v] >= kInfDist) continue;
    rank[v] = static_cast<NodeId>(members.size());
    members.push_back(static_cast<NodeId>(v));
  }
  std::vector<NodeId> parent;
  std::vector<Port> parent_port;
  parent.reserve(members.size());
  parent_port.reserve(members.size());
  for (const NodeId v : members) {
    const NodeId p = tree.parent[static_cast<std::size_t>(v)];
    parent.push_back(p == kNoNode ? kNoNode : rank[static_cast<std::size_t>(p)]);
    parent_port.push_back(tree.parent_port[static_cast<std::size_t>(v)]);
  }
  return TreeRouter(std::move(members), std::move(parent),
                    std::move(parent_port));
}

}  // namespace

TreeRouter::TreeRouter(const OutTree& tree) : TreeRouter(compact_router(tree)) {}

const TreeNodeTable& TreeRouter::table(NodeId v) const {
  const NodeId r = rank_of(v);
  if (r == kNoNode) {
    throw std::invalid_argument("TreeRouter::table: not a member");
  }
  return tables_[static_cast<std::size_t>(r)];
}

NodeId TreeRouter::parent_of(NodeId v) const {
  const NodeId r = rank_of(v);
  if (r == kNoNode) {
    throw std::invalid_argument("TreeRouter::parent_of: not a member");
  }
  const NodeId p = parent_[static_cast<std::size_t>(r)];
  return p == kNoNode ? kNoNode : members_[static_cast<std::size_t>(p)];
}

void TreeRouter::audit(AuditReport& report) const {
  auto scope = report.scope("tree");
  const auto m = static_cast<std::size_t>(member_count_);

  const bool sized = members_.size() == m && tables_.size() == m &&
                     parent_.size() == m && parent_port_.size() == m &&
                     heavy_child_.size() == m;
  report.check("arrays-sized", sized,
               "per-rank arrays and the member list must agree");
  if (!sized) return;  // the walks below index these arrays per rank
  if (m == 0) {
    report.check("root-is-member", true, "empty tree");
    return;
  }

  // Ranks must be node order, or rank_of's search finds the wrong slot.
  const NodeId root = rank_of(root_);
  bool members_ok = members_.front() >= 0 &&
                    std::adjacent_find(members_.begin(), members_.end(),
                                       std::greater_equal<>{}) ==
                        members_.end() &&
                    root != kNoNode &&
                    parent_[static_cast<std::size_t>(root)] == kNoNode;
  std::string member_detail =
      members_ok ? "" : "members unsorted, or root missing or has a parent";
  for (std::size_t v = 0; members_ok && v < m; ++v) {
    const NodeId p = parent_[v];
    if (static_cast<NodeId>(v) != root &&
        (p < 0 || static_cast<std::size_t>(p) >= m)) {
      members_ok = false;
      member_detail = "member " + std::to_string(members_[v]) +
                      " has a missing or non-member parent";
    }
  }
  report.check("root-is-member", members_ok, std::move(member_detail));
  if (!members_ok) return;

  // Parent pointers must be acyclic and reach the root: a chain longer than
  // the member count has necessarily revisited a node.
  bool acyclic = true;
  std::string cycle_detail;
  for (std::size_t v = 0; v < m; ++v) {
    NodeId x = static_cast<NodeId>(v);
    NodeId steps = 0;
    while (x != root && steps <= member_count_) {
      x = parent_[static_cast<std::size_t>(x)];
      ++steps;
    }
    if (x != root) {
      acyclic = false;
      cycle_detail = "parent chain of member " + std::to_string(members_[v]) +
                     " does not reach the root (cycle)";
      break;
    }
  }
  report.check("parents-acyclic", acyclic, std::move(cycle_detail));

  bool dfs_ok = true;
  std::string dfs_detail;
  std::vector<bool> dfs_seen(m, false);
  for (std::size_t v = 0; v < m; ++v) {
    const std::int32_t dfs = tables_[v].dfs_in;
    if (dfs < 0 || dfs >= member_count_ ||
        dfs_seen[static_cast<std::size_t>(dfs)]) {
      dfs_ok = false;
      dfs_detail = "dfs number of member " + std::to_string(members_[v]) +
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
  for (std::size_t v = 0; v < m; ++v) {
    const NodeId h = heavy_child_[v];
    const Port hp = tables_[v].heavy_port;
    if (h == kNoNode) {
      if (hp != kNoPort) {
        heavy_ok = false;
        heavy_detail = "member " + std::to_string(members_[v]) +
                       " has a heavy port but no heavy child";
        break;
      }
      continue;
    }
    if (h < 0 || static_cast<std::size_t>(h) >= m ||
        parent_[static_cast<std::size_t>(h)] != static_cast<NodeId>(v) ||
        hp != parent_port_[static_cast<std::size_t>(h)]) {
      heavy_ok = false;
      heavy_detail = "heavy link of member " + std::to_string(members_[v]) +
                     " is not a child edge with the matching port";
      break;
    }
  }
  report.check("heavy-links-consistent", heavy_ok, std::move(heavy_detail));

  if (acyclic) {
    std::int64_t max_hops = 0;
    for (std::size_t v = 0; v < m; ++v) {
      max_hops = std::max(max_hops, static_cast<std::int64_t>(
                                        label_at(static_cast<NodeId>(v))
                                            .light_hops.size()));
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
  const NodeId r = rank_of(v);
  if (r == kNoNode) {
    throw std::invalid_argument("TreeRouter::label: not a member");
  }
  return label_at(r);
}

TreeLabel TreeRouter::label_at(NodeId rank) const {
  TreeLabel lab;
  lab.dfs_in = tables_[static_cast<std::size_t>(rank)].dfs_in;
  // Walk v -> root collecting light edges, then reverse into root->v order.
  NodeId x = rank;
  while (parent_[static_cast<std::size_t>(x)] != kNoNode) {
    const NodeId p = parent_[static_cast<std::size_t>(x)];
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
