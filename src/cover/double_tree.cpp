#include "cover/double_tree.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "audit/audit.h"

namespace rtr {

namespace {

std::vector<char> make_mask(NodeId n, const std::vector<NodeId>& members) {
  std::vector<char> mask(static_cast<std::size_t>(n), 0);
  for (NodeId v : members) {
    if (v < 0 || v >= n) {
      throw std::invalid_argument("DoubleTree: member id out of range");
    }
    mask[static_cast<std::size_t>(v)] = 1;
  }
  return mask;
}

}  // namespace

DoubleTree::DoubleTree(const Digraph& g, const Digraph& reversed, NodeId center,
                       std::vector<NodeId> members)
    : center_(center),
      members_(std::move(members)),
      member_mask_(make_mask(g.node_count(), members_)),
      out_tree_(dijkstra_out_tree_within(g, center, member_mask_)),
      in_tree_(dijkstra_in_tree_within(g, reversed, center, member_mask_)),
      out_router_(out_tree_) {
  if (!contains(center_)) {
    throw std::invalid_argument("DoubleTree: center not among members");
  }
  for (NodeId v : members_) {
    const auto idx = static_cast<std::size_t>(v);
    if (out_tree_.dist[idx] >= kInfDist || in_tree_.dist[idx] >= kInfDist) {
      throw std::invalid_argument(
          "DoubleTree: induced subgraph is not strongly connected");
    }
    rt_height_ = std::max(rt_height_, out_tree_.dist[idx] + in_tree_.dist[idx]);
  }
}

void DoubleTree::audit(AuditReport& report) const {
  auto scope = report.scope("double-tree");
  const auto n = member_mask_.size();

  bool mask_ok = out_tree_.dist.size() == n && in_tree_.dist.size() == n;
  std::size_t marked = 0;
  for (const char m : member_mask_) marked += (m != 0) ? 1 : 0;
  mask_ok = mask_ok && marked == members_.size();
  for (const NodeId v : members_) {
    if (!mask_ok) break;
    if (v < 0 || static_cast<std::size_t>(v) >= n || !contains(v)) {
      mask_ok = false;
    }
  }
  report.check("member-mask-consistent", mask_ok,
               "mask population must equal the member list");
  if (!mask_ok) return;

  report.check("center-is-member",
               center_ >= 0 && static_cast<std::size_t>(center_) < n &&
                   contains(center_),
               "center " + std::to_string(center_));

  bool reach_ok = true;
  std::string reach_detail;
  Dist recomputed_height = 0;
  for (const NodeId v : members_) {
    const auto idx = static_cast<std::size_t>(v);
    if (out_tree_.dist[idx] >= kInfDist || in_tree_.dist[idx] >= kInfDist) {
      reach_ok = false;
      reach_detail = "member " + std::to_string(v) +
                     " unreachable inside the induced subgraph";
      break;
    }
    if (v != center_ && in_tree_.next_port[idx] == kNoPort) {
      reach_ok = false;
      reach_detail = "member " + std::to_string(v) + " has no up port";
      break;
    }
    recomputed_height =
        std::max(recomputed_height, out_tree_.dist[idx] + in_tree_.dist[idx]);
  }
  report.check("members-reach-center", reach_ok, std::move(reach_detail));
  if (reach_ok) {
    report.check("rt-height-cached", recomputed_height == rt_height_,
                 "cached " + std::to_string(rt_height_) + ", recomputed " +
                     std::to_string(recomputed_height));
  }

  report.check("out-router-root", out_router_.root() == center_ &&
                                      out_router_.member_count() ==
                                          member_count(),
               "Lemma 14 router must span exactly the member set from the "
               "center");
  out_router_.audit(report);
}

}  // namespace rtr
