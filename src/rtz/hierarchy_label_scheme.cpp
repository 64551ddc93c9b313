#include "rtz/hierarchy_label_scheme.h"

#include <stdexcept>
#include <string>

#include "audit/audit.h"
#include "util/bit_cost.h"

namespace rtr {

HierarchyLabelScheme::HierarchyLabelScheme(const Digraph& g,
                                           const RoundtripMetric& metric,
                                           const NameAssignment& names,
                                           Options options)
    : k_(options.k),
      names_(names),
      node_space_(g.node_count()),
      port_space_(g.port_space()) {
  const Digraph reversed = g.reversed();
  hierarchy_ = std::make_shared<CoverHierarchy>(g, reversed, metric, k_);
  cover_ = CoverTable(*hierarchy_);
  const NodeId n = g.node_count();
  labels_.resize(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    HierarchyLabel& label = labels_[static_cast<std::size_t>(v)];
    label.name = names_.name_of(v);
    for (std::int32_t level = 0; level < hierarchy_->level_count(); ++level) {
      TreeRef home = hierarchy_->home(v, level);
      label.home_tree.push_back(home.tree);
      label.home_address.push_back(hierarchy_->tree(home).out_router().label(v));
    }
  }
}

HierarchyLabelScheme::Header HierarchyLabelScheme::make_packet(
    NodeName dest) const {
  Header h;
  h.dest = dest;
  return h;
}

Decision HierarchyLabelScheme::forward(NodeId at, Header& h) const {
  const NodeName at_name = names_.name_of(at);
  switch (h.mode) {
    case Mode::kNew: {
      h.src = at_name;
      h.mode = Mode::kOutbound;
      if (at_name == h.dest) return Decision::deliver_here();
      // Lowest level whose home tree of the destination contains us; the
      // destination's full label is available in the name-dependent model.
      const HierarchyLabel& dest_label =
          labels_[static_cast<std::size_t>(names_.id_of(h.dest))];
      for (std::int32_t level = 0; level < hierarchy_->level_count(); ++level) {
        TreeRef ref{level, dest_label.home_tree[static_cast<std::size_t>(level)]};
        if (cover_.find(at, ref) == CoverTable::kNotMember) continue;
        h.tree = ref;
        h.dest_label = dest_label.home_address[static_cast<std::size_t>(level)];
        h.src_label = hierarchy_->tree(ref).out_router().label(at);
        h.leg = DtLeg{ref, h.dest_label, true};
        DtStep step = dt_step(cover_, at, h.leg);
        if (step.arrived) {
          throw std::logic_error("hier-label: fresh leg arrived instantly");
        }
        return Decision::forward_on(step.port);
      }
      throw std::logic_error("hier-label: no common home tree (broken cover)");
    }
    case Mode::kOutbound: {
      // Mid-leg steps here and in kInbound: header_bits never reads the
      // leg, so its size is unchanged.
      DtStep step = dt_step(cover_, at, h.leg);
      if (!step.arrived) return Decision::forward_same_size(step.port);
      if (at_name != h.dest) {
        throw std::logic_error("hier-label: leg arrived off-destination");
      }
      return Decision::deliver_here();
    }
    case Mode::kReturn: {
      h.mode = Mode::kInbound;
      if (at_name == h.src) return Decision::deliver_here();
      h.leg = DtLeg{h.tree, h.src_label, true};
      DtStep step = dt_step(cover_, at, h.leg);
      if (step.arrived) {
        throw std::logic_error("hier-label: return leg arrived instantly");
      }
      return Decision::forward_on(step.port);
    }
    case Mode::kInbound: {
      DtStep step = dt_step(cover_, at, h.leg);
      if (!step.arrived) return Decision::forward_same_size(step.port);
      if (at_name != h.src) {
        throw std::logic_error("hier-label: return ended away from source");
      }
      return Decision::deliver_here();
    }
  }
  throw std::logic_error("hier-label: bad mode");
}

std::int64_t HierarchyLabelScheme::header_bits(const Header& h) const {
  return 2 /* mode */ + 2 * bits_for(node_space_) +
         bits_for(hierarchy_->level_count() + 1) + bits_for(node_space_) +
         tree_label_bits(h.dest_label, node_space_, port_space_) +
         tree_label_bits(h.src_label, node_space_, port_space_) + 1;
}

void HierarchyLabelScheme::audit(AuditReport& report) const {
  auto scope = report.scope("hier-label");
  {
    auto names_scope = report.scope("names");
    names_.audit(report);
  }
  hierarchy_->audit(report);
  cover_.audit(report, hierarchy_.get());

  const auto n = static_cast<std::size_t>(names_.node_count());
  const auto levels = static_cast<std::size_t>(hierarchy_->level_count());
  report.check("labels-sized", labels_.size() == n, "one label per node");
  if (labels_.size() != n) return;

  bool labels_ok = true;
  std::string detail;
  for (std::size_t v = 0; labels_ok && v < n; ++v) {
    const HierarchyLabel& lab = labels_[v];
    if (lab.name != names_.name_of(static_cast<NodeId>(v)) ||
        lab.home_tree.size() != levels || lab.home_address.size() != levels) {
      labels_ok = false;
      detail = "label of node " + std::to_string(v) +
               " misnamed or not covering every level";
      break;
    }
    for (std::size_t li = 0; li < levels; ++li) {
      const TreeRef home =
          hierarchy_->home(static_cast<NodeId>(v),
                           static_cast<std::int32_t>(li));
      if (lab.home_tree[li] != home.tree ||
          !hierarchy_->tree(home).contains(static_cast<NodeId>(v))) {
        labels_ok = false;
        detail = "label of node " + std::to_string(v) + " at level " +
                 std::to_string(li) +
                 " disagrees with the hierarchy's home assignment";
        break;
      }
    }
  }
  report.check("labels-match-hierarchy", labels_ok, std::move(detail));
}

TableStats HierarchyLabelScheme::table_stats() const {
  const auto n = static_cast<NodeId>(labels_.size());
  // Membership storage (up ports + tree tables) ...
  TableStats stats = hierarchy_node_stats(cover_, node_space_, port_space_);
  // ... plus each node's own per-membership address (needed to mint
  // src_label locally at the source).
  for (std::int32_t level = 0; level < hierarchy_->level_count(); ++level) {
    const HierarchyLevel& lvl = hierarchy_->level(level);
    for (NodeId v = 0; v < n; ++v) {
      for (std::int32_t t : lvl.trees_of[static_cast<std::size_t>(v)]) {
        const TreeLabel label =
            lvl.trees[static_cast<std::size_t>(t)].out_router().label(v);
        stats.add(v, 1, tree_label_bits(label, node_space_, port_space_));
      }
    }
  }
  return stats;
}

}  // namespace rtr
