#include "cover/hierarchy.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "audit/audit.h"
#include "graph/apsp.h"
#include "util/parallel.h"

namespace rtr {

CoverHierarchy::CoverHierarchy(const Digraph& g, const Digraph& reversed,
                               const RoundtripMetric& metric, int k,
                               int threads)
    : k_(k) {
  if (k <= 1) throw std::invalid_argument("CoverHierarchy: k > 1");
  const int workers = resolve_apsp_threads(threads);
  // The hierarchy reads whole levels of the metric: one pass over its
  // roundtrip rows yields the diameter and every level's seed balls.  The
  // n^2-byte level table lives until the last level's cover is built.
  const RoundtripBallLevels ball_levels(metric.whole_levels());
  for (std::int32_t i = 0; i < ball_levels.level_count(); ++i) {
    SparseCoverResult cover = build_sparse_cover(ball_levels.balls(i), k);
    HierarchyLevel level;
    level.radius = cover.d;
    level.home_of = std::move(cover.home_of);
    // Per-cluster double trees are independent (each reads the graph, writes
    // its own slot), so they fan out, each worker with its own scratch; the
    // in-order move keeps level.trees identical to the serial build.
    std::vector<std::optional<DoubleTree>> built(cover.clusters.size());
    parallel_tickets(static_cast<std::int64_t>(cover.clusters.size()), workers,
                     [&] {
                       return [&, ws = DoubleTreeWorkspace{}](
                                  std::int64_t c) mutable {
                         auto& cluster =
                             cover.clusters[static_cast<std::size_t>(c)];
                         built[static_cast<std::size_t>(c)].emplace(
                             g, reversed, cluster.center,
                             std::move(cluster.members), ws);
                       };
                     });
    level.trees.reserve(cover.clusters.size());
    for (auto& tree : built) {
      level.trees.push_back(std::move(*tree));
    }
    level.trees_of.assign(static_cast<std::size_t>(g.node_count()), {});
    for (std::size_t t = 0; t < level.trees.size(); ++t) {
      for (NodeId v : level.trees[t].members()) {
        level.trees_of[static_cast<std::size_t>(v)].push_back(
            static_cast<std::int32_t>(t));
      }
    }
    levels_.push_back(std::move(level));
  }
}

void CoverHierarchy::audit(AuditReport& report) const {
  auto scope = report.scope("hierarchy");
  report.check("has-levels", !levels_.empty(), "hierarchy without levels");
  if (levels_.empty()) return;

  const auto n = levels_.front().home_of.size();
  bool radii_ok = levels_.front().radius == 2;
  bool homes_ok = true;
  bool trees_of_ok = true;
  bool heights_ok = true;
  bool trees_sound = true;
  std::string radii_detail, homes_detail, trees_of_detail, heights_detail,
      trees_detail;
  std::int64_t max_trees_per_node = 0;

  for (std::size_t li = 0; li < levels_.size(); ++li) {
    const HierarchyLevel& level = levels_[li];
    if (radii_ok && li > 0 && level.radius != 2 * levels_[li - 1].radius) {
      radii_ok = false;
      radii_detail = "radius does not double at level " + std::to_string(li);
    }
    if (homes_ok && (level.home_of.size() != n || level.trees_of.size() != n)) {
      homes_ok = false;
      homes_detail = "per-node arrays of level " + std::to_string(li) +
                     " are not sized to the node count";
      continue;
    }
    const auto tree_count = static_cast<std::int32_t>(level.trees.size());
    for (std::size_t v = 0; homes_ok && v < n; ++v) {
      const std::int32_t h = level.home_of[v];
      if (h < 0 || h >= tree_count ||
          !level.trees[static_cast<std::size_t>(h)].contains(
              static_cast<NodeId>(v))) {
        homes_ok = false;
        homes_detail = "node " + std::to_string(v) + " at level " +
                       std::to_string(li) +
                       " has no valid home tree containing it";
      }
    }
    // trees_of must list exactly the containing trees: every listed tree
    // contains the node, and the total listed count equals the total member
    // count over the level's trees (so nothing is omitted either).
    std::int64_t listed = 0;
    std::int64_t member_total = 0;
    for (const DoubleTree& t : level.trees) member_total += t.member_count();
    for (std::size_t v = 0; trees_of_ok && v < n; ++v) {
      const auto& ts = level.trees_of[v];
      max_trees_per_node =
          std::max(max_trees_per_node, static_cast<std::int64_t>(ts.size()));
      listed += static_cast<std::int64_t>(ts.size());
      for (const std::int32_t t : ts) {
        if (t < 0 || t >= tree_count ||
            !level.trees[static_cast<std::size_t>(t)].contains(
                static_cast<NodeId>(v))) {
          trees_of_ok = false;
          trees_of_detail = "trees_of lists a non-containing tree for node " +
                            std::to_string(v) + " at level " +
                            std::to_string(li);
          break;
        }
      }
    }
    if (trees_of_ok && listed != member_total) {
      trees_of_ok = false;
      trees_of_detail = "level " + std::to_string(li) + " lists " +
                        std::to_string(listed) + " memberships, trees hold " +
                        std::to_string(member_total);
    }
    const Dist height_budget = static_cast<Dist>(2 * k_ - 1) * level.radius;
    for (std::size_t t = 0; t < level.trees.size(); ++t) {
      const DoubleTree& tree = level.trees[t];
      if (heights_ok && tree.rt_height() > height_budget) {
        heights_ok = false;
        heights_detail = "tree " + std::to_string(t) + " at level " +
                         std::to_string(li) + " has RTHeight " +
                         std::to_string(tree.rt_height()) + " > (2k-1)*2^i = " +
                         std::to_string(height_budget);
      }
      if (trees_sound) {
        AuditReport sub(report.budgets());
        tree.audit(sub);
        if (!sub.ok()) {
          trees_sound = false;
          for (const AuditEntry& e : sub.entries()) {
            if (!e.ok) {
              trees_detail = "tree " + std::to_string(t) + " at level " +
                             std::to_string(li) + ": " + e.component + " :: " +
                             e.invariant;
              break;
            }
          }
        }
      }
    }
  }

  report.check("radii-double", radii_ok, std::move(radii_detail));
  report.check("home-trees-cover", homes_ok, std::move(homes_detail));
  report.check("trees-of-exact", trees_of_ok, std::move(trees_of_detail));
  report.check("rt-heights-bounded", heights_ok, std::move(heights_detail));
  report.check("double-trees-sound", trees_sound, std::move(trees_detail));
  // Theorem 13(3): each node joins <= 2k n^{1/k} trees per level.
  const double budget =
      report.budgets().tree_slack * 2.0 * static_cast<double>(k_) *
      std::pow(std::max<double>(1.0, static_cast<double>(n)),
               1.0 / static_cast<double>(k_));
  report.measure("trees-per-node", static_cast<double>(max_trees_per_node),
                 budget, "max per-level tree memberships of one node vs "
                         "tree_slack * 2k n^(1/k)");
}

std::optional<TreeRef> CoverHierarchy::lowest_home_containing(NodeId v,
                                                              NodeId u) const {
  for (std::int32_t i = 0; i < level_count(); ++i) {
    TreeRef ref = home(v, i);
    if (tree(ref).contains(u)) return ref;
  }
  return std::nullopt;
}

}  // namespace rtr
