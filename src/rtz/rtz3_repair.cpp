// Incremental repair of an Rtz3Scheme (ROADMAP: incremental epoch repair
// under churn).  The contract is bitwise equivalence: the repaired scheme
// must be indistinguishable -- snapshot bytes included -- from what the
// build constructor would produce on the new graph with the same names,
// options, and rng state.  Everything here is therefore either a literal
// replay of a constructor phase on the new graph, or a splice of old-scheme
// state that the rt/repair_oracle.h dirtiness proof certifies unchanged.
//
// Work breakdown per repair, two regimes:
//
//   * Slack fast path (weight-only delta, every changed edge with a
//     strictly shorter detour -- rt/repair_oracle.h:
//     delta_is_strictly_slack): the whole roundtrip metric is proven
//     unchanged, so memberships, radii, nearest centers, center trees, and
//     addresses splice wholesale; the only rebuilt substructures are the
//     ball double trees holding BOTH endpoints of a changed edge whose
//     detour leaves the ball.  Cost: one tiny bounded search per changed
//     edge plus a few member-local tree builds -- O(affected region),
//     independent of n.  This is the regime where repair beats a full
//     rebuild by large factors.
//
//   * General path: one center draw + |A| nearest sweeps (shared with a
//     full build), two budget-bounded multi-source Dijkstras per graph
//     (the ball oracle), one member-local double tree per DIRTY ball, and
//     the global center phase recomputed outright (center trees span the
//     whole graph, so genuine topology churn almost always touches them).
//     The saving over a full build is skipping clean balls' trees and
//     never running the dense APSP (callers hand in a lazy sparse metric).
//
// Both phases are the constructor's own (build_center_trees and
// build_ball_trees); repair hands the ball phase the old scheme and the
// dirty bits, so clean roots are read back instead of rebuilt.
#include "rtz/rtz3_scheme.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "graph/apsp.h"
#include "graph/churn_delta.h"
#include "rt/repair_oracle.h"
#include "rtz/centers.h"
#include "util/parallel.h"

namespace rtr {

std::shared_ptr<const Rtz3Scheme> Rtz3Scheme::repair(
    const Rtz3Scheme& old_scheme, const Digraph& old_graph,
    const Digraph& new_graph, const RoundtripMetric& new_metric,
    const NameAssignment& names, Rng& rng, const ChurnDelta& delta,
    Options options) {
  const NodeId n = new_graph.node_count();

  // --- eligibility ---------------------------------------------------------
  // The equivalence argument needs the sampled-center path with the very
  // first draw accepted on both sides; greedy centers and resampled builds
  // take different code paths a splice cannot reproduce.
  if (options.greedy_centers || old_scheme.resamples_used_ != 0) {
    return nullptr;
  }
  if (old_graph.node_count() != n || names.node_count() != n ||
      old_scheme.names_.node_count() != n) {
    return nullptr;
  }
  for (NodeId v = 0; v < n; ++v) {
    if (names.name_of(v) != old_scheme.names_.name_of(v)) return nullptr;
  }
  const BallSystem& old_balls = old_scheme.balls_;
  if (old_balls.node_count() != n ||
      old_balls.r_to_centers.size() != static_cast<std::size_t>(n) ||
      old_balls.nearest_center.size() != static_cast<std::size_t>(n)) {
    return nullptr;
  }

  // The center set a from-scratch rebuild would draw (consuming the same
  // rng state it would); splicing is only meaningful when that reproduces
  // the old set, i.e. when the caller pinned the build seed across epochs.
  std::vector<NodeId> centers =
      sample_centers(n, default_center_count(n), rng);
  if (centers.size() != old_balls.centers.size()) return nullptr;
  for (std::size_t i = 0; i < centers.size(); ++i) {
    if (centers[i] != old_balls.centers[i]) return nullptr;
  }

  const int workers = resolve_apsp_threads(options.threads);

  const bool phase_debug = std::getenv("RTR_RTZ_PHASE_DEBUG") != nullptr;
  auto dbg_t0 = std::chrono::steady_clock::now();
  auto lap = [&](const char* what) {
    if (!phase_debug) return;
    auto t1 = std::chrono::steady_clock::now();
    std::fprintf(stderr, "[rtz3 repair] %-18s %8.1f ms\n", what,
                 std::chrono::duration<double, std::milli>(t1 - dbg_t0).count());
    dbg_t0 = t1;
  };

  // --- weight-only slack fast path -----------------------------------------
  // When every changed edge is a weight-only re-pricing with a strictly
  // shorter detour (delta_is_strictly_slack), d_old == d_new everywhere:
  // ball memberships, radii, nearest centers, and the full-graph center
  // trees are all bitwise identical to what a fresh build would compute,
  // and the only substructures that can differ are the masked double trees
  // of balls whose mask holds BOTH endpoints (the mask may exclude the
  // detour).  Those are found by intersecting the two endpoints' cluster
  // rows -- the edge->substructure dependency map read backwards -- and
  // screened with the masked detour test, so the work is O(affected
  // region): a handful of tiny searches, independent of n.  The CSR scan
  // below guards the determinism premise (identical relaxation order needs
  // identical structure and ports, not just an empty add/remove diff).
  bool fast = delta.weight_only() && delta_is_strictly_slack(new_graph, delta);
  for (NodeId u = 0; fast && u < n; ++u) {
    const auto old_row = old_graph.out_edges(u);
    const auto new_row = new_graph.out_edges(u);
    if (old_row.size() != new_row.size()) fast = false;
    for (std::size_t i = 0; fast && i < old_row.size(); ++i) {
      if (old_row[i].to != new_row[i].to ||
          old_row[i].port != new_row[i].port) {
        fast = false;
      }
    }
  }

  std::vector<std::int32_t> nearest;
  std::vector<Dist> r_new;
  std::vector<char> dirty(static_cast<std::size_t>(n), 0);
  if (fast) {
    // Proven byte-identical -- splice rather than recompute.
    nearest.assign(old_balls.nearest_center.begin(),
                   old_balls.nearest_center.end());
    r_new.assign(old_balls.r_to_centers.begin(),
                 old_balls.r_to_centers.end());
    for (const EdgeChange& e : delta.modified) {
      const auto in_tail = old_balls.cluster(e.tail);
      const auto in_head = old_balls.cluster(e.head);
      std::size_t i = 0;
      std::size_t j = 0;
      while (i < in_tail.size() && j < in_head.size()) {
        if (in_tail[i] < in_head[j]) {
          ++i;
        } else if (in_head[j] < in_tail[i]) {
          ++j;
        } else {
          const NodeId v = in_tail[i];
          ++i;
          ++j;
          const auto vz = static_cast<std::size_t>(v);
          if (dirty[vz] == 0 &&
              !masked_detour_shorter(new_graph, old_balls.ball(v), e.tail,
                                     e.head, e.min_weight())) {
            dirty[vz] = 1;
          }
        }
      }
    }
    lap("slack fast path");
  } else {
    // --- nearest centers on the new graph, exactly as build_ball_system ---
    new_metric.nearest_all(centers, workers, nearest, r_new);
    lap("nearest_all");

    // --- per-ball dirty bits -----------------------------------------------
    // Ball(v) only sees members with roundtrip distance < r(v, A); querying
    // the oracle at max(r_old, r_new) covers both the members the old ball
    // had and any the new one could gain.
    Dist max_radius = 0;
    for (NodeId v = 0; v < n; ++v) {
      const auto vz = static_cast<std::size_t>(v);
      max_radius = std::max(
          max_radius, std::max(old_balls.r_to_centers[vz], r_new[vz]));
    }
    const BallRepairOracle oracle =
        build_ball_repair_oracle(old_graph, new_graph, delta, max_radius);
    for (NodeId v = 0; v < n; ++v) {
      const auto vz = static_cast<std::size_t>(v);
      if (oracle.dirty(v, std::max(old_balls.r_to_centers[vz], r_new[vz]))) {
        dirty[vz] = 1;
      }
    }
    lap("oracle+dirty");
    // The oracle proof implies a clean ball kept its radius and (by the
    // no-closer-center argument) its nearest center; verify rather than
    // assume -- disagreement means fall back, never corrupt.
    for (NodeId v = 0; v < n; ++v) {
      const auto vz = static_cast<std::size_t>(v);
      if (dirty[vz] == 0 && (nearest[vz] != old_balls.nearest_center[vz] ||
                             r_new[vz] != old_balls.r_to_centers[vz])) {
        return nullptr;
      }
    }
  }
  if (phase_debug) {
    std::size_t dirty_count = 0;
    for (char c : dirty) dirty_count += static_cast<std::size_t>(c);
    std::fprintf(stderr, "[rtz3 repair] dirty %zu / %d (touched %zu%s)\n",
                 dirty_count, n, delta.touched.size(),
                 fast ? ", slack fast path" : "");
  }

  // --- ball rows: splice clean, recompute dirty ----------------------------
  std::vector<std::vector<NodeId>> ball_rows(static_cast<std::size_t>(n));
  parallel_tickets(n, workers, [&] {
    return [&](std::int64_t ticket) {
      const auto v = static_cast<NodeId>(ticket);
      const auto vz = static_cast<std::size_t>(ticket);
      auto& ball = ball_rows[vz];
      // On the slack fast path even a dirty ball keeps its member row --
      // dirtiness there means the masked trees may differ, while the
      // roundtrip metric (hence membership) is proven unchanged.
      if (fast || dirty[vz] == 0) {
        const auto row = old_balls.ball(v);
        ball.assign(row.begin(), row.end());
        return;
      }
      const Dist rv = r_new[vz];
      if (rv <= 0) {
        ball.push_back(v);
      } else {
        ball = new_metric.ball(v, rv - 1);
        if (!std::binary_search(ball.begin(), ball.end(), v)) {
          ball.insert(std::upper_bound(ball.begin(), ball.end(), v), v);
        }
      }
    };
  });
  std::vector<std::vector<NodeId>> cluster_rows(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId w : ball_rows[static_cast<std::size_t>(v)]) {
      cluster_rows[static_cast<std::size_t>(w)].push_back(v);
    }
  }

  // A rebuild accepts the first draw only while the sizes stay inside
  // Lemma 2's slack; past it the rebuild resamples and the splice premise
  // collapses.
  std::int64_t max_ball = 0;
  std::int64_t max_cluster = 0;
  for (NodeId v = 0; v < n; ++v) {
    const auto vz = static_cast<std::size_t>(v);
    max_ball = std::max(max_ball,
                        static_cast<std::int64_t>(ball_rows[vz].size()));
    max_cluster = std::max(
        max_cluster, static_cast<std::int64_t>(cluster_rows[vz].size()));
  }
  const double nn = static_cast<double>(std::max<NodeId>(n, 2));
  const double budget =
      options.size_slack * std::sqrt(nn * (1.0 + std::log(nn)));
  if (static_cast<double>(max_ball) > budget ||
      static_cast<double>(max_cluster) > budget) {
    return nullptr;
  }

  BallSystem sys;
  std::vector<std::int32_t> center_index_of(static_cast<std::size_t>(n), -1);
  for (std::size_t i = 0; i < centers.size(); ++i) {
    center_index_of[static_cast<std::size_t>(centers[i])] =
        static_cast<std::int32_t>(i);
  }
  sys.centers = std::move(centers);
  sys.center_index_of = std::move(center_index_of);
  sys.r_to_centers = std::move(r_new);
  sys.nearest_center = std::move(nearest);
  sys.adopt_rows(ball_rows, cluster_rows);
  lap("ball rows");

  std::shared_ptr<Rtz3Scheme> s(new Rtz3Scheme(new_graph, names));
  s->balls_ = std::move(sys);
  s->node_space_ = n;
  s->port_space_ = new_graph.port_space();
  s->resamples_used_ = 0;
  s->center_count_ = static_cast<std::int64_t>(s->balls_.centers.size());

  // --- global double trees per center, and addresses -----------------------
  // Recomputed verbatim in general (center trees span the whole graph, so
  // almost any churn touches them); spliced wholesale on the slack fast
  // path, where delta_is_strictly_slack proved every full-graph tree --
  // parents, ports, DFS numbers, labels -- bitwise unchanged.
  const Digraph reversed = new_graph.reversed();
  if (fast) {
    s->center_up_port_ = old_scheme.center_up_port_;
    s->center_tree_tab_ = old_scheme.center_tree_tab_;
    s->addresses_ = old_scheme.addresses_;
  } else {
    s->build_center_trees(reversed, workers);
  }
  lap("center trees");

  // --- per-node ball double trees: read back clean roots, rebuild dirty ----
  // A clean root's induced trees are bitwise unchanged -- on the general
  // path no member is roundtrip-near a churn endpoint, on the fast path
  // every changed edge among the members has a detour among them -- so its
  // entries are read back out of the old scheme's flat arrays.  Entries
  // missing there mean the old tables disagree with the old ball system;
  // refuse to splice from it.
  if (!s->build_ball_trees(reversed, workers, &old_scheme, dirty)) {
    return nullptr;
  }
  lap("ball trees");
  return s;
}

}  // namespace rtr
