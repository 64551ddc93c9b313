#include "rtz/balls.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "audit/audit.h"
#include "graph/apsp.h"
#include "io/arena.h"
#include "util/parallel.h"

namespace rtr {

namespace {

std::int64_t max_row_size(const FlatVec<std::int64_t>& off) {
  std::int64_t mx = 0;
  for (std::size_t v = 0; v + 1 < off.size(); ++v) {
    mx = std::max(mx, off[v + 1] - off[v]);
  }
  return mx;
}

void flatten_rows(const std::vector<std::vector<NodeId>>& rows,
                  std::vector<std::int64_t>& off, std::vector<NodeId>& members) {
  off.assign(rows.size() + 1, 0);
  std::int64_t total = 0;
  for (std::size_t v = 0; v < rows.size(); ++v) {
    total += static_cast<std::int64_t>(rows[v].size());
    off[v + 1] = total;
  }
  members.clear();
  members.reserve(static_cast<std::size_t>(total));
  for (const auto& row : rows) {
    members.insert(members.end(), row.begin(), row.end());
  }
}

}  // namespace

std::int64_t BallSystem::max_ball_size() const { return max_row_size(ball_off); }

std::int64_t BallSystem::max_cluster_size() const {
  return max_row_size(cluster_off);
}

void BallSystem::adopt_rows(const std::vector<std::vector<NodeId>>& ball_rows,
                            const std::vector<std::vector<NodeId>>& cluster_rows) {
  std::vector<std::int64_t> off;
  std::vector<NodeId> members;
  flatten_rows(ball_rows, off, members);
  ball_off = std::move(off);
  ball_members = std::move(members);
  flatten_rows(cluster_rows, off, members);
  cluster_off = std::move(off);
  cluster_members = std::move(members);
}

void BallSystem::save_arena(ArenaWriter& w, const std::string& prefix) const {
  w.add(prefix + "centers", centers);
  w.add(prefix + "center_index", center_index_of);
  w.add(prefix + "r_to_centers", r_to_centers);
  w.add(prefix + "nearest", nearest_center);
  w.add(prefix + "ball_off", ball_off);
  w.add(prefix + "ball_members", ball_members);
  w.add(prefix + "cluster_off", cluster_off);
  w.add(prefix + "cluster_members", cluster_members);
}

BallSystem BallSystem::from_arena(const ArenaView& a,
                                  const std::string& prefix) {
  const auto n = static_cast<std::uint64_t>(a.header().node_count);
  BallSystem b;
  b.centers = a.vec<NodeId>(prefix + "centers");
  b.center_index_of = a.vec<std::int32_t>(prefix + "center_index", n);
  b.r_to_centers = a.vec<Dist>(prefix + "r_to_centers", n);
  b.nearest_center = a.vec<std::int32_t>(prefix + "nearest", n);
  b.ball_off = a.vec<std::int64_t>(prefix + "ball_off", n + 1);
  b.ball_members = a.vec<NodeId>(prefix + "ball_members");
  b.cluster_off = a.vec<std::int64_t>(prefix + "cluster_off", n + 1);
  b.cluster_members = a.vec<NodeId>(prefix + "cluster_members");
  check_csr_offsets(b.ball_off, b.ball_members.size(), prefix + "ball_off");
  check_csr_offsets(b.cluster_off, b.cluster_members.size(),
                    prefix + "cluster_off");
  b.arena = a.storage();
  return b;
}

void BallSystem::audit(AuditReport& report) const {
  auto scope = report.scope("balls");
  const auto n = static_cast<std::size_t>(node_count());

  report.check("arrays-sized",
               center_index_of.size() == n && r_to_centers.size() == n &&
                   nearest_center.size() == n && ball_off.size() == n + 1 &&
                   cluster_off.size() == n + 1,
               "per-node arrays must all have one row per node");
  if (center_index_of.size() != n || r_to_centers.size() != n ||
      nearest_center.size() != n || ball_off.size() != n + 1 ||
      cluster_off.size() != n + 1) {
    return;  // the walks below index these arrays per node
  }

  // CSR shape: offsets monotone from 0 to the members array size; the row
  // walks below assume it.
  const auto csr_ok = [](const FlatVec<std::int64_t>& off,
                         std::size_t members) {
    if (off.front() != 0 || off.back() != static_cast<std::int64_t>(members)) {
      return false;
    }
    for (std::size_t i = 0; i + 1 < off.size(); ++i) {
      if (off[i] > off[i + 1]) return false;
    }
    return true;
  };
  const bool offsets_ok = csr_ok(ball_off, ball_members.size()) &&
                          csr_ok(cluster_off, cluster_members.size());
  report.check("csr-offsets-wellformed", offsets_ok,
               "ball/cluster offsets must rise monotonically from 0 to the "
               "members array size");
  if (!offsets_ok) return;

  // Center set: sorted + unique, in range, and center_index_of is its exact
  // inverse (every non-center maps to -1).
  bool centers_ok = !centers.empty();
  std::string center_detail = centers.empty() ? "empty center set" : "";
  for (std::size_t i = 0; centers_ok && i < centers.size(); ++i) {
    const NodeId c = centers[i];
    if (c < 0 || static_cast<std::size_t>(c) >= n ||
        (i > 0 && centers[i - 1] >= c)) {
      centers_ok = false;
      center_detail = "centers not sorted/unique/in-range at index " +
                      std::to_string(i);
    } else if (center_index_of[static_cast<std::size_t>(c)] !=
               static_cast<std::int32_t>(i)) {
      centers_ok = false;
      center_detail = "center_index_of inconsistent for center " +
                      std::to_string(c);
    }
  }
  if (centers_ok) {
    std::size_t marked = 0;
    for (const std::int32_t idx : center_index_of) {
      if (idx >= 0) ++marked;
    }
    if (marked != centers.size()) {
      centers_ok = false;
      center_detail = "center_index_of marks " + std::to_string(marked) +
                      " nodes, center set has " + std::to_string(centers.size());
    }
  }
  report.check("center-index-inverse", centers_ok, std::move(center_detail));

  bool nearest_ok = true;
  std::string nearest_detail;
  for (std::size_t v = 0; nearest_ok && v < n; ++v) {
    const std::int32_t idx = nearest_center[v];
    if (idx < 0 || static_cast<std::size_t>(idx) >= centers.size() ||
        r_to_centers[v] >= kInfDist) {
      nearest_ok = false;
      nearest_detail = "node " + std::to_string(v) +
                       " lacks a finite nearest center";
    }
  }
  report.check("nearest-center-valid", nearest_ok, std::move(nearest_detail));

  // Ball rows: sorted + unique + in range, v a member of its own ball, each
  // center's ball the singleton {c} (r(c, A) = 0), and ball/cluster duality.
  bool rows_ok = true;
  bool dual_ok = true;
  std::string rows_detail, dual_detail;
  const auto row_sorted = [](std::span<const NodeId> row, std::size_t nn) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (row[i] < 0 || static_cast<std::size_t>(row[i]) >= nn ||
          (i > 0 && row[i - 1] >= row[i])) {
        return false;
      }
    }
    return true;
  };
  for (std::size_t v = 0; rows_ok && v < n; ++v) {
    const auto vid = static_cast<NodeId>(v);
    const auto ball_row = ball(vid);
    if (!row_sorted(ball_row, n) || !row_sorted(cluster(vid), n)) {
      rows_ok = false;
      rows_detail = "ball/cluster row of node " + std::to_string(v) +
                    " not sorted/unique/in-range";
    } else if (!std::binary_search(ball_row.begin(), ball_row.end(), vid)) {
      rows_ok = false;
      rows_detail = "node " + std::to_string(v) + " missing from its own ball";
    } else if (center_index_of[v] >= 0 && ball_row.size() != 1) {
      rows_ok = false;
      rows_detail = "center " + std::to_string(v) +
                    " has a non-singleton ball (r(c, A) must be 0)";
    }
    for (std::size_t i = 0; dual_ok && i < ball_row.size(); ++i) {
      const auto cluster_row = cluster(ball_row[i]);
      if (!std::binary_search(cluster_row.begin(), cluster_row.end(), vid)) {
        dual_ok = false;
        dual_detail = std::to_string(ball_row[i]) + " in Ball(" +
                      std::to_string(v) + ") but " + std::to_string(v) +
                      " not in Cluster(" + std::to_string(ball_row[i]) + ")";
      }
    }
  }
  report.check("ball-rows-wellformed", rows_ok, std::move(rows_detail));
  report.check("ball-cluster-duality", dual_ok, std::move(dual_detail));

  // Lemma 2's O~(sqrt n): the builder resamples centers until its own slack
  // holds, so a fresh system passes and an oversize row means corruption or
  // a stale artifact.
  const double budget =
      report.budgets().ball_slack *
      std::sqrt(static_cast<double>(n) *
                std::log(std::max<double>(2.0, static_cast<double>(n))));
  report.measure("ball-size", static_cast<double>(max_ball_size()), budget,
                 "largest ball vs ball_slack * sqrt(n ln n)");
  report.measure("cluster-size", static_cast<double>(max_cluster_size()),
                 budget, "largest cluster vs ball_slack * sqrt(n ln n)");
}

BallSystem build_ball_system(const RoundtripMetric& metric,
                             std::vector<NodeId> centers, int threads) {
  if (centers.empty()) throw std::invalid_argument("build_ball_system: no centers");
  const NodeId n = metric.node_count();
  BallSystem sys;
  std::vector<std::int32_t> center_index_of(static_cast<std::size_t>(n), -1);
  for (std::size_t i = 0; i < centers.size(); ++i) {
    center_index_of[static_cast<std::size_t>(centers[i])] =
        static_cast<std::int32_t>(i);
  }

  // One batch query answers every node's nearest center: the sparse metric
  // serves it with |A| global sweeps, which keeps its per-node searches at
  // ball size instead of forcing them to cover out to the centers.
  std::vector<std::int32_t> nearest;
  std::vector<Dist> r_to_centers;
  metric.nearest_all(centers, threads, nearest, r_to_centers);

  std::vector<std::vector<NodeId>> ball_rows(static_cast<std::size_t>(n));
  const int workers = resolve_apsp_threads(threads);
  parallel_tickets(n, workers, [&] {
    return [&](std::int64_t ticket) {
      const auto v = static_cast<NodeId>(ticket);
      const auto vz = static_cast<std::size_t>(v);
      const Dist rv = r_to_centers[vz];
      // Ball(v) = { w : r(v,w) < r(v,A) } union {v}: strict inequality, so
      // ask the metric for the closed ball of radius r(v,A) - 1 (weights are
      // integral).  A center has rv = 0 and the singleton ball {v}.
      auto& ball = ball_rows[vz];
      if (rv <= 0) {
        ball.push_back(v);
      } else {
        ball = metric.ball(v, rv - 1);
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
  // ball rows are ascending (metric.ball contract); cluster rows too (the
  // serial v loop appends in ascending v order).
  sys.centers = std::move(centers);
  sys.center_index_of = std::move(center_index_of);
  sys.r_to_centers = std::move(r_to_centers);
  sys.nearest_center = std::move(nearest);
  sys.adopt_rows(ball_rows, cluster_rows);
  return sys;
}

}  // namespace rtr
