#include "cover/sparse_cover.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>

namespace rtr {

namespace {

// The smallest i >= 0 with r <= 2^(i+1).
std::uint8_t doubling_level(Dist r) {
  if (r <= 2) return 0;
  return static_cast<std::uint8_t>(
      std::bit_width(static_cast<std::uint64_t>(r - 1)) - 1);
}

}  // namespace

RoundtripBalls roundtrip_balls(const RoundtripMetric& metric, Dist radius) {
  RoundtripBalls balls;
  balls.radius = radius;
  metric.for_each_roundtrip_row([&](NodeId, std::span<const Dist> row) {
    for (std::size_t u = 0; u < row.size(); ++u) {
      if (row[u] <= radius) {
        balls.rows.members.push_back(static_cast<NodeId>(u));
      }
    }
    balls.rows.offsets.push_back(
        static_cast<std::int64_t>(balls.rows.members.size()));
  });
  return balls;
}

RoundtripBallLevels::RoundtripBallLevels(const RoundtripMetric& metric)
    : n_(metric.node_count()),
      level_(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_)) {
  metric.for_each_roundtrip_row([&](NodeId v, std::span<const Dist> row) {
    std::uint8_t* out =
        level_.data() + static_cast<std::size_t>(v) * row.size();
    for (std::size_t u = 0; u < row.size(); ++u) {
      diameter_ = std::max(diameter_, row[u]);
      out[u] = doubling_level(row[u]);
    }
  });
}

std::int32_t RoundtripBallLevels::level_count() const {
  return doubling_level(diameter_) + 1;
}

RoundtripBalls RoundtripBallLevels::balls(std::int32_t level) const {
  if (level < 0 || level >= level_count()) {
    throw std::out_of_range("RoundtripBallLevels::balls: no such level");
  }
  const auto nz = static_cast<std::size_t>(n_);
  const auto top = static_cast<std::uint8_t>(level);
  RoundtripBalls balls;
  balls.radius = Dist{2} << level;
  NodeSets& rows = balls.rows;
  rows.offsets.resize(nz + 1);
  for (std::size_t v = 0; v < nz; ++v) {
    const std::uint8_t* row = level_.data() + v * nz;
    rows.offsets[v + 1] =
        rows.offsets[v] + std::count_if(row, row + nz, [top](std::uint8_t l) {
          return l <= top;
        });
  }
  // Branch-free fill: every id is written, and the cursor advances past
  // members only, so the buffer needs one slot of slack at the end.
  rows.members.resize(static_cast<std::size_t>(rows.offsets[nz]) + 1);
  NodeId* out = rows.members.data();
  for (std::size_t v = 0; v < nz; ++v) {
    const std::uint8_t* row = level_.data() + v * nz;
    for (std::size_t u = 0; u < nz; ++u) {
      *out = static_cast<NodeId>(u);
      out += row[u] <= top ? 1 : 0;
    }
  }
  rows.members.pop_back();
  return balls;
}

std::vector<std::int32_t> SparseCoverResult::membership_counts(NodeId n) const {
  std::vector<std::int32_t> counts(static_cast<std::size_t>(n), 0);
  for (const auto& c : clusters) {
    for (NodeId v : c.members) ++counts[static_cast<std::size_t>(v)];
  }
  return counts;
}

SparseCoverResult build_sparse_cover(const RoundtripBalls& balls, int k) {
  if (k <= 1) throw std::invalid_argument("build_sparse_cover: k > 1");
  if (balls.radius < 0) {
    throw std::invalid_argument("build_sparse_cover: d >= 0");
  }
  const NodeId n = balls.rows.count();

  SparseCoverResult result;
  result.d = balls.radius;
  result.k = k;
  result.home_of.assign(static_cast<std::size_t>(n), -1);

  // R <- { N-hat^d(v) | v in V }: ball v is seeded at v, and the balls are
  // their own inverse index (symmetry).
  std::vector<NodeId> seeds(static_cast<std::size_t>(n));
  std::iota(seeds.begin(), seeds.end(), 0);

  std::vector<char> active(static_cast<std::size_t>(n), 1);
  std::int64_t remaining = n;
  while (remaining > 0) {
    ++result.rounds;
    PartialCoverResult pass =
        partial_cover(seeds, balls.rows, balls.rows, active, n, k);
    if (pass.covered.empty()) {
      throw std::logic_error("build_sparse_cover: round made no progress");
    }
    const auto base = static_cast<std::int32_t>(result.clusters.size());
    for (std::size_t i = 0; i < pass.merged.size(); ++i) {
      for (std::int32_t seed_idx : pass.merged[i].absorbed) {
        // The seed ball of node `seed_idx` is fully inside this cluster.
        result.home_of[static_cast<std::size_t>(seed_idx)] =
            base + static_cast<std::int32_t>(i);
      }
      result.clusters.push_back(std::move(pass.merged[i]));
    }
    // R <- R \ DR: only covered seeds leave the collection; seeds merely
    // consumed (Z \ Y) stay for later rounds, exactly as Fig. 8 prescribes.
    for (std::int32_t c : pass.covered) {
      active[static_cast<std::size_t>(c)] = 0;
      --remaining;
    }
  }
  return result;
}

}  // namespace rtr
