#include "dict/block_assignment.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "audit/audit.h"
#include "graph/apsp.h"
#include "io/snapshot_format.h"
#include "util/parallel.h"

namespace rtr {

void save_block_assignment(SnapshotWriter& w, const BlockAssignment& a) {
  w.vec(a.blocks_of,
        [](SnapshotWriter& ww, const std::vector<BlockId>& blocks) {
          ww.vec_i64(blocks);
        });
  w.i32(static_cast<std::int32_t>(a.randomized_tries));
  w.i64(a.greedy_repairs);
}

BlockAssignment load_block_assignment(SnapshotReader& r) {
  BlockAssignment a;
  a.blocks_of = r.vec<std::vector<BlockId>>(
      [](SnapshotReader& rr) { return rr.vec_i64(); }, 8);
  a.randomized_tries = static_cast<int>(r.i32());
  a.greedy_repairs = r.i64();
  return a;
}

void BlockAssignment::audit(AuditReport& report, const Alphabet& alpha) const {
  auto scope = report.scope("blocks");
  report.check("one-row-per-node",
               blocks_of.size() == static_cast<std::size_t>(alpha.n()),
               "blocks_of must have one S_v per node");

  const std::int64_t block_count = alpha.relevant_block_count();
  bool rows_ok = true;
  std::string rows_detail;
  for (std::size_t v = 0; rows_ok && v < blocks_of.size(); ++v) {
    const auto& row = blocks_of[v];
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (row[i] < 0 || row[i] >= block_count ||
          (i > 0 && row[i - 1] >= row[i])) {
        rows_ok = false;
        rows_detail = "S_" + std::to_string(v) +
                      " not sorted/unique/in-range at index " +
                      std::to_string(i);
        break;
      }
    }
  }
  report.check("rows-sorted-unique", rows_ok, std::move(rows_detail));

  // Lemma 1 / Lemma 4: O(log n) blocks per node.  The builder starts at
  // 1.25 log2 n and densifies 1.5x per retry; block_slack covers every
  // assignment it can realize.
  const double budget =
      report.budgets().block_slack *
      std::log2(std::max<double>(2.0, static_cast<double>(alpha.n())));
  report.measure("blocks-per-node", static_cast<double>(max_blocks_per_node()),
                 budget, "max |S_v| vs block_slack * log2 n");
}

Neighborhoods compute_neighborhoods(const RoundtripMetric& m,
                                    const NameAssignment& names,
                                    NodeId max_size, int threads) {
  Neighborhoods hoods;
  const NodeId n = m.node_count();
  const NodeId want = (max_size <= 0) ? n : std::min<NodeId>(max_size, n);
  m.prepare_neighborhoods(want, threads);
  hoods.order.resize(static_cast<std::size_t>(n));
  parallel_tickets(n, resolve_apsp_threads(threads), [&] {
    return [&](std::int64_t v) {
      hoods.order[static_cast<std::size_t>(v)] =
          m.neighborhood(static_cast<NodeId>(v), want, names.names());
    };
  });
  return hoods;
}

bool BlockAssignment::holds(NodeId v, BlockId b) const {
  const auto& s = blocks_of[static_cast<std::size_t>(v)];
  return std::binary_search(s.begin(), s.end(), b);
}

std::int64_t BlockAssignment::max_blocks_per_node() const {
  std::int64_t mx = 0;
  for (const auto& s : blocks_of) {
    mx = std::max(mx, static_cast<std::int64_t>(s.size()));
  }
  return mx;
}

namespace {

// Does node v hold any block whose i-digit prefix equals tau?
bool node_covers(const Alphabet& alpha, const BlockAssignment& a, NodeId v,
                 int i, PrefixValue tau) {
  for (BlockId b : a.blocks_of[static_cast<std::size_t>(v)]) {
    if (alpha.block_prefix_value(b, i) == tau) return true;
  }
  return false;
}

// Neighborhood size at level i: q^i clamped to n (the paper's n^{i/k} under
// n = q^k).
NodeId level_size(const Alphabet& alpha, int i) {
  return static_cast<NodeId>(
      std::min<std::int64_t>(alpha.power(i), alpha.n()));
}

}  // namespace

bool verify_coverage(const Alphabet& alpha, const Neighborhoods& hoods,
                     const BlockAssignment& assignment) {
  const NodeId n = alpha.n();
  for (NodeId v = 0; v < n; ++v) {
    const auto& order = hoods.order[static_cast<std::size_t>(v)];
    for (int i = 1; i < alpha.k(); ++i) {
      const NodeId m = level_size(alpha, i);
      const std::int64_t prefixes = alpha.realizable_prefix_count(i);
      // Mark which prefixes are covered by the first m neighbors.
      std::vector<char> covered(static_cast<std::size_t>(prefixes), 0);
      std::int64_t remaining = prefixes;
      for (NodeId idx = 0; idx < m && remaining > 0; ++idx) {
        NodeId w = order[static_cast<std::size_t>(idx)];
        for (BlockId b : assignment.blocks_of[static_cast<std::size_t>(w)]) {
          PrefixValue tau = alpha.block_prefix_value(b, i);
          if (tau < prefixes && !covered[static_cast<std::size_t>(tau)]) {
            covered[static_cast<std::size_t>(tau)] = 1;
            --remaining;
          }
        }
      }
      if (remaining > 0) return false;
    }
  }
  return true;
}

BlockAssignment assign_blocks(const Alphabet& alpha,
                              const Neighborhoods& hoods, Rng& rng,
                              BlockAssignmentOptions options) {
  const NodeId n = alpha.n();
  const std::int64_t blocks = alpha.relevant_block_count();
  BlockAssignment result;

  double factor = options.log_factor;
  for (int attempt = 1; attempt <= options.max_tries; ++attempt) {
    result.blocks_of.assign(static_cast<std::size_t>(n), {});
    const auto per_node = static_cast<std::int64_t>(std::ceil(
        factor * std::log2(std::max<double>(2.0, static_cast<double>(n)))));
    for (NodeId v = 0; v < n; ++v) {
      auto& s = result.blocks_of[static_cast<std::size_t>(v)];
      const std::int64_t want = std::min<std::int64_t>(per_node, blocks);
      if (blocks <= per_node) {
        // Tiny instance: everyone can hold everything.
        for (BlockId b = 0; b < blocks; ++b) s.push_back(b);
      } else {
        while (static_cast<std::int64_t>(s.size()) < want) {
          auto b = static_cast<BlockId>(rng.index(blocks));
          if (!std::binary_search(s.begin(), s.end(), b)) {
            s.insert(std::upper_bound(s.begin(), s.end(), b), b);
          }
        }
      }
    }
    result.randomized_tries = attempt;
    if (verify_coverage(alpha, hoods, result)) return result;
    factor *= 1.5;  // densify and retry, as the probabilistic proof allows
  }

  // Greedy repair: patch every remaining hole deterministically.  For each
  // uncovered (v, i, tau), give a tau-prefixed block to the least-loaded
  // member of N_i(v).
  for (NodeId v = 0; v < n; ++v) {
    const auto& order = hoods.order[static_cast<std::size_t>(v)];
    for (int i = 1; i < alpha.k(); ++i) {
      const NodeId m = level_size(alpha, i);
      const std::int64_t prefixes = alpha.realizable_prefix_count(i);
      for (PrefixValue tau = 0; tau < prefixes; ++tau) {
        bool covered = false;
        for (NodeId idx = 0; idx < m && !covered; ++idx) {
          covered = node_covers(alpha, result, order[static_cast<std::size_t>(idx)], i, tau);
        }
        if (covered) continue;
        // Pick the least-loaded neighbor and hand it the first relevant
        // block with prefix tau (one must exist: tau is realizable).
        NodeId best = order[0];
        for (NodeId idx = 1; idx < m; ++idx) {
          NodeId w = order[static_cast<std::size_t>(idx)];
          if (result.blocks_of[static_cast<std::size_t>(w)].size() <
              result.blocks_of[static_cast<std::size_t>(best)].size()) {
            best = w;
          }
        }
        const BlockId block = tau * alpha.power(alpha.k() - 1 - i);
        auto& s = result.blocks_of[static_cast<std::size_t>(best)];
        s.insert(std::upper_bound(s.begin(), s.end(), block), block);
        ++result.greedy_repairs;
      }
    }
  }
  return result;
}

}  // namespace rtr
