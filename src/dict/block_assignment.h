// The block-distribution lemmas (Lemma 1 for k = 2, Lemma 4 in general).
//
// Lemma 4: there is an assignment of O(log n) blocks S_v to each node v such
// that for every node v, every level 1 <= i < k and every realizable prefix
// tau in Sigma^i, some node w in the neighborhood N_i(v) (the first q^i nodes
// of Init_v) holds a block whose name-prefix matches tau.
//
// The paper's proof is probabilistic and "yields a simple randomized
// procedure": sample the sets, verify, retry.  We implement exactly that,
// plus a deterministic greedy repair pass that patches any residual holes
// (adding a matching block to the least-loaded neighborhood member), so
// construction always terminates; tests record that repairs are rare and the
// O(log n) per-node bound holds with the constants below.
#ifndef RTR_DICT_BLOCK_ASSIGNMENT_H
#define RTR_DICT_BLOCK_ASSIGNMENT_H

#include <vector>

#include "core/names.h"
#include "dict/alphabet.h"
#include "rt/metric.h"

namespace rtr {

class SnapshotWriter;  // io/snapshot_format.h
class SnapshotReader;
class AuditReport;  // audit/audit.h

/// Per-node neighborhood prefixes of Init_v, precomputed once and shared by
/// the assignment and by the TINN schemes.
struct Neighborhoods {
  /// order[v] = the leading prefix of Init_v (nearest first; order[v][0] ==
  /// v).  Rows hold the full permutation when compute_neighborhoods was
  /// called with max_size 0, and exactly min(max_size, n) nodes otherwise --
  /// the Lemma 4 machinery only ever reads the first q^{k-1} positions, and
  /// truncated rows keep both these rows and the sparse metric's searches
  /// at O~(sqrt n) nodes each.
  std::vector<std::vector<NodeId>> order;

  /// First m nodes of Init_v.  m must not exceed the computed row length.
  [[nodiscard]] std::vector<NodeId> prefix(NodeId v, NodeId m) const {
    auto copy = order[static_cast<std::size_t>(v)];
    copy.resize(static_cast<std::size_t>(std::min<NodeId>(
        m, static_cast<NodeId>(copy.size()))));
    return copy;
  }
};

/// Builds Init prefixes for every node.  `max_size` 0 keeps the historical
/// full permutation per row; a positive value truncates every row to
/// min(max_size, n) entries, which is all the block lemmas need and avoids
/// materializing n^2 ids.  `threads` fans the per-node metric queries out
/// over the APSP thread-pool shape (<= 0 resolves the process default); the
/// result is a pure function of (m, names, max_size) for any thread count.
[[nodiscard]] Neighborhoods compute_neighborhoods(const RoundtripMetric& m,
                                                  const NameAssignment& names,
                                                  NodeId max_size = 0,
                                                  int threads = 1);

struct BlockAssignmentOptions {
  /// Initial blocks per node = ceil(log_factor * log2(max(n,2))).  Kept
  /// small enough that the dictionary genuinely *distributes* at laptop
  /// sizes (a large constant would have every node hold every block up to
  /// n ~ 2000, silently degrading tables to linear); verification retries
  /// densify by 1.5x whenever coverage fails, so Lemma 4 always holds.
  double log_factor = 1.25;
  /// Randomized retries before greedy repair kicks in.
  int max_tries = 6;
};

struct BlockAssignment {
  /// S_v, sorted ascending, by internal node id.
  std::vector<std::vector<BlockId>> blocks_of;
  /// Diagnostics for the Lemma 1 / Fig. 2 experiment.
  int randomized_tries = 0;
  std::int64_t greedy_repairs = 0;

  [[nodiscard]] bool holds(NodeId v, BlockId b) const;
  [[nodiscard]] std::int64_t max_blocks_per_node() const;

  /// Auditable: one row per node, every S_v sorted + unique with block ids
  /// inside the alphabet's realizable range, and the Lemma 1 / Lemma 4
  /// O(log n) bound (block_slack * log2 n blocks per node).  Coverage itself
  /// (every realizable prefix held in every neighborhood) stays with
  /// verify_coverage(), which needs the neighborhoods; the audit checks the
  /// shape the serving path depends on.
  void audit(AuditReport& report, const Alphabet& alpha) const;
};

/// Snapshot encoding (io/snapshot_format.h) of a finished assignment,
/// including its diagnostics so a loaded scheme reports identical stats.
void save_block_assignment(SnapshotWriter& w, const BlockAssignment& a);
[[nodiscard]] BlockAssignment load_block_assignment(SnapshotReader& r);

/// Builds an assignment satisfying Lemma 4 for the given alphabet (levels
/// 1..k-1, realizable prefixes).  Deterministic given the rng state.
[[nodiscard]] BlockAssignment assign_blocks(const Alphabet& alpha,
                                            const Neighborhoods& hoods,
                                            Rng& rng,
                                            BlockAssignmentOptions options = {});

/// Verification predicate used by assign_blocks and exposed for tests:
/// true iff every (v, level i, realizable tau) has a holder in N_i(v).
[[nodiscard]] bool verify_coverage(const Alphabet& alpha,
                                   const Neighborhoods& hoods,
                                   const BlockAssignment& assignment);

}  // namespace rtr

#endif  // RTR_DICT_BLOCK_ASSIGNMENT_H
