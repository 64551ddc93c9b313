// Base-q digit machinery for the distributed dictionary (Sections 2, 3, 4).
//
// The paper writes each name u in {0..n-1} as <u>, its base n^{1/k}
// representation padded with leading zeros to exactly k digits over the
// alphabet Sigma = {0..n^{1/k}-1}; sigma^i(<u>) extracts the i most
// significant digits.  Blocks B_alpha group the names sharing a (k-1)-digit
// prefix; for k = 2 this is Section 2's flat partition of the address space
// into sqrt(n)-sized blocks B_i = { i*sqrt(n) .. (i+1)*sqrt(n)-1 }.
//
// The paper assumes n is a perfect k-th power; we generalize to arbitrary n
// with q = ceil(n^{1/k}), so some high blocks are partially filled or empty.
// Prefixes realizable by an existing name are the only ones routing can ever
// query (it always matches prefixes of an actual destination), and the only
// ones Lemma 4 coverage is required for.
#ifndef RTR_DICT_ALPHABET_H
#define RTR_DICT_ALPHABET_H

#include <cstdint>
#include <vector>

#include "util/types.h"

namespace rtr {

class SnapshotWriter;  // io/snapshot_format.h
class SnapshotReader;
class AuditReport;  // audit/audit.h

using BlockId = std::int64_t;
using PrefixValue = std::int64_t;

class Alphabet {
 public:
  /// Largest supported k (digits per name).
  static constexpr int kMaxK = 20;

  /// Requires n >= 1 and 2 <= k <= kMaxK; picks the smallest q with q^k >= n.
  Alphabet(NodeId n, int k);

  /// Snapshot path: an alphabet is fully determined by (n, k).
  static Alphabet load(SnapshotReader& r);
  void save(SnapshotWriter& w) const;

  [[nodiscard]] NodeId n() const { return n_; }
  [[nodiscard]] int k() const { return k_; }
  [[nodiscard]] std::int64_t q() const { return q_; }

  /// Digit i of <u> (i = 0 is most significant). Requires 0 <= i < k.
  [[nodiscard]] int digit(NodeName u, int i) const;

  /// Numeric value of sigma^i(<u>), i.e. the i most significant digits read
  /// as a base-q number.  prefix_value(u, 0) == 0 for every u.
  [[nodiscard]] PrefixValue prefix_value(NodeName u, int i) const;

  /// Length of the longest common prefix of <u> and <t>, in digits (0..k).
  [[nodiscard]] int lcp(NodeName u, NodeName t) const;

  /// Block of u: value of its (k-1)-digit prefix.
  [[nodiscard]] BlockId block_of(NodeName u) const {
    return prefix_value(u, k_ - 1);
  }

  /// Number of blocks containing at least one existing name.
  [[nodiscard]] std::int64_t relevant_block_count() const {
    return (static_cast<std::int64_t>(n_) + q_ - 1) / q_;
  }

  /// sigma^i of a block (its first i digits as a value). Requires i <= k-1.
  [[nodiscard]] PrefixValue block_prefix_value(BlockId b, int i) const;

  /// Existing names in block b (those < n), ascending.
  [[nodiscard]] std::vector<NodeName> block_members(BlockId b) const;

  /// Number of length-i prefixes realizable by an existing name.  Realizable
  /// prefix values are exactly 0 .. realizable_prefix_count(i)-1 because
  /// names are dense in [0, n).
  [[nodiscard]] std::int64_t realizable_prefix_count(int i) const;

  /// The name formed by block b followed by last digit tau, or kNoNode if
  /// that name does not exist (>= n).
  [[nodiscard]] NodeName compose(BlockId b, int tau) const;

  /// q^i (i <= k).
  [[nodiscard]] std::int64_t power(int i) const {
    return powers_[static_cast<std::size_t>(i)];
  }

  /// Auditable: parameter ranges (n >= 1, 2 <= k <= kMaxK), q minimal with
  /// q^k >= n, and the cached power table exactly q^0 .. q^k.  Matters on
  /// the snapshot path, where (n, k) arrive from untrusted bytes.
  void audit(AuditReport& report) const;

 private:
  NodeId n_;
  int k_;
  std::int64_t q_;
  std::vector<std::int64_t> powers_;  // q^0 .. q^k
};

}  // namespace rtr

#endif  // RTR_DICT_ALPHABET_H
