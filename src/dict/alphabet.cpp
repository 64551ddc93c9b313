#include "dict/alphabet.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "audit/audit.h"
#include "io/snapshot_format.h"

namespace rtr {

Alphabet Alphabet::load(SnapshotReader& r) {
  const NodeId n = r.i32();
  const int k = static_cast<int>(r.i32());
  return Alphabet(n, k);
}

void Alphabet::save(SnapshotWriter& w) const {
  w.i32(n_);
  w.i32(static_cast<std::int32_t>(k_));
}

Alphabet::Alphabet(NodeId n, int k) : n_(n), k_(k) {
  if (n < 1) throw std::invalid_argument("Alphabet: n >= 1");
  if (k < 2 || k > kMaxK) throw std::invalid_argument("Alphabet: 2 <= k <= 20");
  // Smallest q with q^k >= n; start from the floating-point estimate and
  // correct for rounding both ways.
  auto est = static_cast<std::int64_t>(
      std::llround(std::pow(static_cast<double>(n), 1.0 / k)));
  auto pow_ge_n = [&](std::int64_t q) {
    std::int64_t p = 1;
    for (int i = 0; i < k; ++i) {
      p *= q;
      if (p >= n) return true;
    }
    return p >= n;
  };
  std::int64_t q = std::max<std::int64_t>(1, est - 2);
  while (!pow_ge_n(q)) ++q;
  q_ = std::max<std::int64_t>(q, 2);  // degenerate n=1: keep a sane alphabet

  powers_.resize(static_cast<std::size_t>(k_) + 1);
  powers_[0] = 1;
  for (int i = 1; i <= k_; ++i) powers_[static_cast<std::size_t>(i)] = powers_[static_cast<std::size_t>(i - 1)] * q_;
}

void Alphabet::audit(AuditReport& report) const {
  auto scope = report.scope("alphabet");
  report.check("params-in-range", n_ >= 1 && k_ >= 2 && k_ <= kMaxK,
               "n=" + std::to_string(n_) + ", k=" + std::to_string(k_));
  bool powers_ok = powers_.size() == static_cast<std::size_t>(k_) + 1 &&
                   !powers_.empty() && powers_[0] == 1;
  for (std::size_t i = 1; powers_ok && i < powers_.size(); ++i) {
    powers_ok = powers_[i] == powers_[i - 1] * q_;
  }
  report.check("power-table-consistent", powers_ok,
               "powers_ must cache exactly q^0 .. q^k");
  // Minimal q with q^k >= n (modulo the degenerate-n floor of q = 2): the
  // whole digit decomposition reads through this, so a drifted q silently
  // re-addresses every name.
  bool q_ok = q_ >= 2 && powers_ok &&
              powers_[static_cast<std::size_t>(k_)] >= n_;
  if (q_ok && q_ > 2) {
    std::int64_t p = 1;
    bool covers = false;
    for (int i = 0; i < k_ && !covers; ++i) {
      p *= q_ - 1;
      covers = p >= n_;
    }
    q_ok = !covers;
  }
  report.check("q-minimal", q_ok,
               "q=" + std::to_string(q_) + " must be the smallest radix with "
               "q^k >= n");
}

int Alphabet::digit(NodeName u, int i) const {
  if (i < 0 || i >= k_) throw std::out_of_range("Alphabet::digit");
  return static_cast<int>((u / powers_[static_cast<std::size_t>(k_ - 1 - i)]) % q_);
}

PrefixValue Alphabet::prefix_value(NodeName u, int i) const {
  if (i < 0 || i > k_) throw std::out_of_range("Alphabet::prefix_value");
  return u / powers_[static_cast<std::size_t>(k_ - i)];
}

int Alphabet::lcp(NodeName u, NodeName t) const {
  int len = 0;
  while (len < k_ && digit(u, len) == digit(t, len)) ++len;
  return len;
}

PrefixValue Alphabet::block_prefix_value(BlockId b, int i) const {
  if (i < 0 || i > k_ - 1) throw std::out_of_range("Alphabet::block_prefix_value");
  // A block is a (k-1)-digit string; drop its (k-1-i) least significant digits.
  return b / powers_[static_cast<std::size_t>(k_ - 1 - i)];
}

std::vector<NodeName> Alphabet::block_members(BlockId b) const {
  std::vector<NodeName> members;
  const std::int64_t lo = b * q_;
  for (std::int64_t u = lo; u < lo + q_ && u < n_; ++u) {
    members.push_back(static_cast<NodeName>(u));
  }
  return members;
}

std::int64_t Alphabet::realizable_prefix_count(int i) const {
  if (i < 0 || i > k_) throw std::out_of_range("Alphabet::realizable_prefix_count");
  const std::int64_t denom = powers_[static_cast<std::size_t>(k_ - i)];
  return (static_cast<std::int64_t>(n_) + denom - 1) / denom;
}

NodeName Alphabet::compose(BlockId b, int tau) const {
  const std::int64_t name = b * q_ + tau;
  if (tau < 0 || tau >= q_ || name >= n_) return kNoNode;
  return static_cast<NodeName>(name);
}

}  // namespace rtr
