// The deep invariant auditor: static verification that a built scheme (or an
// on-disk snapshot) actually satisfies the paper's structural guarantees
// before it is allowed to serve traffic.
//
// The paper's bounds are *structural* -- O~(sqrt n) ball sizes, O~(sqrt n)-bit
// dictionaries, well-formed double trees, port-consistent CSR adjacency --
// but end-to-end query stretch is the only thing the serving path can observe.
// This subsystem closes that gap: every scheme substructure implements the
// Auditable contract
//
//     void audit(AuditReport& report) const;
//
// recording one typed entry per invariant (pass/fail, and measured-vs-budget
// numbers for the quantitative ones), so
//
//   * `rtr_cli audit <scheme>|<file.rtrsnap>` proves an artifact internally
//     consistent with a non-zero exit on any violation,
//   * the debug-build RTR_AUDIT_ON_BUILD hook audits every registry-built or
//     snapshot-loaded scheme for free in the test suite, and
//   * `rtr_bench --audit` archives invariant headroom (measured vs budget)
//     as AUDIT_<rev>.json next to the nightly BENCH_full_*.json.
//
// Budgets are configurable (AuditBudgets): the defaults mirror the
// construction-time slack constants, so a freshly built scheme always passes
// while a corrupted or stale artifact does not.
#ifndef RTR_AUDIT_AUDIT_H
#define RTR_AUDIT_AUDIT_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rtr {

class SchemeHandle;

/// Quantitative budgets the auditor checks measured structure sizes against.
/// Defaults mirror the builders' own slack constants (a freshly built scheme
/// passes by construction); tighten them to probe headroom, or loosen them
/// when auditing schemes built with non-default options.
struct AuditBudgets {
  /// Balls and clusters must have <= ball_slack * sqrt(n ln n) members
  /// (Lemma 2's O~(sqrt n); the rtz3 builder resamples centers until its
  /// own size_slack -- default 6.0 -- holds, so this is not vacuous).
  double ball_slack = 6.0;
  /// Each node joins <= tree_slack * 2k n^{1/k} double trees per hierarchy
  /// level (Theorem 13(3)).
  double tree_slack = 2.0;
  /// Each node holds <= block_slack * log2(max(n,2)) dictionary blocks
  /// (Lemma 1 / Lemma 4's O(log n); the builder starts at 1.25x and
  /// densifies by 1.5x per retry, so 8x covers every realized assignment).
  double block_slack = 8.0;
  /// Lemma 14 addresses list <= label_slack * floor(log2 n) light hops.
  double label_slack = 1.0;
};

/// One audited invariant: a component path, the invariant's name, pass/fail,
/// and -- for quantitative checks -- the measured value and its budget.
struct AuditEntry {
  std::string component;  // e.g. "graph/csr", "rtz3/balls", "snapshot/graph"
  std::string invariant;  // e.g. "row-monotone", "ball-size"
  bool ok = false;
  bool has_measure = false;
  double measured = 0.0;  // meaningful when has_measure
  double budget = 0.0;    // meaningful when has_measure
  std::string detail;     // first observed violation, or a short note
};

/// Collects audit entries with a component-path context stack.  Checks are
/// cheap to record; the report owns presentation (summary text and the JSON
/// document CI archives).
class AuditReport {
 public:
  AuditReport() = default;
  explicit AuditReport(AuditBudgets budgets) : budgets_(budgets) {}

  [[nodiscard]] const AuditBudgets& budgets() const { return budgets_; }

  /// Scoped component path segment: entries recorded while the scope lives
  /// are prefixed with `name` (joined by '/').
  class Scope {
   public:
    Scope(AuditReport& report, std::string name) : report_(report) {
      report_.push_component(std::move(name));
    }
    ~Scope() { report_.pop_component(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    AuditReport& report_;
  };
  [[nodiscard]] Scope scope(std::string name) {
    return Scope(*this, std::move(name));
  }

  /// Records a boolean invariant.  `detail` should describe the first
  /// violation when ok is false (it is kept verbatim in the JSON document).
  void check(const std::string& invariant, bool ok, std::string detail = {});

  /// Records a quantitative invariant: passes iff measured <= budget.  The
  /// measured/budget pair is archived so CI can track invariant headroom.
  void measure(const std::string& invariant, double measured, double budget,
               std::string detail = {});

  [[nodiscard]] bool ok() const { return failed_ == 0; }
  [[nodiscard]] std::int64_t total_count() const {
    return static_cast<std::int64_t>(entries_.size());
  }
  [[nodiscard]] std::int64_t failed_count() const { return failed_; }
  [[nodiscard]] const std::vector<AuditEntry>& entries() const {
    return entries_;
  }

  /// Human-readable report: one line per failure (or per entry when
  /// `verbose`), then a pass/fail tally.
  [[nodiscard]] std::string summary(bool verbose = false) const;

  /// The serialized rtr-audit/1 JSON document (same writer as BENCH_*.json):
  /// {schema, ok, checks, failures, entries:[{component, invariant, ok,
  /// measured?, budget?, detail?}]}.
  [[nodiscard]] std::string to_json_string() const;

 private:
  friend class Scope;
  void push_component(std::string name);
  void pop_component();
  [[nodiscard]] std::string current_component() const;

  AuditBudgets budgets_;
  std::vector<std::string> component_stack_;
  std::vector<AuditEntry> entries_;
  std::int64_t failed_ = 0;
};

/// Audits any sorted-key dictionary exposing size()/key_at(i): keys must be
/// strictly ascending (sortedness + uniqueness), the probe contract every
/// binary-searched table in the repo relies on.
template <typename Dict>
void audit_sorted_dict(AuditReport& report, const std::string& invariant,
                       const Dict& dict) {
  bool sorted = true;
  bool unique = true;
  std::string detail;
  for (std::size_t i = 1; i < dict.size(); ++i) {
    if (dict.key_at(i) < dict.key_at(i - 1)) {
      sorted = false;
      detail = "key[" + std::to_string(i) + "] out of order";
      break;
    }
    if (dict.key_at(i) == dict.key_at(i - 1)) {
      unique = false;
      detail = "duplicate key at index " + std::to_string(i);
      break;
    }
  }
  report.check(invariant, sorted && unique, std::move(detail));
}

/// First row of a CSR table (rows framed by `off`, which must frame `keys`)
/// whose keys are not strictly ascending, or -1.  Every lower_bound row
/// lookup relies on that order: a violated row misroutes silently.
template <typename Offsets, typename Keys>
[[nodiscard]] std::int64_t first_unsorted_row(const Offsets& off,
                                              const Keys& keys) {
  for (std::size_t row = 0; row + 1 < off.size(); ++row) {
    for (auto i = static_cast<std::size_t>(off[row]) + 1;
         i < static_cast<std::size_t>(off[row + 1]); ++i) {
      if (!(keys[i - 1] < keys[i])) return static_cast<std::int64_t>(row);
    }
  }
  return -1;
}

/// Audits a full built artifact: graph, naming, and the scheme's own tables
/// (Scheme::audit, which concrete schemes override with their deep checks).
void audit_handle(const SchemeHandle& handle, AuditReport& report);

/// Audits a snapshot file *without* fully deserializing it: framing, every
/// section's CRC, and cross-section referential integrity (header counts vs
/// the graph section's actual structure, names permutation bijectivity).
/// Never throws on corrupt content -- corruption becomes failed entries.
void audit_snapshot_file(const std::string& path, AuditReport& report);

}  // namespace rtr

#endif  // RTR_AUDIT_AUDIT_H
