// Benchmark orchestration: one library that builds instances, times the
// per-scheme phases (construction, batch query, snapshot load), accounts
// memory and table sizes, and emits one machine-readable, schema-versioned
// BENCH_<rev>.json -- the standing perf record the CI gate diffs against a
// committed baseline.
//
// Determinism contract: everything derived from the workload -- sampled
// pairs, stretch statistics, failure counts, table sizes, header bits -- is
// a pure function of the BenchConfig (seeded Rngs end to end).  Timings,
// rep counts chosen by the steady-state controller, and RSS numbers are
// measurements and vary run to run; the determinism test pins the former
// and ignores the latter.
#ifndef RTR_BENCH_HARNESS_BENCH_HARNESS_H
#define RTR_BENCH_HARNESS_BENCH_HARNESS_H

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/json.h"
#include "graph/generators.h"
#include "net/query_engine.h"
#include "rt/metric.h"
#include "util/types.h"

namespace rtr::bench_harness {

/// The emitted document's schema tag; bump on breaking field changes.
inline constexpr const char* kSchemaVersion = "rtr-bench/1";

// ----------------------------------------------------------------- timing --

/// Warmup + steady-state iteration control for one timed phase.
struct IterationPolicy {
  int warmup_reps = 1;  ///< untimed runs before measurement
  int min_reps = 2;     ///< timed runs always taken
  int max_reps = 5;     ///< hard cap when the phase never settles
  /// Steady state: stop once the relative spread (max-min)/min over the
  /// trailing `window` timed reps falls to this or below.
  double steady_rel_spread = 0.05;
  int window = 3;
  /// When > 0 and the warmup shows one execution finishing faster than
  /// this, each timed rep batches enough executions to reach it (reported
  /// times are per execution).  Sub-5ms reps measure scheduler noise, not
  /// the workload; this floor is what keeps the CI qps gate stable.
  double min_rep_ms = 0;
};

/// Outcome of repeating one phase under an IterationPolicy.
struct TimedPhase {
  double best_ms = 0;  ///< per-execution best (batched reps divide through)
  double mean_ms = 0;
  int reps = 0;        ///< timed reps actually run
  int inner_iterations = 1;  ///< executions batched into each rep
  bool steady = false; ///< spread criterion met before the max_reps cap
};

/// Runs `fn` warmup + timed reps per the policy; best-of is the reported
/// figure (least-noise estimator for a deterministic workload).
TimedPhase run_timed(const IterationPolicy& policy,
                     const std::function<void()>& fn);

/// Resident set size in KiB from /proc/self/status, or -1 where unavailable.
[[nodiscard]] std::int64_t current_rss_kb();

/// Resets the kernel's peak-RSS watermark (VmHWM) to the current RSS so the
/// next peak_rss_kb() read brackets just the phase in between.  Returns false
/// where /proc/self/clear_refs is unavailable; callers then report -1 rather
/// than a process-lifetime maximum.
[[nodiscard]] bool reset_peak_rss();

/// Peak resident set size in KiB (VmHWM) since the last reset_peak_rss(),
/// or -1 where unavailable.
[[nodiscard]] std::int64_t peak_rss_kb();

/// CPU model string from /proc/cpuinfo ("unknown" elsewhere).  Stamped into
/// every document so the gate knows whether absolute-throughput comparisons
/// are meaningful (see compare_to_baseline).
[[nodiscard]] std::string host_cpu_model();

// ------------------------------------------------------------------ suite --

struct BenchConfig {
  std::vector<std::string> schemes;  ///< empty = every registered scheme
  std::vector<Family> families = {Family::kRandom, Family::kGrid,
                                  Family::kRing};
  std::vector<NodeId> sizes = {128, 256};
  std::int64_t pair_budget = 4000;    ///< sampled ordered pairs per cell
  std::int64_t latency_sample = 1000; ///< serve() calls timed singly (p50/p99)
  /// Engine workers for the qps phase and thread pool width for each
  /// instance's APSP build; 0 = hardware concurrency.  The resolved value is
  /// stamped into the document's host block (threads_configured) so
  /// baselines from differently-threaded runs are never silently compared.
  int threads = 0;
  std::uint64_t seed = 7;
  Weight max_weight = 4;
  /// Metric backend per instance: kAuto keeps the dense APSP matrix up to
  /// kDenseMetricAutoThreshold nodes and switches to bounded-Dijkstra sparse
  /// rows beyond, which is what lets the full sweep pass 4096.
  MetricMode metric_mode = MetricMode::kAuto;
  bool snapshot_phase = true;   ///< measure snapshot save+load per cell
  /// Measure the network serving path end to end: RouteServer (the
  /// rtr_routed core) over an EpochManager, driven by the loadgen across
  /// loopback TCP while one epoch swap publishes mid-run.  Emits one cell
  /// with family "net_serving" whose `failures` column is the availability
  /// gate (must be 0).  Off by default so unit-scale configs stay socket-
  /// free; quick() and full() turn it on.
  bool net_serving = false;
  IterationPolicy iterations;

  /// The CI bench-smoke configuration (also what BENCH_baseline.json pins):
  /// all schemes x {random, grid, ring} x n in {128, 256}.
  [[nodiscard]] static BenchConfig quick();
  /// The full sweep: all schemes x 4 families x n in 128..4096.
  [[nodiscard]] static BenchConfig full();
};

/// One (scheme, family, n) measurement.
struct CellResult {
  std::string scheme;
  std::string family;
  NodeId n = 0;

  // Timings (not deterministic).
  double apsp_ms = 0;            ///< metric/APSP build, shared per instance
  double build_ms = 0;           ///< scheme construction
  double snapshot_load_ms = -1;  ///< rebuild-from-snapshot; -1 when skipped
  /// Zero-copy mmap of the same v2 snapshot (open + header/directory check +
  /// view fixup); -1 when the phase is skipped or mapping failed.  The
  /// -1 sentinels are NEVER compared by the gates -- see compare_to_baseline
  /// and check_growth_budgets, which skip negative phase values explicitly.
  double snapshot_map_ms = -1;
  /// Incremental epoch repair of a small (~1%) port-stable churn delta, and
  /// the pinned-seed full rebuild the same delta would otherwise cost.  -1
  /// when the cell did not run the repair phase (same sentinel rule as the
  /// snapshot phases: negative values are never compared by the gates).
  double repair_ms = -1;
  double full_rebuild_ms = -1;
  double qps = 0;                ///< batch roundtrips per second
  double p50_query_ns = 0;
  double p99_query_ns = 0;
  int query_reps = 0;
  bool query_steady = false;
  std::int64_t build_rss_delta_kb = -1;
  /// Peak RSS (VmHWM) in KiB across this cell's build phase, watermark-reset
  /// per cell; -1 where the kernel interface is unavailable.  This is the
  /// column the nightly growth gate checks against the O~(n sqrt n) budget.
  std::int64_t peak_rss_kb = -1;

  // Workload statistics (deterministic given the config).
  std::int64_t pairs = 0;
  std::int64_t failures = 0;
  std::int64_t invalid = 0;
  double mean_stretch = 0;
  double p99_stretch = 0;
  double max_stretch = 0;
  std::int64_t max_header_bits = 0;
  std::int64_t table_entries_max = 0;
  double bytes_per_node = 0;  ///< mean table bits / 8 per node
  std::string first_error;
};

struct SuiteResult {
  std::vector<CellResult> cells;
};

/// Runs the sweep.  `progress` (optional) gets one line per cell.
[[nodiscard]] SuiteResult run_suite(const BenchConfig& config,
                                    std::ostream* progress = nullptr);

// ------------------------------------------------------------------- json --

/// The full document: schema tag, rev, config echo, host stamp, cells.
[[nodiscard]] Json suite_to_json(const SuiteResult& result,
                                            const BenchConfig& config,
                                            const std::string& rev);

/// Cells parsed back from a document (schema-checked).
[[nodiscard]] std::vector<CellResult> cells_from_json(const Json& doc);

[[nodiscard]] Json cell_to_json(const CellResult& cell);
[[nodiscard]] CellResult cell_from_json(const Json& j);

/// "BENCH_<rev>.json".
[[nodiscard]] std::string default_output_name(const std::string& rev);

/// Writes atomically (temp file + rename).
void write_text_file(const std::string& path, const std::string& content);
[[nodiscard]] std::string read_text_file(const std::string& path);

// ------------------------------------------------------------------- gate --

struct GateOptions {
  double qps_drop_tolerance = 0.25;  ///< fail when qps drops more than this
  double stretch_epsilon = 1e-9;     ///< fail on any avg-stretch increase
  /// Snapshot-phase (load/map) regression tolerance: the current cell may be
  /// up to (1 + this) x the baseline's time.  Generous because each phase is
  /// a single-shot measurement, not a steady-state best-of.
  double snapshot_regression_tolerance = 1.0;
  /// Both sides of a snapshot-phase comparison must exceed this (and be
  /// non-negative: -1 means "phase skipped" and is never compared).
  double min_snapshot_phase_ms = 5.0;
};

/// Asymptotic-budget gate for the --full sweep (the nightly job): instead of
/// comparing against a fixed baseline, it checks GROWTH RATES within one
/// document.  For each gated scheme and family, the smallest size n1 and the
/// largest size n2 of the series must satisfy
///
///   bytes_per_node(n2) / bytes_per_node(n1)
///       <= sqrt(n2/n1) * (log2 n2 / log2 n1)^2 * bytes_slack
///   build_ms(n2) / build_ms(n1)
///       <= (n2/n1)^1.5 * (log2 n2 / log2 n1)^2 * build_slack
///
/// i.e. the O~(sqrt n) table budget and the O~(n sqrt n) construction budget
/// of the sqrt-n schemes, with slack for constants and polylog wobble
/// (endpoints rather than consecutive steps: over the full 32x size range
/// the sqrt budget and a linear regression are unambiguously separated).
/// Timing checks are skipped below min_build_ms (noise) and bytes checks are
/// exact (deterministic).  Returns human-readable violations; empty = pass.
struct GrowthGateOptions {
  double bytes_slack = 1.45;
  double build_slack = 1.5;    ///< on top of the budget's polylog term
  double min_build_ms = 5.0;   ///< both cells must exceed this to gate time
  /// Peak-RSS endpoint gate: peak(n2)/peak(n1) <= (n2/n1)^1.5 * polylog *
  /// rss_slack, the O~(n sqrt n) TOTAL memory budget (metric rows + tables).
  /// Slack 1.5 still separates O(n^2) (64x over an 8x size range) from the
  /// budget (~37x allowed); it is NOT applied when either endpoint's
  /// peak_rss_kb is -1 (kernel interface unavailable) or below the floor,
  /// where allocator noise dominates.
  double rss_slack = 1.5;
  std::int64_t min_peak_rss_kb = 4096;
  /// Schemes with the O~(sqrt n)/node table shape.  fulltable (Theta(n)
  /// entries per node) and the k-parameterized tradeoff schemes are not
  /// gated here.
  std::vector<std::string> schemes = {"stretch6", "stretch6-detour", "rtz3",
                                      "hashed64"};
};

/// Malformed growth-gate input: a single-size sweep, duplicate-size
/// endpoints, or a zero/non-finite baseline cell would make every ratio
/// below NaN/inf or vacuously pass -- conditions a nightly job must fail
/// loudly on, not skip.  Thrown by check_growth_budgets; rtr_bench turns it
/// into a nonzero exit.
class GrowthGateError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Throws GrowthGateError when the document cannot support the gate at all
/// (see above); otherwise returns budget violations as with
/// compare_to_baseline.
[[nodiscard]] std::vector<std::string> check_growth_budgets(
    const Json& doc, const GrowthGateOptions& options = {});

/// Compares `current` against `baseline` cell-by-cell (keyed by scheme,
/// family, n).  Returns human-readable violations; empty means the gate
/// passes.  Machine-independent checks (stretch increases, failed queries,
/// missing cells) always apply; the absolute-qps check is only armed when
/// both documents carry the same host CPU fingerprint, because throughput
/// from different hardware is not comparable (a baseline generated elsewhere
/// would make the gate red -- or vacuous -- by construction).  Documents
/// without a host stamp are assumed comparable.  `notes`, when non-null,
/// receives non-failing diagnostics such as "qps gate skipped".
[[nodiscard]] std::vector<std::string> compare_to_baseline(
    const Json& baseline, const Json& current,
    const GateOptions& options = {}, std::vector<std::string>* notes = nullptr);

}  // namespace rtr::bench_harness

#endif  // RTR_BENCH_HARNESS_BENCH_HARNESS_H
