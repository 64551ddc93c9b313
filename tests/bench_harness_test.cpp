#include <gtest/gtest.h>

#include <atomic>

#include "bench_harness/bench_harness.h"
#include "util/json.h"

namespace rtr::bench_harness {
namespace {


BenchConfig tiny_config() {
  BenchConfig c;
  c.schemes = {"stretch6", "fulltable", "rtz3"};
  c.families = {Family::kRandom, Family::kGrid};
  c.sizes = {64};
  c.pair_budget = 400;
  c.latency_sample = 50;
  c.iterations.warmup_reps = 0;
  c.iterations.min_reps = 1;
  c.iterations.max_reps = 1;
  c.snapshot_phase = false;  // timing-only phase; not needed for determinism
  return c;
}

// Two runs with one config must agree on every workload-derived figure; the
// timer fields are the only run-to-run variance the harness permits.
TEST(BenchHarness, SuiteIsDeterministicForAFixedConfig) {
  const BenchConfig config = tiny_config();
  const SuiteResult a = run_suite(config);
  const SuiteResult b = run_suite(config);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  ASSERT_EQ(a.cells.size(),
            config.schemes.size() * config.families.size() * config.sizes.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const CellResult& x = a.cells[i];
    const CellResult& y = b.cells[i];
    EXPECT_EQ(x.scheme, y.scheme);
    EXPECT_EQ(x.family, y.family);
    EXPECT_EQ(x.n, y.n);
    // Iteration counts of the workload: same pairs routed, bit-identical
    // aggregates.
    EXPECT_EQ(x.pairs, y.pairs);
    EXPECT_EQ(x.failures, y.failures);
    EXPECT_EQ(x.invalid, y.invalid);
    EXPECT_EQ(x.mean_stretch, y.mean_stretch);
    EXPECT_EQ(x.p99_stretch, y.p99_stretch);
    EXPECT_EQ(x.max_stretch, y.max_stretch);
    EXPECT_EQ(x.max_header_bits, y.max_header_bits);
    EXPECT_EQ(x.table_entries_max, y.table_entries_max);
    EXPECT_EQ(x.bytes_per_node, y.bytes_per_node);
    EXPECT_EQ(x.first_error, y.first_error);
    EXPECT_GT(x.pairs, 0);
    EXPECT_EQ(x.failures, 0) << x.scheme << " " << x.family << ": "
                             << x.first_error;
  }
}

TEST(BenchHarness, JsonSchemaRoundTripsBitExactly) {
  BenchConfig config = tiny_config();
  config.schemes = {"stretch6"};
  config.families = {Family::kRandom};
  SuiteResult result = run_suite(config);
  // Exercise the optional fields too.
  result.cells[0].first_error = "no error, just \"quotes\" and\nnewlines";

  const Json doc = suite_to_json(result, config, "test-rev");
  const Json reparsed = Json::parse(doc.dump());
  EXPECT_EQ(doc, reparsed);
  EXPECT_EQ(reparsed.at("schema").as_string(), kSchemaVersion);
  EXPECT_EQ(reparsed.at("rev").as_string(), "test-rev");

  const std::vector<CellResult> cells = cells_from_json(reparsed);
  ASSERT_EQ(cells.size(), result.cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& x = result.cells[i];
    const CellResult& y = cells[i];
    EXPECT_EQ(x.scheme, y.scheme);
    EXPECT_EQ(x.family, y.family);
    EXPECT_EQ(x.n, y.n);
    // Doubles must round-trip bit-exactly (%.17g emission).
    EXPECT_EQ(x.qps, y.qps);
    EXPECT_EQ(x.build_ms, y.build_ms);
    EXPECT_EQ(x.apsp_ms, y.apsp_ms);
    EXPECT_EQ(x.snapshot_load_ms, y.snapshot_load_ms);
    EXPECT_EQ(x.p50_query_ns, y.p50_query_ns);
    EXPECT_EQ(x.p99_query_ns, y.p99_query_ns);
    EXPECT_EQ(x.mean_stretch, y.mean_stretch);
    EXPECT_EQ(x.p99_stretch, y.p99_stretch);
    EXPECT_EQ(x.max_stretch, y.max_stretch);
    EXPECT_EQ(x.bytes_per_node, y.bytes_per_node);
    EXPECT_EQ(x.pairs, y.pairs);
    EXPECT_EQ(x.failures, y.failures);
    EXPECT_EQ(x.max_header_bits, y.max_header_bits);
    EXPECT_EQ(x.table_entries_max, y.table_entries_max);
    EXPECT_EQ(x.first_error, y.first_error);
  }
}

TEST(BenchHarness, SchemaVersionIsEnforcedOnParse) {
  Json doc{JsonObject{}};
  doc.set("schema", "rtr-bench/999");
  doc.set("cells", JsonArray{});
  EXPECT_THROW(cells_from_json(doc), JsonError);
}

// ----------------------------------------------------------------- gating --

Json doc_with_cell(double qps, double mean_stretch, std::int64_t failures) {
  CellResult c;
  c.scheme = "stretch6";
  c.family = "random";
  c.n = 128;
  c.qps = qps;
  c.mean_stretch = mean_stretch;
  c.failures = failures;
  c.first_error = failures > 0 ? "synthetic failure" : "";
  Json doc{JsonObject{}};
  doc.set("schema", kSchemaVersion);
  doc.set("cells", JsonArray{cell_to_json(c)});
  return doc;
}

TEST(BenchHarness, GatePassesWhenCurrentMatchesBaseline) {
  const Json base = doc_with_cell(1000.0, 1.5, 0);
  EXPECT_TRUE(compare_to_baseline(base, base).empty());
}

TEST(BenchHarness, GateToleratesQpsDropsWithinTolerance) {
  const Json base = doc_with_cell(1000.0, 1.5, 0);
  const Json ok = doc_with_cell(800.0, 1.5, 0);  // -20% < 25% tolerance
  EXPECT_TRUE(compare_to_baseline(base, ok).empty());
}

TEST(BenchHarness, GateFailsOnQpsRegressionBeyondTolerance) {
  const Json base = doc_with_cell(1000.0, 1.5, 0);
  const Json bad = doc_with_cell(700.0, 1.5, 0);  // -30% > 25% tolerance
  const auto violations = compare_to_baseline(base, bad);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("qps regressed"), std::string::npos);
}

TEST(BenchHarness, GateFailsOnAnyAvgStretchIncrease) {
  const Json base = doc_with_cell(1000.0, 1.5, 0);
  const Json bad = doc_with_cell(1000.0, 1.5001, 0);
  const auto violations = compare_to_baseline(base, bad);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("stretch increased"), std::string::npos);
}

TEST(BenchHarness, GateFailsOnFailedQueriesAndMissingCells) {
  const Json base = doc_with_cell(1000.0, 1.5, 0);
  const auto failed = compare_to_baseline(base, doc_with_cell(1000.0, 1.5, 3));
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_NE(failed[0].find("failed queries"), std::string::npos);

  Json empty{JsonObject{}};
  empty.set("schema", kSchemaVersion);
  empty.set("cells", JsonArray{});
  const auto missing = compare_to_baseline(base, empty);
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_NE(missing[0].find("missing cell"), std::string::npos);
}

TEST(BenchHarness, GateSkipsQpsWhenHostsDiffer) {
  // Absolute throughput from different hardware is not comparable: the qps
  // check must disarm (with a note), while machine-independent checks --
  // stretch increases here -- still fire.
  Json base = doc_with_cell(1000.0, 1.5, 0);
  Json host_a{JsonObject{}};
  host_a.set("cpu", "cpu-model-a");
  base.set("host", host_a);
  Json cur = doc_with_cell(100.0, 1.6, 0);  // -90% qps AND higher stretch
  Json host_b{JsonObject{}};
  host_b.set("cpu", "cpu-model-b");
  cur.set("host", host_b);
  std::vector<std::string> notes;
  const auto violations = compare_to_baseline(base, cur, {}, &notes);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("stretch increased"), std::string::npos);
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_NE(notes[0].find("qps gate skipped"), std::string::npos);

  // Same host on both sides: the qps gate is armed again.
  cur.set("host", host_a);
  const auto armed = compare_to_baseline(base, cur);
  EXPECT_EQ(armed.size(), 2u);
}

TEST(BenchHarness, CpuModelNormalisationDropsClockAndWhitespace) {
  EXPECT_EQ(normalize_cpu_model("Intel(R) Xeon(R) Processor @ 2.10GHz"),
            "Intel(R) Xeon(R) Processor");
  EXPECT_EQ(normalize_cpu_model("Intel(R) Xeon(R) Processor"),
            "Intel(R) Xeon(R) Processor");
  EXPECT_EQ(normalize_cpu_model("  Intel(R)  Xeon(R)\tProcessor@2.10 GHz "),
            "Intel(R) Xeon(R) Processor");
  EXPECT_EQ(normalize_cpu_model("AMD EPYC 7B13 64-Core Processor"),
            "AMD EPYC 7B13 64-Core Processor");
  // Only a trailing clock goes: another '@' or a non-clock suffix stays.
  EXPECT_EQ(normalize_cpu_model("cpu @ lab GHz"), "cpu @ lab GHz");
  EXPECT_EQ(normalize_cpu_model("cpu @ 2.10GHz rev 2"), "cpu @ 2.10GHz rev 2");
  EXPECT_EQ(normalize_cpu_model(""), "");
}

TEST(BenchHarness, GateArmsQpsWhenOnlyTheClockSuffixDiffers) {
  // One part, two kernels: "... @ 2.10GHz" on one, no suffix on the other.
  const auto with_cpu = [](Json doc, const char* cpu) {
    Json host{JsonObject{}};
    host.set("cpu", cpu);
    doc.set("host", host);
    return doc;
  };
  const Json base = with_cpu(doc_with_cell(1000.0, 1.5, 0),
                             "Intel(R) Xeon(R) Processor @ 2.10GHz");
  const Json cur =
      with_cpu(doc_with_cell(100.0, 1.5, 0), "Intel(R) Xeon(R) Processor");
  std::vector<std::string> notes;
  const auto violations = compare_to_baseline(base, cur, {}, &notes);
  EXPECT_TRUE(notes.empty());
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("qps regressed"), std::string::npos);
}

TEST(BenchHarness, GateSkipsQpsWhenThreadCountsDiffer) {
  // Same CPU model but a different configured thread count: throughput is
  // not comparable, so the qps check disarms with a note.
  const auto with_host = [](Json doc, std::int64_t threads) {
    Json host{JsonObject{}};
    host.set("cpu", "cpu-model-a");
    host.set("threads_configured", threads);
    doc.set("host", host);
    return doc;
  };
  const Json base = with_host(doc_with_cell(1000.0, 1.5, 0), 8);
  const Json cur = with_host(doc_with_cell(100.0, 1.5, 0), 1);  // -90% qps
  std::vector<std::string> notes;
  EXPECT_TRUE(compare_to_baseline(base, cur, {}, &notes).empty());
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_NE(notes[0].find("threads_configured"), std::string::npos);

  // Matching counts arm the gate.
  EXPECT_EQ(compare_to_baseline(base, with_host(doc_with_cell(100.0, 1.5, 0), 8))
                .size(),
            1u);
  // An unstamped (pre-stamp) document means the old fixed default,
  // threads=1: armed against a stamped threads=1 run, skipped against 8.
  Json unstamped = doc_with_cell(100.0, 1.5, 0);
  Json cpu_only{JsonObject{}};
  cpu_only.set("cpu", "cpu-model-a");
  unstamped.set("host", cpu_only);
  EXPECT_TRUE(compare_to_baseline(base, unstamped).empty());
  const Json base1 = with_host(doc_with_cell(1000.0, 1.5, 0), 1);
  EXPECT_EQ(compare_to_baseline(base1, unstamped).size(), 1u);
}

Json doc_with_snapshot_cell(double load_ms, double map_ms) {
  CellResult c;
  c.scheme = "stretch6";
  c.family = "random";
  c.n = 128;
  c.qps = 1000.0;
  c.mean_stretch = 1.5;
  c.snapshot_load_ms = load_ms;
  c.snapshot_map_ms = map_ms;
  Json doc{JsonObject{}};
  doc.set("schema", kSchemaVersion);
  doc.set("cells", JsonArray{cell_to_json(c)});
  return doc;
}

// Satellite of the arena PR: -1 is the "snapshot phase skipped" sentinel
// (no hooks, failed save, old baseline), not a time.  The gate must never
// feed it into a comparison -- on EITHER side -- else a skipped phase reads
// as an infinite speedup or an infinite regression.
TEST(BenchHarness, GateSkipsSnapshotSentinelsInsteadOfComparingThem) {
  // Sentinel baseline vs huge current time: comparing would scream
  // "regression"; skipping is correct.
  EXPECT_TRUE(compare_to_baseline(doc_with_snapshot_cell(-1, -1),
                                  doc_with_snapshot_cell(500.0, 500.0))
                  .empty());
  // Real baseline vs sentinel current: comparing would report a 100x
  // "speedup" (or, with the regression sign, fire spuriously); skip.
  EXPECT_TRUE(compare_to_baseline(doc_with_snapshot_cell(500.0, 500.0),
                                  doc_with_snapshot_cell(-1, -1))
                  .empty());
  // Both below the noise floor: single-shot sub-5ms times are scheduler
  // noise, not a regression signal.
  EXPECT_TRUE(compare_to_baseline(doc_with_snapshot_cell(2.0, 2.0),
                                  doc_with_snapshot_cell(4.5, 4.5))
                  .empty());
}

TEST(BenchHarness, GateFailsOnRealSnapshotRegressions) {
  // Both sides real and above the floor, current more than (1 + tolerance)x
  // the baseline: that IS a regression, proving the sentinel skip above is
  // a guard and not a dead gate.
  const auto violations =
      compare_to_baseline(doc_with_snapshot_cell(100.0, 50.0),
                          doc_with_snapshot_cell(250.0, 40.0));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("snapshot_load_ms regressed"),
            std::string::npos);
  const auto map_violations =
      compare_to_baseline(doc_with_snapshot_cell(100.0, 50.0),
                          doc_with_snapshot_cell(90.0, 150.0));
  ASSERT_EQ(map_violations.size(), 1u);
  EXPECT_NE(map_violations[0].find("snapshot_map_ms regressed"),
            std::string::npos);
}

TEST(BenchHarness, SnapshotMapColumnTolerantReadDefaultsToSentinel) {
  // Documents from before the mmap column must parse as "not measured"
  // (-1), not throw -- same contract as peak_rss_kb.
  CellResult c;
  c.scheme = "stretch6";
  c.family = "random";
  c.n = 128;
  c.snapshot_map_ms = 123.0;
  std::string dumped = cell_to_json(c).dump();
  const auto pos = dumped.find("\"snapshot_map_ms\"");
  ASSERT_NE(pos, std::string::npos) << dumped;
  const auto comma = dumped.find(',', pos);  // not the last field: has one
  ASSERT_NE(comma, std::string::npos) << dumped;
  dumped.erase(pos, comma - pos + 1);
  const CellResult reparsed = cell_from_json(Json::parse(dumped));
  EXPECT_EQ(reparsed.snapshot_map_ms, -1);
  EXPECT_EQ(reparsed.scheme, "stretch6");
}

// Synthetic full-sweep document for the growth gate: one scheme/family
// series across sizes with given bytes/node and build_ms columns.
Json doc_with_series(const std::string& scheme,
                     const std::vector<NodeId>& sizes,
                     const std::vector<double>& bytes_per_node,
                     const std::vector<double>& build_ms) {
  JsonArray cells;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    CellResult c;
    c.scheme = scheme;
    c.family = "random";
    c.n = sizes[i];
    c.qps = 1000.0;
    c.bytes_per_node = bytes_per_node[i];
    c.build_ms = build_ms[i];
    cells.push_back(cell_to_json(c));
  }
  Json doc{JsonObject{}};
  doc.set("schema", kSchemaVersion);
  doc.set("cells", std::move(cells));
  return doc;
}

TEST(BenchHarness, GrowthGatePassesOnSqrtNShapedSeries) {
  // bytes/node tracking ~sqrt(n) and build_ms tracking ~n sqrt(n) exactly.
  const Json doc = doc_with_series("rtz3", {256, 1024, 4096},
                                   {160.0, 320.0, 640.0},
                                   {50.0, 400.0, 3200.0});
  EXPECT_TRUE(check_growth_budgets(doc).empty());
}

TEST(BenchHarness, GrowthGateFailsOnLinearTableGrowth) {
  // bytes/node quadrupling per 4x size step is Theta(n)/node: a regression
  // for a sqrt-n scheme.
  const Json doc = doc_with_series("stretch6", {256, 1024, 4096},
                                   {160.0, 640.0, 2560.0},
                                   {50.0, 400.0, 3200.0});
  const auto violations = check_growth_budgets(doc);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("bytes/node grew"), std::string::npos);
}

TEST(BenchHarness, GrowthGateFailsOnSuperbudgetBuildTime) {
  // ~n^2.5 build growth (32x per 4x step) blows the n sqrt(n) budget even
  // with the generous timing slack.
  const Json doc = doc_with_series("rtz3", {256, 1024, 4096},
                                   {160.0, 320.0, 640.0},
                                   {50.0, 1600.0, 51200.0});
  const auto violations = check_growth_budgets(doc);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("build_ms grew"), std::string::npos);
}

TEST(BenchHarness, GrowthGateIgnoresUngatedSchemesAndTinyTimings) {
  // fulltable is Theta(n)-per-node by design: not gated.  Alongside a gated
  // in-budget series its linear growth must not trip the gate.
  const Json linear_fulltable = doc_with_series(
      "fulltable", {256, 1024}, {1000.0, 4000.0}, {50.0, 800.0});
  const Json in_budget = doc_with_series("rtz3", {256, 1024},
                                         {160.0, 320.0}, {50.0, 400.0});
  JsonArray mixed_cells = in_budget.at("cells").as_array();
  for (const Json& cell : linear_fulltable.at("cells").as_array()) {
    mixed_cells.push_back(cell);
  }
  Json mixed{JsonObject{}};
  mixed.set("schema", kSchemaVersion);
  mixed.set("cells", std::move(mixed_cells));
  EXPECT_TRUE(check_growth_budgets(mixed).empty());
  // Sub-threshold build_ms cells are timing noise: not gated (bytes still
  // are, but this series' bytes are in budget).
  const Json tiny = doc_with_series("rtz3", {256, 1024},
                                    {160.0, 320.0}, {0.5, 4.9});
  EXPECT_TRUE(check_growth_budgets(tiny).empty());
}

TEST(BenchHarness, GrowthGateSkipsSnapshotSentinelsButGatesRealSeries) {
  const auto with_snapshot_times = [](Json doc, double lo_ms, double hi_ms) {
    JsonArray cells = doc.at("cells").as_array();
    CellResult lo = cell_from_json(cells[0]);
    CellResult hi = cell_from_json(cells[1]);
    lo.snapshot_load_ms = lo_ms;
    hi.snapshot_load_ms = hi_ms;
    doc.set("cells", JsonArray{cell_to_json(lo), cell_to_json(hi)});
    return doc;
  };
  const Json in_budget = doc_with_series("rtz3", {256, 1024},
                                         {160.0, 320.0}, {50.0, 400.0});
  // A -1 endpoint is "phase skipped", not a time: no ratio, no violation,
  // regardless of which end carries it.
  EXPECT_TRUE(
      check_growth_budgets(with_snapshot_times(in_budget, -1, 900.0)).empty());
  EXPECT_TRUE(
      check_growth_budgets(with_snapshot_times(in_budget, 50.0, -1)).empty());
  // Both endpoints real and way past the O~(n sqrt n) budget (8x size ratio
  // allows ~n^1.5 * polylog * slack; 100x blows it): the gate fires.
  const auto violations =
      check_growth_budgets(with_snapshot_times(in_budget, 50.0, 5000.0));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("snapshot_load_ms grew"), std::string::npos);
}

TEST(BenchHarness, GrowthGateRefusesVacuousAndDegenerateSweeps) {
  // Only ungated schemes in the document: the gate would pass without
  // checking anything, so it raises the typed error instead of a pass.
  const Json ungated_only = doc_with_series(
      "fulltable", {256, 1024}, {1000.0, 4000.0}, {50.0, 800.0});
  EXPECT_THROW(check_growth_budgets(ungated_only), GrowthGateError);
  // A single-size sweep has no growth to measure: typed error, not a pass.
  const Json single_size =
      doc_with_series("rtz3", {1024}, {320.0}, {400.0});
  EXPECT_THROW(check_growth_budgets(single_size), GrowthGateError);
  // A zero-valued baseline cell would make every ratio infinite (or mask a
  // broken measurement): typed error naming the cell.
  const Json zero_base = doc_with_series("rtz3", {256, 1024},
                                         {0.0, 320.0}, {50.0, 400.0});
  EXPECT_THROW(check_growth_budgets(zero_base), GrowthGateError);
}

// ----------------------------------------------------------------- timing --

TEST(BenchHarness, IterationControllerHonorsRepBounds) {
  IterationPolicy policy;
  policy.warmup_reps = 2;
  policy.min_reps = 3;
  policy.max_reps = 6;
  policy.window = 3;
  policy.steady_rel_spread = 1e9;  // everything is "steady": stops at window
  std::atomic<int> calls{0};
  const TimedPhase steady = run_timed(policy, [&] { ++calls; });
  EXPECT_EQ(steady.reps, 3);  // window == 3 timed reps suffice
  EXPECT_TRUE(steady.steady);
  EXPECT_EQ(calls.load(), 2 + 3);  // warmup + timed

  policy.steady_rel_spread = 0.0;  // (hi-lo)/lo == 0 is still <= 0 only when
                                   // timings tie exactly; a busy loop won't
  calls = 0;
  const TimedPhase capped = run_timed(policy, [&] {
    ++calls;
    volatile int spin = 0;
    for (int i = 0; i < 10000; ++i) spin = spin + i;
  });
  EXPECT_LE(capped.reps, 6);
  EXPECT_GE(capped.reps, 3);
  EXPECT_GT(capped.best_ms, 0.0);
  EXPECT_GE(capped.mean_ms, capped.best_ms);
}

TEST(BenchHarness, RssReadingWorksOnLinux) {
  const std::int64_t rss = current_rss_kb();
  // Procfs present (Linux CI): a live process has a positive RSS.
  if (rss >= 0) {
    EXPECT_GT(rss, 0);
  }
}

}  // namespace
}  // namespace rtr::bench_harness
