// EpochManager: continuous serving across topology churn.
//
// The invariants under test, in paper terms (Sections 1 and 6): the TINN
// naming is fixed once and survives every epoch (name-keyed sessions never
// re-resolve), topology-dependent substrate labels are free to change, and
// a query that started on epoch k completes coherently on epoch k even if
// epoch k+1 is published mid-flight.  The *EpochSwapHammer* tests are the
// ThreadSanitizer targets CI runs with -fsanitize=thread.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/names.h"
#include "core/stretch6.h"
#include "io/snapshot.h"
#include "net/scheme_adapter.h"
#include "graph/churn.h"
#include "graph/generators.h"
#include "rt/metric.h"
#include "serve/epoch_manager.h"
#include "test_support.h"

namespace rtr {
namespace {

Digraph initial_graph(NodeId n, std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder g = random_strongly_connected(n, 4.0, 5, rng);
  g.assign_adversarial_ports(rng);
  return g.freeze();
}

NameAssignment fixed_names(NodeId n, std::uint64_t seed) {
  Rng rng(seed);
  return NameAssignment::random(n, rng);
}

TEST(EpochManager, ServesImmediatelyAfterConstruction) {
  const NodeId n = 40;
  EpochManager mgr("stretch6", fixed_names(n, 5), initial_graph(n, 6));
  EXPECT_EQ(mgr.epoch(), 0u);
  const auto& names = mgr.names();
  auto res = mgr.roundtrip_by_name(names.name_of(1), names.name_of(7));
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(mgr.counters().queries, 1u);
  EXPECT_EQ(mgr.counters().failures, 0u);
}

// The dynamic_names.cpp invariant, promoted to an assertion: the same
// NameAssignment across every epoch, while the substrate's topology-
// dependent R3 labels are free to change.
TEST(EpochManager, NamesAreStableAcrossEpochsWhileR3LabelsChurn) {
  const NodeId n = 48;
  const NameAssignment names = fixed_names(n, 7);
  EpochManager mgr("stretch6", names, initial_graph(n, 8));

  Rng churn_rng(9);
  ChurnOptions churn;
  churn.rehome_nodes = 3;
  std::vector<RtzAddress> r3_of_node0;
  bool any_label_changed = false;
  for (int step = 0; step < 3; ++step) {
    auto epoch = mgr.current();
    // Name stability: every epoch serves the construction-time naming, as
    // the exact same permutation.
    EXPECT_EQ(epoch->handle.names().names(), names.names())
        << "epoch " << epoch->seq;
    EXPECT_EQ(mgr.names().names(), names.names());
    // The substrate's R3 address of (the node named by) name 0 is
    // topology-dependent state; record it per epoch.  Registry-built schemes
    // are wrapped in the template adapter, so unwrap to reach the substrate.
    const auto* adapter =
        dynamic_cast<const TemplateSchemeAdapter<Stretch6Scheme>*>(
            &epoch->handle.scheme());
    ASSERT_NE(adapter, nullptr);
    r3_of_node0.push_back(
        adapter->impl().substrate().address_of_name(names.name_of(0)));
    if (r3_of_node0.size() > 1) {
      const auto& prev = r3_of_node0[r3_of_node0.size() - 2];
      const auto& now = r3_of_node0.back();
      any_label_changed |= now.center_index != prev.center_index ||
                           now.center_label.dfs_in != prev.center_label.dfs_in;
    }
    if (step < 2) {
      mgr.rebuild_now(churn_step(epoch->handle.graph(), churn, churn_rng));
    }
  }
  EXPECT_EQ(mgr.epoch(), 2u);
  // Applications never see R3 labels, so they are ALLOWED to change -- and
  // with re-drawn ports, re-homed nodes, and fresh scheme randomness they
  // do change for this seed set (pinned so a regression that accidentally
  // freezes substrate state across epochs would trip it).
  EXPECT_TRUE(any_label_changed);
}

TEST(EpochManager, InFlightRebuildDoesNotBlockQueries) {
  // Big enough that the background APSP+build cannot finish between two
  // consecutive statements on the control thread (the single-flight probe
  // below would otherwise race a sub-millisecond rebuild).
  const NodeId n = 200;
  const NameAssignment names = fixed_names(n, 11);
  Digraph g0 = initial_graph(n, 12);
  EpochManager mgr("rtz3", names, g0);

  Rng churn_rng(13);
  Digraph g1 = churn_step(g0, ChurnOptions{}, churn_rng);
  ASSERT_TRUE(mgr.begin_rebuild(Digraph(g1)));
  // One rebuild in flight at a time; a benign graph, so even a lost race
  // could not poison last_error.
  EXPECT_FALSE(mgr.begin_rebuild(Digraph(g1)));
  // Queries served while the rebuild runs; every one must succeed.
  std::uint64_t served = 0;
  Rng qrng(14);
  do {
    NodeName a = static_cast<NodeName>(qrng.index(n));
    NodeName b = static_cast<NodeName>(qrng.index(n));
    if (a == b) continue;
    EXPECT_TRUE(mgr.roundtrip_by_name(a, b).ok());
    ++served;
  } while (mgr.rebuild_in_flight());
  mgr.wait_for_rebuild();
  EXPECT_EQ(mgr.last_error(), "");
  EXPECT_EQ(mgr.epoch(), 1u);
  EXPECT_GT(served, 0u);
  EXPECT_EQ(mgr.counters().failures, 0u);
}

TEST(EpochManager, FailedRebuildLeavesTheCurrentEpochServing) {
  const NodeId n = 32;
  EpochManager mgr("stretch6", fixed_names(n, 15), initial_graph(n, 16));
  // A disconnected next topology cannot be preprocessed (no APSP): the
  // rebuild fails, the error is readable, epoch 0 keeps serving.
  GraphBuilder disconnected(n);
  disconnected.add_edge(0, 1, 1);
  ASSERT_TRUE(mgr.begin_rebuild(disconnected.freeze()));
  mgr.wait_for_rebuild();
  EXPECT_NE(mgr.last_error(), "");
  EXPECT_EQ(mgr.epoch(), 0u);
  const auto& names = mgr.names();
  EXPECT_TRUE(mgr.roundtrip_by_name(names.name_of(3), names.name_of(9)).ok());
  // And a subsequent good rebuild clears the error.
  mgr.rebuild_now(initial_graph(n, 17));
  EXPECT_EQ(mgr.last_error(), "");
  EXPECT_EQ(mgr.epoch(), 1u);
}

// The naming is fixed, so a topology over a different node count can never
// become an epoch.  With or without incremental repair, the rebuild fails
// up front with a message naming the mismatch, and epoch 0 keeps serving.
TEST(EpochManager, RebuildOntoADifferentNodeCountFailsAndKeepsServing) {
  const NodeId n = 32;
  for (const bool repair : {false, true}) {
    EpochManagerOptions options;
    options.enable_repair = repair;
    EpochManager mgr("stretch6", fixed_names(n, 15), initial_graph(n, 16),
                     options);
    EXPECT_THROW(mgr.rebuild_now(initial_graph(n + 8, 17)), std::runtime_error);
    EXPECT_NE(mgr.last_error().find(
                  "node count changed: the next topology has 40 nodes, the "
                  "naming 32"),
              std::string::npos)
        << mgr.last_error();
    EXPECT_EQ(mgr.epoch(), 0u);
    EXPECT_EQ(mgr.counters().epochs_built, 0u);
    EXPECT_EQ(mgr.counters().repair_fallbacks, 0u);
    const auto& names = mgr.names();
    EXPECT_TRUE(mgr.roundtrip_by_name(names.name_of(3), names.name_of(9)).ok());
  }
}

TEST(EpochManager, WarmStartsFromTheSnapshotCacheKeyedByEpoch) {
  const NodeId n = 40;
  const NameAssignment names = fixed_names(n, 19);
  const std::string cache_dir = ::testing::TempDir() + "rtr_epoch_cache";
  (void)std::remove((cache_dir + "/stretch6_epoch0.rtrsnap").c_str());
  (void)std::remove((cache_dir + "/stretch6_epoch1.rtrsnap").c_str());
  ASSERT_EQ(::mkdir(cache_dir.c_str(), 0755) == 0 || errno == EEXIST, true);

  EpochManagerOptions opts;
  opts.cache_dir = cache_dir;
  Digraph g0 = initial_graph(n, 20);
  Rng churn_rng(21);
  Digraph g1 = churn_step(g0, ChurnOptions{}, churn_rng);

  // Cold pass: both epochs built, snapshots saved.
  {
    EpochManager mgr("stretch6", names, g0, opts);
    mgr.rebuild_now(Digraph(g1));
    EXPECT_EQ(mgr.counters().cache_hits, 0u);
  }
  // Warm pass over the same epoch sequence: both epochs load.
  {
    EpochManager mgr("stretch6", names, Digraph(g0), opts);
    EXPECT_TRUE(mgr.current()->loaded_from_cache);
    mgr.rebuild_now(Digraph(g1));
    EXPECT_EQ(mgr.counters().cache_hits, 2u);
    EXPECT_TRUE(mgr.current()->loaded_from_cache);
    const auto res = mgr.roundtrip_by_name(names.name_of(2), names.name_of(8));
    EXPECT_TRUE(res.ok());
  }
  // A DIFFERENT epoch-1 topology against the same cache key: the stale file
  // must be detected (topology mismatch) and rebuilt over, not served.
  {
    EpochManager mgr("stretch6", names, Digraph(g0), opts);
    Digraph other = churn_step(g0, ChurnOptions{}, churn_rng);
    mgr.rebuild_now(std::move(other));
    EXPECT_EQ(mgr.counters().cache_hits, 1u);  // epoch 0 hit, epoch 1 stale
    EXPECT_FALSE(mgr.current()->loaded_from_cache);
    EXPECT_EQ(mgr.counters().failures, 0u);
  }
}

// The tentpole warm-start path: mapped_snapshots mmaps the v2 cache file in
// place instead of decoding an owning copy, and must serve the exact same
// routes.  Behavior (hits, stale detection) is otherwise identical to the
// owned path by construction -- same build_or_load, different load mode.
TEST(EpochManager, MappedWarmStartServesIdenticallyToOwned) {
  const NodeId n = 40;
  const NameAssignment names = fixed_names(n, 31);
  const std::string cache_dir = ::testing::TempDir() + "rtr_epoch_map_cache";
  (void)std::remove((cache_dir + "/stretch6_epoch0.rtrsnap").c_str());
  ASSERT_EQ(::mkdir(cache_dir.c_str(), 0755) == 0 || errno == EEXIST, true);

  EpochManagerOptions opts;
  opts.cache_dir = cache_dir;
  Digraph g0 = initial_graph(n, 32);
  // Cold pass writes the v2 snapshot.
  {
    EpochManager mgr("stretch6", names, Digraph(g0), opts);
    EXPECT_FALSE(mgr.current()->loaded_from_cache);
  }
  // Owned and mapped warm starts answer identically.
  EpochManagerOptions mapped_opts = opts;
  mapped_opts.mapped_snapshots = true;
  EpochManager owned("stretch6", names, Digraph(g0), opts);
  EpochManager mapped("stretch6", names, Digraph(g0), mapped_opts);
  EXPECT_TRUE(owned.current()->loaded_from_cache);
  EXPECT_TRUE(mapped.current()->loaded_from_cache);
  for (NodeId s = 0; s < 10; ++s) {
    for (NodeId t = 10; t < 20; ++t) {
      const auto a = owned.roundtrip_by_name(names.name_of(s), names.name_of(t));
      const auto b = mapped.roundtrip_by_name(names.name_of(s), names.name_of(t));
      ASSERT_EQ(a.ok(), b.ok());
      ASSERT_EQ(a.route.roundtrip_length(), b.route.roundtrip_length());
      ASSERT_EQ(a.route.out_hops, b.route.out_hops);
    }
  }
  EXPECT_EQ(mapped.counters().failures, 0u);
}

// shm_prefix: each cached epoch is also published to a POSIX shared-memory
// object a sibling process can attach with map_snapshot_shm; the manager
// unlinks its objects at destruction.
TEST(EpochManager, ShmPrefixPublishesEpochsForSiblingProcesses) {
  const NodeId n = 40;
  const NameAssignment names = fixed_names(n, 37);
  const std::string cache_dir = ::testing::TempDir() + "rtr_epoch_shm_cache";
  (void)std::remove((cache_dir + "/stretch6_epoch0.rtrsnap").c_str());
  ASSERT_EQ(::mkdir(cache_dir.c_str(), 0755) == 0 || errno == EEXIST, true);

  EpochManagerOptions opts;
  opts.cache_dir = cache_dir;
  opts.shm_prefix = "rtr_test_epoch_" + std::to_string(::getpid());
  std::string shm_name;
  {
    EpochManager mgr("stretch6", names, initial_graph(n, 38), opts);
    if (mgr.counters().shm_published == 0) {
      GTEST_SKIP() << "POSIX shm unavailable in this environment";
    }
    shm_name = mgr.shm_name_for(0);
    // A sibling process would attach exactly like this: zero-copy, and the
    // answers match the manager's own serving path.
    SchemeHandle attached = map_snapshot_shm(shm_name, "stretch6");
    const auto via_mgr = mgr.roundtrip_by_name(names.name_of(3), names.name_of(9));
    const auto via_shm = attached.roundtrip(3, 9);
    EXPECT_EQ(via_mgr.ok(), via_shm.ok());
    EXPECT_EQ(via_mgr.route.roundtrip_length(), via_shm.roundtrip_length());
  }
  // Destruction unlinks: a fresh attach by name must now fail.
  EXPECT_THROW((void)map_snapshot_shm(shm_name, "stretch6"), SnapshotError);
}

// After a failed save the cache path can still hold an older file whose
// CRCs are valid; it is not this epoch and must not reach shm as one.  Two
// stale files take both save legs: a stretch6 snapshot of another topology
// loads, fails the topology check and is rebuilt over by the manager's own
// save; an rtz3 snapshot fails the load, so build_or_load rebuilds and
// saves.  The stale files are of a smaller graph, and a file-size limit
// equal to a stale file's size stops the epoch's save but would still let
// the stale file be copied into shm.
TEST(EpochManager, FailedSaveNeverPublishesTheStaleFile) {
  const NodeId n = 40;
  const NodeId stale_n = 8;
  const NameAssignment names = fixed_names(n, 45);
  const std::string cache_dir =
      ::testing::TempDir() + "rtr_epoch_stale_shm_cache";
  ASSERT_EQ(::mkdir(cache_dir.c_str(), 0755) == 0 || errno == EEXIST, true);
  const std::string path = cache_dir + "/stretch6_epoch0.rtrsnap";
  for (const char* stale_scheme : {"stretch6", "rtz3"}) {
    SCOPED_TRACE(stale_scheme);
    {
      const auto graph =
          std::make_shared<const Digraph>(initial_graph(stale_n, 46));
      const NameAssignment stale_names = fixed_names(stale_n, 47);
      const BuildContext ctx = BuildContext::wrap(
          graph, make_roundtrip_metric(graph), stale_names, 47);
      save_snapshot(path, stale_scheme,
                    SchemeHandle(graph, stale_names,
                                 SchemeRegistry::global().build(stale_scheme,
                                                                ctx)));
    }
    EpochManagerOptions opts;
    opts.cache_dir = cache_dir;
    opts.shm_prefix = "rtr_test_stale_" + std::to_string(::getpid()) + "_" +
                      stale_scheme;
    const testing::FileSizeLimit limit(std::filesystem::file_size(path));
    EpochManager mgr("stretch6", names, initial_graph(n, 48), opts);
    EXPECT_FALSE(mgr.current()->loaded_from_cache);
    EXPECT_EQ(mgr.counters().shm_published, 0u);
    EXPECT_EQ(mgr.counters().shm_publish_failures, 1u);
    EXPECT_THROW((void)map_snapshot_shm(mgr.shm_name_for(0)), SnapshotError);
    EXPECT_TRUE(
        mgr.roundtrip_by_name(names.name_of(3), names.name_of(9)).ok());
  }
  (void)std::remove(path.c_str());
}

// A failed shm publish degrades to file-only distribution, never to an
// outage, and is counted: a prefix longer than NAME_MAX makes shm_open
// reject every epoch's object name, while the epochs still publish and serve.
TEST(EpochManager, FailedShmPublishesAreCountedAndServingContinues) {
  const NodeId n = 40;
  const NameAssignment names = fixed_names(n, 41);
  const std::string cache_dir =
      ::testing::TempDir() + "rtr_epoch_shm_fail_cache";
  ASSERT_EQ(::mkdir(cache_dir.c_str(), 0755) == 0 || errno == EEXIST, true);
  for (const char* file :
       {"/stretch6_epoch0.rtrsnap", "/stretch6_epoch1.rtrsnap"}) {
    (void)std::remove((cache_dir + file).c_str());
  }

  EpochManagerOptions opts;
  opts.cache_dir = cache_dir;
  opts.shm_prefix = std::string(300, 'x');
  EpochManager mgr("stretch6", names, initial_graph(n, 42), opts);
  EXPECT_EQ(mgr.counters().shm_published, 0u);
  EXPECT_EQ(mgr.counters().shm_publish_failures, 1u);
  EXPECT_TRUE(
      mgr.roundtrip_by_name(names.name_of(3), names.name_of(9)).ok());

  mgr.rebuild_now(initial_graph(n, 43));
  EXPECT_EQ(mgr.epoch(), 1u);
  EXPECT_EQ(mgr.counters().shm_published, 0u);
  EXPECT_EQ(mgr.counters().shm_publish_failures, 2u);
  const ServingResult r =
      mgr.roundtrip_by_name(names.name_of(3), names.name_of(9));
  EXPECT_TRUE(r.ok()) << r.message;
  EXPECT_EQ(r.epoch, 1u);
  EXPECT_EQ(mgr.counters().failures, 0u);
}

// The concurrency acceptance test (and CI's ThreadSanitizer target): four
// query threads hammer name-keyed roundtrips nonstop while the control
// thread swaps >= 3 epochs under them, for EVERY registered scheme.  Zero
// failures allowed: an in-flight query must always see one coherent epoch.
void hammer_across_epoch_swaps(const std::string& scheme_name) {
  const NodeId n = 40;
  const int kSwaps = 3;
  const NameAssignment names = fixed_names(n, 23);
  Digraph g = initial_graph(n, 24);
  EpochManager mgr(scheme_name, names, Digraph(g));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ok{0}, failed{0};
  std::vector<std::thread> hammers;
  for (int w = 0; w < 4; ++w) {
    hammers.emplace_back([&, w] {
      Rng rng(100 + static_cast<std::uint64_t>(w));
      while (!stop.load(std::memory_order_relaxed)) {
        NodeName a = static_cast<NodeName>(rng.index(n));
        NodeName b = static_cast<NodeName>(rng.index(n));
        if (a == b) continue;
        if (mgr.roundtrip_by_name(a, b).ok()) {
          ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  Rng churn_rng(25);
  ChurnOptions churn;
  churn.rehome_nodes = 2;
  for (int swap = 0; swap < kSwaps; ++swap) {
    g = churn_step(g, churn, churn_rng);
    ASSERT_TRUE(mgr.begin_rebuild(Digraph(g)));
    mgr.wait_for_rebuild();
    ASSERT_EQ(mgr.last_error(), "") << scheme_name << " swap " << swap;
  }
  stop.store(true);
  for (auto& t : hammers) t.join();

  EXPECT_EQ(mgr.epoch(), static_cast<std::uint64_t>(kSwaps));
  EXPECT_EQ(failed.load(), 0u) << scheme_name;
  EXPECT_GT(ok.load(), 0u) << scheme_name;
  EXPECT_EQ(mgr.counters().failures, 0u);
}

class EpochSwapHammer : public ::testing::TestWithParam<std::string> {};

TEST_P(EpochSwapHammer, QueriesSurviveThreeEpochSwaps) {
  hammer_across_epoch_swaps(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, EpochSwapHammer,
    ::testing::ValuesIn(SchemeRegistry::global().names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace rtr
