#include "serve/epoch_manager.h"

#include <chrono>
#include <stdexcept>

#include "graph/churn_delta.h"
#include "io/snapshot.h"

namespace rtr {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Exact topology equality, ports included.  A cached snapshot is only
/// trustworthy for an epoch if its frozen graph is THIS epoch's graph: the
/// tables store port numbers, and the stretch denominators come from the
/// epoch's own metric.
bool same_topology(const Digraph& a, const Digraph& b) {
  if (a.node_count() != b.node_count() || a.edge_count() != b.edge_count()) {
    return false;
  }
  for (NodeId u = 0; u < a.node_count(); ++u) {
    const auto ea = a.out_edges(u);
    const auto eb = b.out_edges(u);
    if (ea.size() != eb.size()) return false;
    for (std::size_t i = 0; i < ea.size(); ++i) {
      if (ea[i].to != eb[i].to || ea[i].weight != eb[i].weight ||
          ea[i].port != eb[i].port) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

EpochManager::EpochManager(std::string scheme_name, NameAssignment names,
                           Digraph initial, EpochManagerOptions options,
                           const SchemeRegistry& registry)
    : scheme_name_(std::move(scheme_name)),
      names_(std::move(names)),
      options_(std::move(options)),
      registry_(registry) {
  if (names_.node_count() != initial.node_count()) {
    throw std::invalid_argument(
        "EpochManager: names do not match the initial graph");
  }
  std::atomic_store_explicit(
      &current_,
      build_epoch(0, std::make_shared<const Digraph>(std::move(initial))),
      std::memory_order_release);
}

EpochManager::~EpochManager() {
  wait_for_rebuild();
  // Published shm objects outlive attached mappings (POSIX keeps the pages
  // until the last unmap), so unlinking here never yanks an epoch out from
  // under a sibling process -- it only removes the names.
  for (const std::string& name : shm_published_) {
    unlink_arena_shm(name);
  }
}

std::shared_ptr<const Epoch> EpochManager::build_epoch(
    std::uint64_t seq, std::shared_ptr<const Digraph> graph) {
  const auto start = std::chrono::steady_clock::now();
  // The metric is made per epoch regardless of the snapshot cache: it is
  // not part of the frozen artifact (stretch denominators are measurement
  // state, not routing state).  Under kAuto that costs O(m); the roundtrip
  // table is paid only by a cover scheme's build, so a cache hit skips it.
  std::shared_ptr<const RoundtripMetric> metric =
      make_roundtrip_metric(graph, options_.metric_mode);
  // Under repair the seed is pinned so every epoch draws the same centers;
  // without it epochs stay independently randomized as before.
  const std::uint64_t seed = options_.enable_repair
                                 ? options_.scheme_seed
                                 : options_.scheme_seed + seq;
  BuildContext ctx = BuildContext::wrap(graph, metric, names_, seed);

  bool from_cache = false;
  std::unique_ptr<SchemeHandle> handle;
  if (!options_.cache_dir.empty() &&
      registry_.snapshot_supported(scheme_name_)) {
    const std::string path = options_.cache_dir + "/" + scheme_name_ +
                             "_epoch" + std::to_string(seq) + ".rtrsnap";
    const auto mode = options_.mapped_snapshots
                          ? SchemeRegistry::SnapshotLoadMode::kMapped
                          : SchemeRegistry::SnapshotLoadMode::kOwned;
    SchemeRegistry::CacheOutcome outcome{};
    SchemeHandle cached =
        registry_.build_or_load(scheme_name_, ctx, path, mode, &outcome);
    from_cache = outcome == SchemeRegistry::CacheOutcome::kLoaded;
    // Whether `path` holds this epoch: a failed save can leave a stale file
    // there, CRCs valid, that must not go out to shm as this epoch.
    bool path_holds_epoch =
        outcome != SchemeRegistry::CacheOutcome::kSaveFailed;
    // Trust the cache only if it froze exactly this epoch: same fixed
    // naming, same topology down to the adversary's port numbers.  A stale
    // file (e.g. a reused cache_dir from a different churn sequence) is
    // rebuilt over.
    if (!from_cache || (cached.names().names() == names_.names() &&
                        same_topology(cached.graph(), *graph))) {
      handle = std::make_unique<SchemeHandle>(std::move(cached));
    } else {
      from_cache = false;
      handle = std::make_unique<SchemeHandle>(
          graph, names_, registry_.build(scheme_name_, ctx));
      try {
        save_snapshot(path, scheme_name_, *handle, registry_);
      } catch (const SnapshotError& e) {
        // Same degradation contract as build_or_load: serving wins.
        warn_snapshot_cache_save_failed_once("EpochManager", e);
        path_holds_epoch = false;
      }
    }
    if (!options_.shm_prefix.empty()) {
      if (path_holds_epoch) {
        publish_epoch_shm(seq, path);
      } else {
        shm_publish_failures_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  } else {
    handle = std::make_unique<SchemeHandle>(graph, names_,
                                            registry_.build(scheme_name_, ctx));
  }
  if (from_cache) cache_hits_.fetch_add(1, std::memory_order_relaxed);

  QueryEngineOptions qopts;
  qopts.threads = options_.query_threads;
  auto engine = std::make_shared<const QueryEngine>(
      handle->graph_ptr(), metric, names_, handle->scheme_ptr(), qopts);
  return std::make_shared<const Epoch>(seq, std::move(*handle),
                                       std::move(metric), std::move(engine),
                                       from_cache, seconds_since(start));
}

void EpochManager::publish_epoch_shm(std::uint64_t seq,
                                     const std::string& path) {
  const std::string shm_name = shm_name_for(seq);
  try {
    publish_snapshot_shm(path, shm_name);
  } catch (const std::exception&) {
    // No shm on this host, a name shm_open rejects, or a file that does not
    // verify: sibling processes fall back to the snapshot file.  Serving
    // wins; the counter says it happened.
    shm_publish_failures_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(shm_mutex_);
    shm_published_.push_back(shm_name);
  }
  shm_published_count_.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const Epoch> EpochManager::repair_epoch(
    std::uint64_t seq, const Epoch& base,
    std::shared_ptr<const Digraph> graph, const ChurnDelta& delta,
    std::chrono::steady_clock::time_point start) {
  // The repair path's headline saving over a full build: a lazy sparse
  // metric instead of the dense APSP.  Both backends return identical
  // r(u, v) values (pinned by tests), so the served stretch figures and the
  // repaired scheme's bytes cannot depend on this choice.
  std::shared_ptr<const RoundtripMetric> metric =
      make_roundtrip_metric(graph, MetricMode::kSparse);
  BuildContext ctx =
      BuildContext::wrap(graph, metric, names_, options_.scheme_seed);
  std::shared_ptr<const Scheme> scheme;
  try {
    scheme = registry_.repair(scheme_name_, base.handle.scheme(),
                              base.handle.graph(), ctx, delta);
  } catch (const std::logic_error&) {
    // A repair that breaks an invariant (a failed RTR_AUDIT_ON_BUILD audit,
    // a violated precondition) is a bug, not a fallback: it reaches the
    // rebuild thread's handler, so the current epoch keeps serving and
    // last_error() carries the message.
    throw;
  } catch (const std::exception&) {
    // Any other failed repair is a fallback, never an outage: the counters
    // expose it, the full build supplies the epoch.
    scheme = nullptr;
  }
  if (scheme == nullptr) return nullptr;
  // Repaired epochs deliberately skip the snapshot cache and shm: they are
  // transient, and recovery after a crash replays from the last full build.
  SchemeHandle handle(graph, names_, scheme);
  QueryEngineOptions qopts;
  qopts.threads = options_.query_threads;
  auto engine = std::make_shared<const QueryEngine>(graph, metric, names_,
                                                    scheme, qopts);
  return std::make_shared<const Epoch>(seq, std::move(handle),
                                       std::move(metric), std::move(engine),
                                       false, seconds_since(start));
}

bool EpochManager::begin_rebuild(Digraph next) {
  if (rebuild_in_flight_.exchange(true, std::memory_order_acq_rel)) {
    return false;
  }
  if (rebuild_thread_.joinable()) rebuild_thread_.join();  // previous, done
  const std::shared_ptr<const Epoch> base = current();
  const std::uint64_t seq = base->seq + 1;
  rebuild_thread_ = std::thread([this, seq, base,
                                 g = std::move(next)]() mutable {
    const auto start = std::chrono::steady_clock::now();
    try {
      // The naming is fixed for the manager's lifetime, so a topology over a
      // different node set can never become an epoch: refuse it before any
      // APSP or build work.
      if (g.node_count() != names_.node_count()) {
        throw std::invalid_argument(
            "EpochManager: node count changed: the next topology has " +
            std::to_string(g.node_count()) + " nodes, the naming " +
            std::to_string(names_.node_count()));
      }
      std::shared_ptr<const Epoch> epoch;
      bool noop = false;
      bool repaired = false;
      if (options_.enable_repair) {
        const ChurnDelta delta = diff_graphs(base->handle.graph(), g);
        if (delta.empty()) {
          // Identical topology: publishing a new epoch would only churn
          // caches and sessions.  Keep serving the same epoch object.
          noop = true;
        } else if (delta.fraction() <= options_.repair_max_fraction) {
          auto graph = std::make_shared<const Digraph>(std::move(g));
          epoch = repair_epoch(seq, *base, graph, delta, start);
          if (epoch != nullptr) {
            repaired = true;
          } else {
            repair_fallbacks_.fetch_add(1, std::memory_order_relaxed);
            epoch = build_epoch(seq, std::move(graph));
          }
        } else {
          repair_fallbacks_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (!noop) {
        if (epoch == nullptr) {
          epoch =
              build_epoch(seq, std::make_shared<const Digraph>(std::move(g)));
        }
        std::atomic_store_explicit(&current_, std::move(epoch),
                                   std::memory_order_release);
        epochs_built_.fetch_add(1, std::memory_order_relaxed);
        if (repaired) repairs_.fetch_add(1, std::memory_order_relaxed);
        const double ms = seconds_since(start) * 1000.0;
        last_rebuild_ms_.store(ms, std::memory_order_relaxed);
        if (repaired) last_repair_ms_.store(ms, std::memory_order_relaxed);
      }
      std::lock_guard<std::mutex> lock(error_mutex_);
      last_error_.clear();
    } catch (const std::exception& e) {
      // The current epoch keeps serving; the operator reads last_error().
      std::lock_guard<std::mutex> lock(error_mutex_);
      last_error_ = e.what();
    }
    rebuild_in_flight_.store(false, std::memory_order_release);
  });
  return true;
}

void EpochManager::wait_for_rebuild() {
  if (rebuild_thread_.joinable()) rebuild_thread_.join();
}

void EpochManager::rebuild_now(Digraph next) {
  if (!begin_rebuild(std::move(next))) {
    throw std::logic_error("EpochManager::rebuild_now: rebuild in flight");
  }
  wait_for_rebuild();
  const std::string err = last_error();
  if (!err.empty()) {
    throw std::runtime_error("EpochManager::rebuild_now: " + err);
  }
}

std::string EpochManager::last_error() const {
  std::lock_guard<std::mutex> lock(error_mutex_);
  return last_error_;
}

ServingResult serve_by_name(std::shared_ptr<const Epoch> epoch, NodeName src,
                            NodeName dst) {
  // `epoch` pins the whole (graph, scheme, names) triple: the query below
  // cannot observe a swap, and the epoch cannot be destroyed before it ends.
  if (epoch == nullptr) {
    return ServingResult::failure(ServingError::kEpochUnavailable,
                                  "no epoch available");
  }
  const NameAssignment& names = epoch->engine->names();
  const NodeName n = names.node_count();
  if (src < 0 || src >= n || dst < 0 || dst >= n) {
    return ServingResult::failure(
        ServingError::kInvalidName,
        "unknown name " + std::to_string(src < 0 || src >= n ? src : dst),
        epoch->seq);
  }
  ServingResult res = epoch->engine->serve(names.id_of(src), names.id_of(dst));
  res.epoch = epoch->seq;
  return res;
}

ServingResult EpochManager::roundtrip_by_name(NodeName src,
                                              NodeName dst) const {
  ServingResult res = serve_by_name(current(), src, dst);
  queries_.fetch_add(1, std::memory_order_relaxed);
  if (!res.ok()) failures_.fetch_add(1, std::memory_order_relaxed);
  return res;
}

EpochManager::Counters EpochManager::counters() const {
  Counters c;
  c.queries = queries_.load(std::memory_order_relaxed);
  c.failures = failures_.load(std::memory_order_relaxed);
  c.epochs_built = epochs_built_.load(std::memory_order_relaxed);
  c.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  c.shm_published = shm_published_count_.load(std::memory_order_relaxed);
  c.shm_publish_failures =
      shm_publish_failures_.load(std::memory_order_relaxed);
  c.repairs = repairs_.load(std::memory_order_relaxed);
  c.repair_fallbacks = repair_fallbacks_.load(std::memory_order_relaxed);
  c.last_rebuild_ms = last_rebuild_ms_.load(std::memory_order_relaxed);
  c.last_repair_ms = last_repair_ms_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace rtr
