// Epoch-based live-churn serving: answer queries continuously while the
// topology changes underneath.
//
// The paper's preprocessing is stop-the-world (Section 1.1.1: tables are
// built, then queried).  A serving system cannot stop: when links re-home
// or costs move, the next epoch's tables must be built WHILE the current
// epoch keeps answering.  The EpochManager does exactly that:
//
//   * One immutable Epoch -- the coherent (graph, scheme, names) triple plus
//     a bound QueryEngine and the epoch's roundtrip metric -- sits behind an
//     atomically-swapped std::shared_ptr.  A query pins its epoch with one
//     shared_ptr copy, so in-flight queries always complete against the
//     triple they started with, even if the epoch is swapped mid-flight
//     (the old epoch dies only when its last query drops the reference).
//   * begin_rebuild(next_topology) preprocesses the next epoch on a
//     background thread: APSP, then the scheme build -- warm-started from
//     the snapshot cache via SchemeRegistry::build_or_load, keyed by
//     (scheme, epoch) -- and finally one atomic store to publish.
//   * Names are FIXED at construction and survive every epoch (the TINN
//     model's whole point): name-keyed sessions never re-resolve addresses.
//     Cached snapshots are validated against the fixed names and the
//     epoch's exact topology (ports included) before they are trusted.
//
// Threading contract: queries (roundtrip_by_name, current(), counters())
// may come from any number of threads at any time.  The control surface
// (begin_rebuild / wait_for_rebuild / rebuild_now / destruction) must be
// driven from one thread at a time.
#ifndef RTR_SERVE_EPOCH_MANAGER_H
#define RTR_SERVE_EPOCH_MANAGER_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/names.h"
#include "graph/digraph.h"
#include "net/query_engine.h"
#include "net/scheme.h"
#include "rt/metric.h"

namespace rtr {

struct ChurnDelta;  // graph/churn_delta.h

/// One served epoch: an immutable, internally consistent snapshot of the
/// world.  Everything a query touches hangs off this object, so holding the
/// shared_ptr is all the coherence a reader needs.
struct Epoch {
  Epoch(std::uint64_t seq_, SchemeHandle handle_,
        std::shared_ptr<const RoundtripMetric> metric_,
        std::shared_ptr<const QueryEngine> engine_, bool from_cache,
        double build_seconds_)
      : seq(seq_),
        handle(std::move(handle_)),
        metric(std::move(metric_)),
        engine(std::move(engine_)),
        loaded_from_cache(from_cache),
        build_seconds(build_seconds_) {}

  std::uint64_t seq;                              ///< 0 for the initial epoch
  SchemeHandle handle;                            ///< graph + names + scheme
  std::shared_ptr<const RoundtripMetric> metric;  ///< this epoch's r(u,v)
  std::shared_ptr<const QueryEngine> engine;      ///< batch serving interface
  bool loaded_from_cache;   ///< warm-started from a snapshot (APSP still paid)
  double build_seconds;     ///< wall time to preprocess this epoch
};

/// One roundtrip keyed by TINN names against `epoch`, which the argument
/// pins for the whole query.  Never throws: a null epoch answers
/// kEpochUnavailable; an unknown name answers kInvalidName; everything else
/// is QueryEngine::serve's answer.  Every answer from a non-null epoch
/// carries that epoch's seq.
[[nodiscard]] ServingResult serve_by_name(std::shared_ptr<const Epoch> epoch,
                                          NodeName src, NodeName dst);

struct EpochManagerOptions {
  /// Directory for per-epoch snapshot warm-start files; empty disables the
  /// cache (every epoch builds from scratch).  An unwritable directory
  /// degrades to build-without-save -- it never takes down serving.
  std::string cache_dir;
  /// QueryEngine pool width per epoch; 0 = hardware concurrency.
  int query_threads = 0;
  /// Scheme randomness: epoch k builds with Rng(scheme_seed + k) -- except
  /// under enable_repair, where every epoch builds with Rng(scheme_seed) so
  /// the center draw is reproducible across epochs (the precondition for
  /// the incremental repair splice).
  std::uint64_t scheme_seed = 1;
  /// Metric backend per epoch: kAuto is sparse bounded searches, and
  /// only a cover scheme's build (a whole-level consumer) materialises the
  /// APSP matrix, up to kDenseMetricAutoThreshold nodes.
  MetricMode metric_mode = MetricMode::kAuto;
  /// Warm-start epochs by mmap'ing cached v2 arena snapshots in place
  /// (O(ms) at any n, payload CRCs unverified) instead of decoding them
  /// into owning buffers.  Unmappable cache files fall back to the owned
  /// load; older-format or damaged ones to a rebuild.  Requires cache_dir.
  bool mapped_snapshots = false;
  /// When non-empty (and the snapshot cache is enabled), every epoch's
  /// snapshot is also published to POSIX shared memory as
  /// "<shm_prefix>_epoch<seq>", so sibling processes on this host can
  /// attach zero-copy read-only serving views via map_snapshot_shm()
  /// without touching the filesystem.  Publish failures degrade to
  /// file-only distribution and count in Counters::shm_publish_failures;
  /// published objects are unlinked when the manager is destroyed.
  std::string shm_prefix;
  /// Incremental epoch repair (ROADMAP: O(affected region) rebuilds under
  /// churn).  When true, begin_rebuild diffs the incoming topology against
  /// the current epoch's graph: an empty delta is a no-op (the current
  /// epoch keeps serving, seq unchanged); a delta changing at most
  /// repair_max_fraction of the edges is routed through
  /// SchemeRegistry::repair() -- O(affected region) instead of a full
  /// preprocess, with automatic fallback to a full build when the scheme
  /// declines; anything larger rebuilds from scratch.  Repair preserves the
  /// rebuild contract exactly (identical routes, stats, and snapshot
  /// bytes), which is why it also PINS the scheme seed (see scheme_seed).
  /// Repaired epochs skip the snapshot cache and shm publication: they are
  /// transient by design, and a crash recovers from the last full build.
  bool enable_repair = false;
  /// Deltas changing more than this fraction of max(old, new) edges always
  /// rebuild from scratch (repair cost approaches a rebuild long before 1).
  double repair_max_fraction = 0.05;
};

class EpochManager {
 public:
  /// Builds epoch 0 synchronously (a manager is always ready to serve).
  /// `names` is fixed for the manager's lifetime.  Throws if the initial
  /// graph is not strongly connected or does not match the naming.
  EpochManager(std::string scheme_name, NameAssignment names, Digraph initial,
               EpochManagerOptions options = {},
               const SchemeRegistry& registry = SchemeRegistry::global());
  ~EpochManager();

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// The current epoch; never null.  Copy the shared_ptr once, then run any
  /// number of queries against it -- the triple cannot change under you.
  ///
  /// Implementation note: the free-function atomic shared_ptr API is used
  /// instead of std::atomic<std::shared_ptr> because libstdc++'s _Sp_atomic
  /// (GCC 12) releases its embedded spinlock with a relaxed fetch_sub on the
  /// reader side, which ThreadSanitizer correctly reports as a data race
  /// under the abstract memory model; the free functions go through a real
  /// mutex pool and keep the TSAN CI job meaningful for OUR swap logic.
  [[nodiscard]] std::shared_ptr<const Epoch> current() const {
    return std::atomic_load_explicit(&current_, std::memory_order_acquire);
  }

  [[nodiscard]] std::uint64_t epoch() const { return current()->seq; }
  [[nodiscard]] const std::string& scheme_name() const { return scheme_name_; }
  /// The fixed, topology-independent naming (identical in every epoch).
  [[nodiscard]] const NameAssignment& names() const { return names_; }

  /// Starts preprocessing `next` as epoch current+1 on a background thread;
  /// the swap happens automatically when the build completes.  Returns false
  /// (and does nothing) when a rebuild is already in flight.  Build failures
  /// (e.g. a disconnected graph) leave the current epoch serving and are
  /// reported by last_error().  A topology whose node count differs from the
  /// naming fails that way before any preprocessing.
  bool begin_rebuild(Digraph next);

  /// Blocks until the in-flight rebuild (if any) has published or failed.
  void wait_for_rebuild();

  [[nodiscard]] bool rebuild_in_flight() const {
    return rebuild_in_flight_.load(std::memory_order_acquire);
  }

  /// Synchronous convenience: begin_rebuild + wait_for_rebuild, throwing on
  /// build failure.
  void rebuild_now(Digraph next);

  /// Message of the most recent failed rebuild ("" when none).
  [[nodiscard]] std::string last_error() const;

  /// One roundtrip keyed by TINN names -- the session-facing API:
  /// serve_by_name on the current epoch, counted in queries and (when not
  /// ok) failures.
  [[nodiscard]] ServingResult roundtrip_by_name(NodeName src,
                                                NodeName dst) const;

  struct Counters {
    std::uint64_t queries = 0;       ///< roundtrip_by_name calls served
    std::uint64_t failures = 0;      ///< of those, not delivered
    std::uint64_t epochs_built = 0;  ///< successful rebuilds (excl. epoch 0)
    std::uint64_t cache_hits = 0;    ///< epochs warm-started from snapshots
    std::uint64_t shm_published = 0;  ///< epochs posted to shared memory
    /// Epochs whose shm publish failed (no shm on the host, a rejected
    /// object name, a snapshot that did not verify); they still serve, and
    /// siblings fall back to the snapshot file.
    std::uint64_t shm_publish_failures = 0;
    std::uint64_t repairs = 0;  ///< epochs published via incremental repair
    /// Non-empty deltas that went through a full build despite repair being
    /// enabled: over repair_max_fraction, declined by the scheme's hook, or
    /// a repair attempt that threw anything but std::logic_error (a
    /// logic_error is a bug: the rebuild fails and last_error() says why).
    std::uint64_t repair_fallbacks = 0;
    /// Wall ms of the most recent background epoch preprocess (repair or
    /// full build; 0 until the first rebuild completes).
    double last_rebuild_ms = 0.0;
    /// Wall ms of the most recent successful incremental repair (0 until
    /// one completes).
    double last_repair_ms = 0.0;
  };
  [[nodiscard]] Counters counters() const;

  /// Shared-memory object name epoch `seq` is (or would be) published
  /// under: "<shm_prefix>_epoch<seq>".  Sibling processes pass this to
  /// map_snapshot_shm().
  [[nodiscard]] std::string shm_name_for(std::uint64_t seq) const {
    return options_.shm_prefix + "_epoch" + std::to_string(seq);
  }

 private:
  [[nodiscard]] std::shared_ptr<const Epoch> build_epoch(
      std::uint64_t seq, std::shared_ptr<const Digraph> graph);

  /// Attempts an incremental repair of `base` onto `graph`; nullptr means
  /// the scheme declined or failed and the caller falls back to a full
  /// build.  `start` anchors the epoch's build_seconds so the published
  /// timing covers the whole background preprocess, diff included.
  [[nodiscard]] std::shared_ptr<const Epoch> repair_epoch(
      std::uint64_t seq, const Epoch& base,
      std::shared_ptr<const Digraph> graph, const ChurnDelta& delta,
      std::chrono::steady_clock::time_point start);

  /// Best-effort shm publication of the epoch's snapshot file; records the
  /// object name for unlinking at destruction, or counts the failure.
  /// Never throws.
  void publish_epoch_shm(std::uint64_t seq, const std::string& path);

  std::string scheme_name_;
  NameAssignment names_;
  EpochManagerOptions options_;
  const SchemeRegistry& registry_;

  std::shared_ptr<const Epoch> current_;  // accessed via std::atomic_* only
  std::thread rebuild_thread_;  // control-thread owned
  std::atomic<bool> rebuild_in_flight_{false};

  mutable std::mutex error_mutex_;
  std::string last_error_;

  std::mutex shm_mutex_;
  std::vector<std::string> shm_published_;  ///< unlinked at destruction

  mutable std::atomic<std::uint64_t> queries_{0};
  mutable std::atomic<std::uint64_t> failures_{0};
  std::atomic<std::uint64_t> epochs_built_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> shm_published_count_{0};
  std::atomic<std::uint64_t> shm_publish_failures_{0};
  std::atomic<std::uint64_t> repairs_{0};
  std::atomic<std::uint64_t> repair_fallbacks_{0};
  std::atomic<double> last_rebuild_ms_{0.0};
  std::atomic<double> last_repair_ms_{0.0};
};

}  // namespace rtr

#endif  // RTR_SERVE_EPOCH_MANAGER_H
