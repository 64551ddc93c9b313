// The unified runtime API for roundtrip routing schemes.
//
// The paper's execution model (Section 1.1.1) is one contract: per-node
// tables built at preprocessing time plus a local forwarding function
// F(table(x), header(P)).  net/simulator.h expresses that contract once, as
// the duck-typed template walk over a scheme's concrete header.  This header
// puts every scheme in the repo behind one stable ABI the serving layer can
// batch and parallelize against:
//
//   * Scheme          -- the abstract interface: name / simulate /
//                        table_stats / stretch_bound / audit.  simulate runs
//                        a whole roundtrip through the template walk over the
//                        concrete scheme, so serving pays one virtual
//                        dispatch per query and none per hop.
//   * BuildContext    -- everything a factory needs to preprocess a graph:
//                        {graph, metric, names, rng, options}.
//   * SchemeRegistry  -- string name -> factory.  All in-repo schemes are
//                        pre-registered in the global() registry; adding a
//                        new scheme (or variant) is one add() line.
//   * SchemeHandle    -- a built scheme bound to its graph (shared
//                        ownership, so handles may outlive their builder).
//
// net/scheme_adapter.h wraps any concrete template scheme into a Scheme.
#ifndef RTR_NET_SCHEME_H
#define RTR_NET_SCHEME_H

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/names.h"
#include "graph/digraph.h"
#include "net/simulator.h"
#include "net/table_stats.h"
#include "rt/metric.h"
#include "util/rng.h"
#include "util/types.h"

namespace rtr {

class AuditReport;   // audit/audit.h
class ArenaWriter;   // io/arena.h
class ArenaView;
struct ChurnDelta;   // graph/churn_delta.h

/// No proven worst-case stretch guarantee.
[[nodiscard]] double unbounded_stretch();

/// The abstract roundtrip routing scheme: Section 1.1.1's contract behind
/// one virtual call per roundtrip.  Tables are immutable after construction
/// and every method must be safe to call concurrently from many threads (the
/// QueryEngine pool does exactly that); per-packet state lives in the
/// concrete header on the walking thread's stack, never in the scheme.
class Scheme {
 public:
  virtual ~Scheme() = default;

  /// Human-readable scheme identity, e.g. "stretch6(TINN)".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Runs a whole src -> dst -> src walk against `g` (the graph the tables
  /// were built for): net/simulator.h's simulate_roundtrip over the concrete
  /// scheme.  The packet carries `dst_name`, the destination's TINN name; a
  /// scheme addressed by other names (hashed64) translates it once, at
  /// injection.  Throws std::logic_error on a scheme bug (an unknown port,
  /// or a dishonest size hint in builds that verify hints).  Paths are not
  /// recorded; a caller that wants them walks the concrete scheme with
  /// SimOptions::record_paths.
  [[nodiscard]] virtual RouteResult simulate(const Digraph& g, NodeId src,
                                             NodeId dst,
                                             NodeName dst_name) const = 0;

  [[nodiscard]] virtual TableStats table_stats() const = 0;

  /// Worst-case roundtrip stretch guarantee; unbounded_stretch() if none.
  [[nodiscard]] virtual double stretch_bound() const {
    return unbounded_stretch();
  }

  /// Auditable: deep-checks the scheme's own tables (dictionaries, trees,
  /// balls) against the paper's structural invariants, recording one typed
  /// entry per invariant.  The base implementation records a single passing
  /// placeholder entry so a scheme without a deep audit is visible in the
  /// report rather than silently skipped; every in-repo scheme overrides it.
  virtual void audit(AuditReport& report) const;
};

/// Everything a scheme factory may consult at preprocessing time.
struct BuildContext {
  std::shared_ptr<const Digraph> graph;
  std::shared_ptr<const RoundtripMetric> metric;
  NameAssignment names = NameAssignment::identity(0);
  std::shared_ptr<Rng> rng;  // preprocessing-time randomness
  std::map<std::string, std::string> options;  // scheme-specific knobs

  /// Canonical experiment setup: assigns adversarial ports on the builder
  /// with Rng(seed), freezes it into the immutable CSR graph, assigns names,
  /// computes the roundtrip metric, and leaves `rng` seeded for the scheme
  /// build.  Throws if the graph is not strongly connected.
  static BuildContext for_graph(GraphBuilder g, std::uint64_t seed,
                                std::map<std::string, std::string> options = {});

  /// Wraps pre-built pieces (shared ownership; no mutation).
  static BuildContext wrap(std::shared_ptr<const Digraph> graph,
                           std::shared_ptr<const RoundtripMetric> metric,
                           NameAssignment names, std::uint64_t scheme_seed,
                           std::map<std::string, std::string> options = {});

  [[nodiscard]] int option_int(const std::string& key, int fallback) const;
  [[nodiscard]] bool option_bool(const std::string& key, bool fallback) const;
  [[nodiscard]] double option_double(const std::string& key,
                                     double fallback) const;
};

/// Pieces a snapshot loader has already materialized (the "graph/" and
/// "names/" sections) by the time a scheme's loader hook runs.
struct SnapshotLoadContext {
  std::shared_ptr<const Digraph> graph;
  NameAssignment names = NameAssignment::identity(0);
};

class SchemeHandle;

/// Maps scheme names to factories.  The global() registry comes with every
/// in-repo scheme pre-registered: stretch6, stretch6-detour, exstretch,
/// polystretch, rtz3, fulltable, hashed64.
///
/// Each entry may additionally carry *snapshot hooks*: an arena saver that
/// writes a built scheme's tables as flat arena sections and an arena
/// loader that rebuilds the scheme as views over those sections, without
/// touching the graph again.  All built-ins register hooks; io/snapshot.h
/// drives them.
class SchemeRegistry {
 public:
  using Factory =
      std::function<std::shared_ptr<const Scheme>(const BuildContext&)>;
  /// Writes a built scheme's tables as flat arena sections; throws
  /// std::invalid_argument if handed a scheme of a different concrete type.
  using ArenaSaver = std::function<void(const Scheme&, ArenaWriter&)>;
  /// Reconstructs a scheme as zero-copy views over a v2 arena.
  using ArenaLoader = std::function<std::shared_ptr<const Scheme>(
      const ArenaView&, const SnapshotLoadContext&)>;
  /// Incrementally repairs a scheme built for `old_graph` onto ctx's graph
  /// (the post-churn epoch), recomputing only churn-affected substructures.
  /// The contract is strict: the result must be indistinguishable from
  /// build(name, ctx) -- identical routes, stats, and snapshot bytes.  A
  /// hook returns nullptr to decline (delta too invasive, equivalence not
  /// certifiable); the caller then falls back to a full build.
  using Repairer = std::function<std::shared_ptr<const Scheme>(
      const Scheme& old_scheme, const Digraph& old_graph,
      const BuildContext& ctx, const ChurnDelta& delta)>;

  /// Registers a factory; throws std::invalid_argument on a duplicate name.
  void add(std::string name, std::string summary, Factory factory);

  /// Attaches the snapshot hooks; throws for unknown names.  A scheme
  /// without them cannot be saved or loaded (build() still works).
  void set_arena_hooks(const std::string& name, ArenaSaver saver,
                       ArenaLoader loader);

  /// Attaches the incremental repair hook; throws for unknown names.
  void set_repair_hook(const std::string& name, Repairer repairer);

  [[nodiscard]] bool contains(const std::string& name) const;
  /// True when the scheme registered snapshot hooks.
  [[nodiscard]] bool snapshot_supported(const std::string& name) const;
  /// True when the scheme registered an incremental repair hook.
  [[nodiscard]] bool repair_supported(const std::string& name) const;

  /// Builds the named scheme; throws std::invalid_argument for unknown names
  /// (the message lists what is registered).
  [[nodiscard]] std::shared_ptr<const Scheme> build(
      const std::string& name, const BuildContext& ctx) const;

  /// Attempts incremental repair of `old_scheme` (built for `old_graph`)
  /// onto ctx's graph; throws for unknown names.  Returns nullptr when the
  /// scheme has no repair hook or the hook declines -- the caller falls back
  /// to build().  A successful repair passes the same RTR_AUDIT_ON_BUILD
  /// deep audit a registry build does.
  [[nodiscard]] std::shared_ptr<const Scheme> repair(
      const std::string& name, const Scheme& old_scheme,
      const Digraph& old_graph, const BuildContext& ctx,
      const ChurnDelta& delta) const;

  /// The snapshot hooks of a name; throw std::invalid_argument when the name
  /// is unknown or registered without hooks.
  [[nodiscard]] const ArenaSaver& arena_saver(const std::string& name) const;
  [[nodiscard]] const ArenaLoader& arena_loader(const std::string& name) const;

  /// How build_or_load materializes a cache hit.  kOwned reads the file
  /// into an owned buffer with full section-CRC verification.  kMapped
  /// first tries to mmap(2) the arena in place -- the O(ms)-at-any-n warm
  /// start the epoch server uses; payload CRCs are NOT verified on this
  /// path -- and falls back to kOwned when the mapping fails.
  enum class SnapshotLoadMode { kOwned, kMapped };

  /// The serve-path entry point: if `path` holds a valid snapshot of `name`,
  /// load it and skip construction entirely (make_ctx is never called -- no
  /// APSP, no scheme build); otherwise build from make_ctx(), save the
  /// snapshot to `path` for the next process, and return the built handle.
  /// A stale, corrupt, or older-format cache file is treated as a miss and
  /// overwritten.
  [[nodiscard]] SchemeHandle build_or_load(
      const std::string& name, const std::function<BuildContext()>& make_ctx,
      const std::string& path,
      SnapshotLoadMode mode = SnapshotLoadMode::kOwned) const;

  /// Convenience overload for callers that already paid for a BuildContext.
  [[nodiscard]] SchemeHandle build_or_load(
      const std::string& name, const BuildContext& ctx,
      const std::string& path,
      SnapshotLoadMode mode = SnapshotLoadMode::kOwned) const;

  /// Registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] const std::string& summary(const std::string& name) const;

  /// The process-wide registry with built-ins pre-registered.
  static SchemeRegistry& global();

 private:
  struct Entry {
    std::string summary;
    Factory factory;
    ArenaSaver arena_saver;    // empty when the scheme has no snapshot support
    ArenaLoader arena_loader;  // empty when the scheme has no snapshot support
    Repairer repairer;         // empty -> epochs always rebuild from scratch
  };
  [[nodiscard]] const Entry& entry_or_throw(const std::string& name,
                                            const char* what) const;
  std::map<std::string, Entry> entries_;
};

/// Registers the repo's built-in schemes; called once by global(), exposed
/// for tests that want a private registry with the same contents.
void register_builtin_schemes(SchemeRegistry& registry);

/// A built scheme bound to its graph and naming.  Holds shared ownership of
/// both, so a handle may safely outlive the scope that built it.
class SchemeHandle {
 public:
  SchemeHandle(std::shared_ptr<const Digraph> graph, NameAssignment names,
               std::shared_ptr<const Scheme> scheme);

  [[nodiscard]] std::string name() const { return scheme_->name(); }
  /// Computed on first call and cached (shared across handle copies): the
  /// stats walk is O(n * tables), which would otherwise dominate a mapped
  /// O(ms) snapshot load if paid eagerly at construction.
  [[nodiscard]] const TableStats& table_stats() const;
  [[nodiscard]] const Scheme& scheme() const { return *scheme_; }
  [[nodiscard]] const std::shared_ptr<const Scheme>& scheme_ptr() const {
    return scheme_;
  }
  [[nodiscard]] const Digraph& graph() const { return *graph_; }
  [[nodiscard]] const std::shared_ptr<const Digraph>& graph_ptr() const {
    return graph_;
  }
  [[nodiscard]] const NameAssignment& names() const { return names_; }

  /// One roundtrip keyed by internal ids through Scheme::simulate; the
  /// destination name is looked up from the bound NameAssignment.
  [[nodiscard]] RouteResult roundtrip(NodeId src, NodeId dst) const;

 private:
  struct LazyStats {
    std::once_flag once;
    TableStats stats;
  };

  std::shared_ptr<const Digraph> graph_;
  NameAssignment names_;
  std::shared_ptr<const Scheme> scheme_;
  std::shared_ptr<LazyStats> stats_;
};

}  // namespace rtr

#endif  // RTR_NET_SCHEME_H
