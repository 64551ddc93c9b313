// Registration of every in-repo roundtrip routing scheme with the global
// SchemeRegistry.  Adding a scheme (or an option variant) is one add() line
// plus, when the scheme supports snapshots, one set_arena_hooks() line
// pairing its save_arena()/from_arena().
#include <memory>
#include <utility>

#include "baseline/full_table.h"
#include "core/exstretch.h"
#include "core/hashed_stretch6.h"
#include "core/polystretch.h"
#include "core/stretch6.h"
#include "io/arena.h"
#include "net/scheme.h"
#include "net/scheme_adapter.h"
#include "rtz/rtz3_scheme.h"

namespace rtr {
namespace {

/// The 64-bit self-chosen-name variant needs a bridge: the unified interface
/// addresses packets by TINN NodeName, while HashedStretch6Scheme's headers
/// carry the node's self-chosen 64-bit name.  The adapter owns the chosen
/// names it drew at build time and translates at injection only (forwarding
/// runs on the chosen names, as the paper's reduction prescribes).
class Hashed64Adapter final : public Scheme {
 public:
  explicit Hashed64Adapter(const BuildContext& ctx)
      : names_(ctx.names), graph_(ctx.graph), metric_(ctx.metric) {
    if (graph_ == nullptr || metric_ == nullptr || ctx.rng == nullptr) {
      throw std::invalid_argument("hashed64: incomplete BuildContext");
    }
    chosen_ = ChosenNames::random(graph_->node_count(), *ctx.rng);
    HashedStretch6Scheme::Options opts;
    opts.threads = ctx.option_int("threads", opts.threads);
    impl_ = std::make_shared<const HashedStretch6Scheme>(
        *graph_, *metric_, chosen_, *ctx.rng, opts);
  }

  /// Snapshot path: the metric is build-time only, so a loaded adapter
  /// carries none; the chosen names come out of the scheme's meta section
  /// (the scheme saves them once for both of us).
  Hashed64Adapter(const ArenaView& a, const SnapshotLoadContext& ctx)
      : names_(ctx.names),
        graph_(require_graph(ctx.graph)),
        impl_(std::make_shared<const HashedStretch6Scheme>(
            HashedStretch6Scheme::from_arena(a, "scheme/", *graph_))) {
    chosen_ = impl_->chosen();
  }

  void save_arena(ArenaWriter& w) const { impl_->save_arena(w, "scheme/"); }

  [[nodiscard]] std::string name() const override { return impl_->name(); }

  [[nodiscard]] TableStats table_stats() const override {
    return impl_->table_stats();
  }

  /// The template walk over the concrete scheme, as TemplateSchemeAdapter
  /// runs it, with the destination translated to its chosen name once, at
  /// injection.
  [[nodiscard]] RouteResult simulate(const Digraph& g, NodeId src, NodeId dst,
                                     NodeName dst_name) const override {
    return simulate_roundtrip(g, *impl_, src, dst,
                              chosen_.of_id(names_.id_of(dst_name)));
  }

  [[nodiscard]] double stretch_bound() const override {
    return impl_->stretch_bound();
  }

  void audit(AuditReport& report) const override { impl_->audit(report); }

 private:
  static std::shared_ptr<const Digraph> require_graph(
      std::shared_ptr<const Digraph> g) {
    if (g == nullptr) {
      throw std::invalid_argument("hashed64: snapshot context without graph");
    }
    return g;
  }

  NameAssignment names_;
  // Retained: the scheme references the graph/metric without owning them.
  std::shared_ptr<const Digraph> graph_;
  std::shared_ptr<const RoundtripMetric> metric_;
  ChosenNames chosen_;
  std::shared_ptr<const HashedStretch6Scheme> impl_;
};

void check_complete(const BuildContext& ctx, const char* scheme) {
  if (ctx.graph == nullptr || ctx.metric == nullptr || ctx.rng == nullptr) {
    throw std::invalid_argument(std::string(scheme) +
                                ": incomplete BuildContext");
  }
}

/// Schemes reference the context's graph/metric without owning them; the
/// adapter retains both so a registry-built scheme outlives its context.
std::vector<std::shared_ptr<const void>> context_deps(const BuildContext& ctx) {
  return {ctx.graph, ctx.metric};
}

template <TemplatedScheme S, typename... Args>
std::shared_ptr<const Scheme> build_adapted(const BuildContext& ctx,
                                            Args&&... args) {
  return adapt_scheme(std::make_shared<const S>(std::forward<Args>(args)...),
                      context_deps(ctx));
}

/// Snapshot saver for adapter-wrapped schemes: unwraps the adapter the
/// factory above produced and writes the concrete scheme's tables under
/// "scheme/" (a substrate a TINN scheme embeds nests one level deeper,
/// e.g. "scheme/s/").
template <TemplatedScheme S>
void save_adapted(const Scheme& scheme, ArenaWriter& w) {
  const auto* adapter = dynamic_cast<const TemplateSchemeAdapter<S>*>(&scheme);
  if (adapter == nullptr) {
    throw std::invalid_argument(
        "snapshot save: scheme instance does not match this registry entry");
  }
  adapter->impl().save_arena(w, "scheme/");
}

const Digraph& require_snapshot_graph(const SnapshotLoadContext& ctx) {
  if (ctx.graph == nullptr) {
    throw std::invalid_argument("snapshot load: context without graph");
  }
  return *ctx.graph;
}

}  // namespace

void register_builtin_schemes(SchemeRegistry& registry) {
  registry.add("stretch6", "Section 2 stretch-6 TINN scheme (O~(sqrt n) tables)",
               [](const BuildContext& ctx) -> std::shared_ptr<const Scheme> {
                 check_complete(ctx, "stretch6");
                 Stretch6Scheme::Options opts;
                 opts.threads = ctx.option_int("threads", opts.threads);
                 return build_adapted<Stretch6Scheme>(
                     ctx, *ctx.graph, *ctx.metric, ctx.names, *ctx.rng, opts);
               });
  registry.add("stretch6-detour",
               "Section 2.2 variant returning to the source after the "
               "dictionary lookup",
               [](const BuildContext& ctx) -> std::shared_ptr<const Scheme> {
                 check_complete(ctx, "stretch6-detour");
                 Stretch6Scheme::Options opts;
                 opts.detour_via_source = true;
                 opts.threads = ctx.option_int("threads", opts.threads);
                 return build_adapted<Stretch6Scheme>(
                     ctx, *ctx.graph, *ctx.metric, ctx.names, *ctx.rng, opts);
               });
  registry.add("exstretch",
               "Section 3 exponential stretch/space tradeoff (option k, "
               "default 3)",
               [](const BuildContext& ctx) -> std::shared_ptr<const Scheme> {
                 check_complete(ctx, "exstretch");
                 ExStretchScheme::Options opts;
                 opts.k = ctx.option_int("k", opts.k);
                 opts.threads = ctx.option_int("threads", opts.threads);
                 return build_adapted<ExStretchScheme>(
                     ctx, *ctx.graph, *ctx.metric, ctx.names, *ctx.rng, opts);
               });
  registry.add("polystretch",
               "Section 4 polynomial stretch/space tradeoff (option k, "
               "default 3)",
               [](const BuildContext& ctx) -> std::shared_ptr<const Scheme> {
                 check_complete(ctx, "polystretch");
                 PolyStretchScheme::Options opts;
                 opts.k = ctx.option_int("k", opts.k);
                 opts.threads = ctx.option_int("threads", opts.threads);
                 return build_adapted<PolyStretchScheme>(
                     ctx, *ctx.graph, *ctx.metric, ctx.names, opts);
               });
  registry.add("rtz3",
               "Lemma 2 name-dependent stretch-3 substrate (option "
               "greedy_centers)",
               [](const BuildContext& ctx) -> std::shared_ptr<const Scheme> {
                 check_complete(ctx, "rtz3");
                 Rtz3Scheme::Options opts;
                 opts.greedy_centers =
                     ctx.option_bool("greedy_centers", opts.greedy_centers);
                 opts.threads = ctx.option_int("threads", opts.threads);
                 return build_adapted<Rtz3Scheme>(
                     ctx, *ctx.graph, *ctx.metric, ctx.names, *ctx.rng, opts);
               });
  registry.add("fulltable",
               "Classical full next-hop tables, stretch 1, Theta(n log n) "
               "bits/node",
               [](const BuildContext& ctx) -> std::shared_ptr<const Scheme> {
                 if (ctx.graph == nullptr) {
                   throw std::invalid_argument("fulltable: incomplete BuildContext");
                 }
                 return adapt_scheme(std::make_shared<const FullTableScheme>(
                                         *ctx.graph, ctx.names),
                                     {ctx.graph});
               });
  registry.add("hashed64",
               "Section 1.1.2 reduction: self-chosen 64-bit names hashed onto "
               "buckets",
               [](const BuildContext& ctx) -> std::shared_ptr<const Scheme> {
                 return std::make_shared<const Hashed64Adapter>(ctx);
               });

  // --- snapshot hooks: save_arena()/from_arena() pairs per entry -----------
  // The stretch6 detour flag travels inside the scheme meta, so both
  // variants share one hook pair.
  const auto stretch6_loader =
      [](const ArenaView& a,
         const SnapshotLoadContext& ctx) -> std::shared_ptr<const Scheme> {
    return adapt_scheme(
        std::make_shared<const Stretch6Scheme>(Stretch6Scheme::from_arena(
            a, "scheme/", require_snapshot_graph(ctx), ctx.names)),
        {ctx.graph});
  };
  registry.set_arena_hooks("stretch6", &save_adapted<Stretch6Scheme>,
                           stretch6_loader);
  registry.set_arena_hooks("stretch6-detour", &save_adapted<Stretch6Scheme>,
                           stretch6_loader);
  registry.set_arena_hooks(
      "rtz3", &save_adapted<Rtz3Scheme>,
      [](const ArenaView& a,
         const SnapshotLoadContext& ctx) -> std::shared_ptr<const Scheme> {
        return adapt_scheme(
            std::make_shared<const Rtz3Scheme>(Rtz3Scheme::from_arena(
                a, "scheme/", require_snapshot_graph(ctx), ctx.names)),
            {ctx.graph});
      });
  registry.set_arena_hooks(
      "exstretch", &save_adapted<ExStretchScheme>,
      [](const ArenaView& a,
         const SnapshotLoadContext& ctx) -> std::shared_ptr<const Scheme> {
        return adapt_scheme(std::make_shared<const ExStretchScheme>(
            ExStretchScheme::from_arena(a, "scheme/", ctx.names)));
      });
  registry.set_arena_hooks(
      "polystretch", &save_adapted<PolyStretchScheme>,
      [](const ArenaView& a,
         const SnapshotLoadContext& ctx) -> std::shared_ptr<const Scheme> {
        return adapt_scheme(std::make_shared<const PolyStretchScheme>(
            PolyStretchScheme::from_arena(a, "scheme/", ctx.names)));
      });
  registry.set_arena_hooks(
      "fulltable", &save_adapted<FullTableScheme>,
      [](const ArenaView& a,
         const SnapshotLoadContext& ctx) -> std::shared_ptr<const Scheme> {
        return adapt_scheme(std::make_shared<const FullTableScheme>(
            FullTableScheme::from_arena(a, "scheme/", ctx.names)));
      });
  registry.set_arena_hooks(
      "hashed64",
      [](const Scheme& scheme, ArenaWriter& w) {
        const auto* adapter = dynamic_cast<const Hashed64Adapter*>(&scheme);
        if (adapter == nullptr) {
          throw std::invalid_argument(
              "snapshot save: scheme instance does not match this registry "
              "entry");
        }
        adapter->save_arena(w);
      },
      [](const ArenaView& a,
         const SnapshotLoadContext& ctx) -> std::shared_ptr<const Scheme> {
        return std::make_shared<const Hashed64Adapter>(a, ctx);
      });

  // --- incremental repair hooks (ROADMAP: epoch repair under churn) ---------
  // Only schemes with a certified-equivalence repair path register one;
  // everything else falls back to a full rebuild.  Each hook unwraps the
  // adapter exactly like the snapshot savers and rewraps the repaired
  // implementation with the new context's retained deps.
  registry.set_repair_hook(
      "rtz3",
      [](const Scheme& old_scheme, const Digraph& old_graph,
         const BuildContext& ctx,
         const ChurnDelta& delta) -> std::shared_ptr<const Scheme> {
        const auto* adapter =
            dynamic_cast<const TemplateSchemeAdapter<Rtz3Scheme>*>(&old_scheme);
        if (adapter == nullptr) return nullptr;
        check_complete(ctx, "rtz3");
        Rtz3Scheme::Options opts;
        opts.greedy_centers =
            ctx.option_bool("greedy_centers", opts.greedy_centers);
        opts.threads = ctx.option_int("threads", opts.threads);
        auto repaired =
            Rtz3Scheme::repair(adapter->impl(), old_graph, *ctx.graph,
                               *ctx.metric, ctx.names, *ctx.rng, delta, opts);
        if (repaired == nullptr) return nullptr;
        return adapt_scheme(std::move(repaired), context_deps(ctx));
      });
  registry.set_repair_hook(
      "fulltable",
      [](const Scheme& old_scheme, const Digraph& old_graph,
         const BuildContext& ctx,
         const ChurnDelta& delta) -> std::shared_ptr<const Scheme> {
        const auto* adapter =
            dynamic_cast<const TemplateSchemeAdapter<FullTableScheme>*>(
                &old_scheme);
        if (adapter == nullptr || ctx.graph == nullptr) return nullptr;
        auto repaired = FullTableScheme::repair(adapter->impl(), old_graph,
                                                *ctx.graph, ctx.names, delta);
        if (repaired == nullptr) return nullptr;
        return adapt_scheme(std::move(repaired), {ctx.graph});
      });
}

}  // namespace rtr
