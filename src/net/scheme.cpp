#include "net/scheme.h"

#include <limits>
#include <sstream>

#include "audit/audit.h"
#include "graph/scc.h"
#include "io/snapshot.h"

namespace rtr {

double unbounded_stretch() { return std::numeric_limits<double>::infinity(); }

void Scheme::audit(AuditReport& report) const {
  auto scope = report.scope("scheme");
  report.check("deep-audit-implemented", true,
               name() + " has no scheme-specific deep audit (base Scheme)");
}

#ifdef RTR_AUDIT_ON_BUILD
namespace {

// Debug-build hook: every registry build (and snapshot load on the
// build_or_load path) is audited, so the whole test suite exercises the
// invariant catalogue for free.  A violation is a programming error, not an
// input error, hence std::logic_error.
void throw_if_audit_fails(const AuditReport& report, const std::string& what) {
  if (report.ok()) return;
  throw std::logic_error("RTR_AUDIT_ON_BUILD: " + what +
                         " failed its invariant audit\n" + report.summary());
}

void audit_built_scheme(const BuildContext& ctx, const Scheme& scheme) {
  AuditReport report;
  ctx.graph->audit(report);
  {
    auto s = report.scope("names");
    ctx.names.audit(report);
  }
  scheme.audit(report);
  throw_if_audit_fails(report, "scheme '" + scheme.name() + "'");
}

}  // namespace
#endif  // RTR_AUDIT_ON_BUILD

// ------------------------------------------------------------ BuildContext --

BuildContext BuildContext::for_graph(GraphBuilder g, std::uint64_t seed,
                                     std::map<std::string, std::string> options) {
  BuildContext ctx;
  ctx.options = std::move(options);
  ctx.rng = std::make_shared<Rng>(seed);
  g.assign_adversarial_ports(*ctx.rng);
  Digraph frozen = g.freeze();
  if (!is_strongly_connected(frozen)) {
    throw std::runtime_error("BuildContext::for_graph: graph is not strongly connected");
  }
  ctx.names = NameAssignment::random(frozen.node_count(), *ctx.rng);
  auto graph = std::make_shared<Digraph>(std::move(frozen));
  // The "metric" option picks the backend: dense APSP matrix or bounded-
  // Dijkstra sparse rows ("auto" switches on node count); "threads" feeds
  // the dense APSP fan-out and the schemes' parallel build loops.
  const auto mode_it = ctx.options.find("metric");
  const MetricMode mode = mode_it == ctx.options.end()
                              ? MetricMode::kAuto
                              : parse_metric_mode(mode_it->second);
  ctx.metric =
      make_roundtrip_metric(graph, mode, ctx.option_int("threads", 0));
  ctx.graph = std::move(graph);
  return ctx;
}

BuildContext BuildContext::wrap(std::shared_ptr<const Digraph> graph,
                                std::shared_ptr<const RoundtripMetric> metric,
                                NameAssignment names, std::uint64_t scheme_seed,
                                std::map<std::string, std::string> options) {
  BuildContext ctx;
  ctx.graph = std::move(graph);
  ctx.metric = std::move(metric);
  ctx.names = std::move(names);
  ctx.rng = std::make_shared<Rng>(scheme_seed);
  ctx.options = std::move(options);
  return ctx;
}

int BuildContext::option_int(const std::string& key, int fallback) const {
  auto it = options.find(key);
  return it == options.end() ? fallback : std::stoi(it->second);
}

bool BuildContext::option_bool(const std::string& key, bool fallback) const {
  auto it = options.find(key);
  if (it == options.end()) return fallback;
  return it->second == "1" || it->second == "true" || it->second == "yes";
}

double BuildContext::option_double(const std::string& key,
                                   double fallback) const {
  auto it = options.find(key);
  return it == options.end() ? fallback : std::stod(it->second);
}

// ---------------------------------------------------------- SchemeRegistry --

void SchemeRegistry::add(std::string name, std::string summary,
                         Factory factory) {
  auto [it, inserted] = entries_.emplace(
      std::move(name),
      Entry{std::move(summary), std::move(factory), {}, {}, {}});
  if (!inserted) {
    throw std::invalid_argument("SchemeRegistry::add: duplicate scheme name '" +
                                it->first + "'");
  }
}

void SchemeRegistry::set_arena_hooks(const std::string& name, ArenaSaver saver,
                                     ArenaLoader loader) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw std::invalid_argument(
        "SchemeRegistry::set_arena_hooks: unknown scheme '" + name + "'");
  }
  if (saver == nullptr || loader == nullptr) {
    throw std::invalid_argument(
        "SchemeRegistry::set_arena_hooks: null hook for '" + name + "'");
  }
  it->second.arena_saver = std::move(saver);
  it->second.arena_loader = std::move(loader);
}

void SchemeRegistry::set_repair_hook(const std::string& name,
                                     Repairer repairer) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw std::invalid_argument(
        "SchemeRegistry::set_repair_hook: unknown scheme '" + name + "'");
  }
  if (repairer == nullptr) {
    throw std::invalid_argument(
        "SchemeRegistry::set_repair_hook: null hook for '" + name + "'");
  }
  it->second.repairer = std::move(repairer);
}

bool SchemeRegistry::contains(const std::string& name) const {
  return entries_.contains(name);
}

bool SchemeRegistry::snapshot_supported(const std::string& name) const {
  auto it = entries_.find(name);
  return it != entries_.end() && it->second.arena_saver != nullptr;
}

bool SchemeRegistry::repair_supported(const std::string& name) const {
  auto it = entries_.find(name);
  return it != entries_.end() && it->second.repairer != nullptr;
}

const SchemeRegistry::Entry& SchemeRegistry::entry_or_throw(
    const std::string& name, const char* what) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    std::ostringstream msg;
    msg << "SchemeRegistry::" << what << ": unknown scheme '" << name
        << "' (registered:";
    for (const auto& [known, entry] : entries_) msg << ' ' << known;
    msg << ')';
    throw std::invalid_argument(msg.str());
  }
  return it->second;
}

std::shared_ptr<const Scheme> SchemeRegistry::build(
    const std::string& name, const BuildContext& ctx) const {
  std::shared_ptr<const Scheme> scheme = entry_or_throw(name, "build").factory(ctx);
#ifdef RTR_AUDIT_ON_BUILD
  audit_built_scheme(ctx, *scheme);
#endif
  return scheme;
}

std::shared_ptr<const Scheme> SchemeRegistry::repair(
    const std::string& name, const Scheme& old_scheme,
    const Digraph& old_graph, const BuildContext& ctx,
    const ChurnDelta& delta) const {
  const Entry& e = entry_or_throw(name, "repair");
  if (e.repairer == nullptr) return nullptr;
  std::shared_ptr<const Scheme> scheme =
      e.repairer(old_scheme, old_graph, ctx, delta);
#ifdef RTR_AUDIT_ON_BUILD
  if (scheme != nullptr) audit_built_scheme(ctx, *scheme);
#endif
  return scheme;
}

const SchemeRegistry::ArenaSaver& SchemeRegistry::arena_saver(
    const std::string& name) const {
  const Entry& e = entry_or_throw(name, "arena_saver");
  if (e.arena_saver == nullptr) {
    throw std::invalid_argument("SchemeRegistry: scheme '" + name +
                                "' has no snapshot hooks");
  }
  return e.arena_saver;
}

const SchemeRegistry::ArenaLoader& SchemeRegistry::arena_loader(
    const std::string& name) const {
  const Entry& e = entry_or_throw(name, "arena_loader");
  if (e.arena_loader == nullptr) {
    throw std::invalid_argument("SchemeRegistry: scheme '" + name +
                                "' has no snapshot hooks");
  }
  return e.arena_loader;
}

SchemeHandle SchemeRegistry::build_or_load(
    const std::string& name, const std::function<BuildContext()>& make_ctx,
    const std::string& path, SnapshotLoadMode mode) const {
  // Fail fast -- before any build cost -- on unknown names AND on entries
  // registered without snapshot hooks (neither the load nor the save leg
  // could ever work for those).
  const Entry& entry = entry_or_throw(name, "build_or_load");
  if (entry.arena_saver == nullptr) {
    throw std::invalid_argument("SchemeRegistry::build_or_load: scheme '" +
                                name +
                                "' has no snapshot hooks; use build() or "
                                "register hooks via set_arena_hooks()");
  }
  if (mode == SnapshotLoadMode::kMapped) {
    try {
      SchemeHandle mapped = map_snapshot(path, name, *this);
#ifdef RTR_AUDIT_ON_BUILD
      AuditReport report;
      audit_handle(mapped, report);
      throw_if_audit_fails(report, "mapped snapshot '" + path + "'");
#endif
      return mapped;
    } catch (const SnapshotError&) {
      // Unusable mapping: the owned path below still applies (and, failing
      // that too, the rebuild leg).
    }
  }
  try {
    SchemeHandle loaded = load_snapshot(path, name, *this);
#ifdef RTR_AUDIT_ON_BUILD
    AuditReport report;
    audit_handle(loaded, report);
    throw_if_audit_fails(report, "snapshot '" + path + "'");
#endif
    return loaded;
  } catch (const SnapshotError&) {
    // Absent, stale, corrupt, older-format, or mismatched cache: build and
    // re-save below.
  }
  BuildContext ctx = make_ctx();
  SchemeHandle handle(ctx.graph, ctx.names, entry.factory(ctx));
  try {
    save_snapshot(path, name, handle, *this);
  } catch (const SnapshotError& e) {
    // A full disk or read-only cache directory must not take down serving:
    // the freshly built handle is usable regardless; the next process just
    // pays the build again.
    warn_snapshot_cache_save_failed_once("SchemeRegistry::build_or_load", e);
  }
  return handle;
}

SchemeHandle SchemeRegistry::build_or_load(const std::string& name,
                                           const BuildContext& ctx,
                                           const std::string& path,
                                           SnapshotLoadMode mode) const {
  return build_or_load(
      name, [&ctx]() -> BuildContext { return ctx; }, path, mode);
}

std::vector<std::string> SchemeRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;  // std::map iteration is already sorted
}

const std::string& SchemeRegistry::summary(const std::string& name) const {
  return entry_or_throw(name, "summary").summary;
}

SchemeRegistry& SchemeRegistry::global() {
  static SchemeRegistry* registry = [] {
    auto* r = new SchemeRegistry();
    register_builtin_schemes(*r);
    return r;
  }();
  return *registry;
}

// ------------------------------------------------------------ SchemeHandle --

SchemeHandle::SchemeHandle(std::shared_ptr<const Digraph> graph,
                           NameAssignment names,
                           std::shared_ptr<const Scheme> scheme)
    : graph_(std::move(graph)),
      names_(std::move(names)),
      scheme_(std::move(scheme)),
      stats_(std::make_shared<LazyStats>()) {
  if (graph_ == nullptr || scheme_ == nullptr) {
    throw std::invalid_argument("SchemeHandle: null graph or scheme");
  }
}

const TableStats& SchemeHandle::table_stats() const {
  std::call_once(stats_->once, [this] { stats_->stats = scheme_->table_stats(); });
  return stats_->stats;
}

RouteResult SchemeHandle::roundtrip(NodeId src, NodeId dst) const {
  return scheme_->simulate(*graph_, src, dst, names_.name_of(dst));
}

}  // namespace rtr
