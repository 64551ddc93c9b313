// Snapshot-file audit: framing, per-section CRC, and cross-section
// referential integrity, all without constructing the scheme (the scheme
// sections' payloads are validated by their CRCs here and viewed only by a
// real load).  Corruption never throws -- it becomes failed report entries, so
// one damaged section does not hide the health of the others.
//
// The file is mmap(2)'d and audited entirely through FlatVec views over the
// mapping: CRCs recompute against the mapped bytes and the graph/names
// structural audits run on view-backed structures, so the auditor never
// materializes an owning copy of the arena.  A file of another format
// version fails the "framing" entry.
#include <cstdint>
#include <optional>
#include <string>

#include "audit/audit.h"
#include "core/names.h"
#include "graph/digraph.h"
#include "io/arena.h"

namespace rtr {

namespace {

/// Audits the arena through the file mapping alone.  Every CRC recomputes
/// against the mapped bytes and the graph/names structural audits run on
/// from_arena views -- no owned copy of any section is made.
void audit_arena_snapshot(const std::string& path, AuditReport& report) {
  std::shared_ptr<const ArenaStorage> storage;
  try {
    storage = map_arena_file(path);
  } catch (const SnapshotError& e) {
    report.check("readable", false, e.what());
    return;
  }
  report.check("readable", true);

  ArenaView view;
  try {
    view = ArenaView(storage);
  } catch (const SnapshotError& e) {
    report.check("framing", false, e.what());
    return;
  }
  report.check("framing", true);

  // Per-section CRC entries straight off the mapping.
  for (const ArenaDirEntry& e : view.entries()) {
    auto sec = report.scope(e.name_str());
    const std::uint32_t actual =
        crc32(storage->data() + e.offset,
              static_cast<std::size_t>(e.byte_size()));
    report.check("crc", actual == e.crc,
                 "stored " + std::to_string(e.crc) + " != actual " +
                     std::to_string(actual));
  }

  // A snapshot carries the graph arrays, the name permutation, and at least
  // one scheme-owned section.
  bool has_scheme = false;
  for (const ArenaDirEntry& e : view.entries()) {
    if (e.name_str().rfind("scheme/", 0) == 0) has_scheme = true;
  }
  report.check(
      "sections-complete",
      view.has("graph/offset") && view.has("names/name_of") && has_scheme,
      "a snapshot carries graph/*, names/*, and scheme/* sections");

  // Structural audits over zero-copy views.  from_arena validates counts
  // against the header.
  std::optional<Digraph> graph;
  {
    auto sec_scope = report.scope("graph");
    try {
      graph = Digraph::from_arena(view);
      report.check("decodes", true);
    } catch (const std::exception& e) {
      report.check("decodes", false, e.what());
    }
  }
  // Digraph::audit scopes itself as "graph", so run it un-nested.
  if (graph) graph->audit(report);

  std::optional<NameAssignment> names;
  {
    auto sec_scope = report.scope("names");
    try {
      names = NameAssignment::from_arena(view);
      report.check("decodes", true);
    } catch (const std::exception& e) {
      report.check("decodes", false, e.what());
    }
    if (names) names->audit(report);
  }

  if (graph) {
    report.check(
        "header-counts-match-graph",
        static_cast<std::uint32_t>(graph->node_count()) ==
                view.header().node_count &&
            static_cast<std::uint64_t>(graph->edge_count()) ==
                view.header().edge_count,
        "header advertises n=" + std::to_string(view.header().node_count) +
            " m=" + std::to_string(view.header().edge_count) +
            ", graph sections hold n=" + std::to_string(graph->node_count()) +
            " m=" + std::to_string(graph->edge_count()));
  }
  if (graph && names) {
    report.check("names-match-graph",
                 names->node_count() == graph->node_count(),
                 "name permutation size vs graph section node count");
  }
}

}  // namespace

void audit_snapshot_file(const std::string& path, AuditReport& report) {
  auto scope = report.scope("snapshot");
  audit_arena_snapshot(path, report);
}

}  // namespace rtr
