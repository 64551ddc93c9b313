// The concrete-walk visitor: maps every SchemeRegistry name to the concrete
// template scheme behind it, so a test can walk the registry's own tables
// over their concrete headers (net/simulator.h), hop by hop if it likes.
#ifndef RTR_TESTS_CONCRETE_SCHEME_VISITOR_H
#define RTR_TESTS_CONCRETE_SCHEME_VISITOR_H

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "baseline/full_table.h"
#include "core/exstretch.h"
#include "core/hashed_stretch6.h"
#include "core/names.h"
#include "core/polystretch.h"
#include "core/stretch6.h"
#include "io/arena.h"
#include "net/scheme.h"
#include "net/scheme_adapter.h"
#include "rtz/rtz3_scheme.h"
#include "test_support.h"

namespace rtr::testing {

namespace detail {

template <TemplatedScheme S, typename Walk>
void walk_adapted(const std::string& name, const Scheme& scheme,
                  const NameAssignment& names, Walk& walk) {
  const auto* adapter = dynamic_cast<const TemplateSchemeAdapter<S>*>(&scheme);
  ASSERT_NE(adapter, nullptr)
      << name << ": not the adapter type its registry entry builds";
  walk(adapter->impl(), [&names](NodeId t) { return names.name_of(t); });
}

}  // namespace detail

/// Calls `walk(concrete, name_of)` with the concrete template scheme behind
/// registry entry `name`, where `name_of(t)` is the name the concrete
/// scheme's packets carry for node t.  `scheme` is a registry build of
/// `name` over `ctx`.  Adapter-registered entries hand out the adapter's own
/// impl(), i.e. the very tables Scheme::simulate walks.  hashed64's adapter
/// is private to the registry, so its entry reloads `scheme`'s snapshot
/// sections as a HashedStretch6Scheme (the same tables, byte for byte) and
/// names node t by the chosen name that snapshot carries.  A registered name
/// the visitor does not cover is a test failure: a new scheme is added here
/// before tests can walk it.
template <typename Walk>
void visit_concrete_scheme(const std::string& name, const Scheme& scheme,
                           const BuildContext& ctx, Walk&& walk) {
  if (name == "stretch6" || name == "stretch6-detour") {
    detail::walk_adapted<Stretch6Scheme>(name, scheme, ctx.names, walk);
  } else if (name == "exstretch") {
    detail::walk_adapted<ExStretchScheme>(name, scheme, ctx.names, walk);
  } else if (name == "polystretch") {
    detail::walk_adapted<PolyStretchScheme>(name, scheme, ctx.names, walk);
  } else if (name == "rtz3") {
    detail::walk_adapted<Rtz3Scheme>(name, scheme, ctx.names, walk);
  } else if (name == "fulltable") {
    detail::walk_adapted<FullTableScheme>(name, scheme, ctx.names, walk);
  } else if (name == "hashed64") {
    const ArenaView view(make_owned_arena(arena_image(
        [&](ArenaWriter& w) {
          SchemeRegistry::global().arena_saver(name)(scheme, w);
        },
        name, ctx.graph->node_count(), ctx.graph->edge_count())));
    const HashedStretch6Scheme hashed =
        HashedStretch6Scheme::from_arena(view, "scheme/", *ctx.graph);
    const ChosenNames& chosen = hashed.chosen();
    walk(hashed, [&chosen](NodeId t) { return chosen.of_id(t); });
  } else {
    ADD_FAILURE() << "visit_concrete_scheme: no concrete scheme for the "
                     "registered name '"
                  << name << "'";
  }
}

}  // namespace rtr::testing

#endif  // RTR_TESTS_CONCRETE_SCHEME_VISITOR_H
