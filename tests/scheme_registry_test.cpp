// The unified-API contract: every scheme registered with the global
// SchemeRegistry is constructible by name on every generator family and
// routes correctly through the QueryEngine within its own stretch bound;
// a served roundtrip is the template walk over the concrete scheme behind
// its entry; and SchemeHandle owns enough to outlive the scope that built
// it.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "concrete_scheme_visitor.h"
#include "net/query_engine.h"
#include "net/scheme.h"
#include "test_support.h"

namespace rtr {
namespace {

using ::rtr::testing::Instance;
using ::rtr::testing::make_instance;
using ::rtr::testing::visit_concrete_scheme;

TEST(SchemeRegistry, ListsEveryBuiltinScheme) {
  const auto names = SchemeRegistry::global().names();
  for (const std::string expected :
       {"stretch6", "stretch6-detour", "exstretch", "polystretch", "rtz3",
        "fulltable", "hashed64"}) {
    EXPECT_TRUE(SchemeRegistry::global().contains(expected)) << expected;
    EXPECT_FALSE(SchemeRegistry::global().summary(expected).empty());
  }
  EXPECT_GE(names.size(), 7u);
}

TEST(SchemeRegistry, UnknownNameThrowsListingWhatExists) {
  Instance inst = make_instance(Family::kRandom, 12, 3, 7);
  try {
    (void)SchemeRegistry::global().build("no-such-scheme", inst.context(1));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("stretch6"), std::string::npos);
  }
}

TEST(SchemeRegistry, DuplicateRegistrationThrows) {
  SchemeRegistry registry;
  register_builtin_schemes(registry);
  EXPECT_THROW(registry.add("stretch6", "dup",
                            [](const BuildContext&) {
                              return std::shared_ptr<const Scheme>();
                            }),
               std::invalid_argument);
}

TEST(SchemeRegistry, OptionsReachTheFactory) {
  Instance inst = make_instance(Family::kRandom, 24, 3, 11);
  auto ctx = inst.context(5);
  ctx.options["k"] = "4";
  auto ex = SchemeRegistry::global().build("exstretch", ctx);
  EXPECT_NE(ex->name().find("k=4"), std::string::npos);
}

/// Every registered scheme, on every family: build by name, run sampled
/// pairs through the engine, assert delivery and the scheme's own bound.
class RegistryFamilyTest
    : public ::testing::TestWithParam<::rtr::testing::FamilyParam> {};

TEST_P(RegistryFamilyTest, EverySchemeBuildsRoutesAndMeetsItsBound) {
  auto [family, n, seed] = GetParam();
  Instance inst = make_instance(family, n, 4, seed);
  const auto ctx = inst.context(seed + 99);
  QueryEngineOptions opts;
  opts.threads = 2;
  for (const std::string& scheme_name : SchemeRegistry::global().names()) {
    SCOPED_TRACE(scheme_name);
    QueryEngine engine = QueryEngine::from_registry(SchemeRegistry::global(),
                                                    scheme_name, ctx, opts);
    StretchReport report = engine.run_sampled(
        {.pair_budget = 80, .seed = static_cast<std::uint64_t>(seed) + 7});
    EXPECT_EQ(report.pairs, 80);
    EXPECT_EQ(report.failures, 0) << engine.scheme().name();
    const double bound = engine.scheme().stretch_bound();
    ASSERT_NE(bound, unbounded_stretch()) << engine.scheme().name();
    EXPECT_LE(report.max_stretch, bound + 1e-9) << engine.scheme().name();
    EXPECT_GT(report.max_header_bits, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, RegistryFamilyTest,
    ::testing::Values(::rtr::testing::FamilyParam{Family::kRandom, 32, 21},
                      ::rtr::testing::FamilyParam{Family::kGrid, 36, 22},
                      ::rtr::testing::FamilyParam{Family::kRing, 32, 23},
                      ::rtr::testing::FamilyParam{Family::kScaleFree, 32, 24},
                      ::rtr::testing::FamilyParam{Family::kBidirected, 32, 25}),
    [](const ::testing::TestParamInfo<::rtr::testing::FamilyParam>& info) {
      return ::rtr::testing::family_param_name(info.param);
    });

/// A served roundtrip -- SchemeHandle::roundtrip, i.e. Scheme::simulate with
/// the destination's TINN name -- must route exactly like simulate_roundtrip
/// over the concrete scheme the visitor hands out, for every registered
/// name.  For a TemplateSchemeAdapter entry the two are one call apart, so
/// this pins the visitor's name-to-type mapping.  For hashed64 it checks
/// Hashed64Adapter's own work: translating the TINN destination, at
/// injection, into the chosen name its snapshot carries.
TEST(SchemeAdapter, SimulateMatchesTemplateWalkForEveryAdaptedScheme) {
  Instance inst = make_instance(Family::kRandom, 40, 4, 31);
  const auto ctx = inst.context(77);
  for (const std::string& name : SchemeRegistry::global().names()) {
    SCOPED_TRACE(name);
    const auto scheme = SchemeRegistry::global().build(name, ctx);
    const SchemeHandle handle(ctx.graph, ctx.names, scheme);
    visit_concrete_scheme(
        name, *scheme, ctx, [&](const auto& concrete, const auto& name_of) {
          for (NodeId s = 0; s < inst.n(); s += 2) {
            for (NodeId t = 0; t < inst.n(); t += 3) {
              if (s == t) continue;
              const RouteResult tmpl =
                  simulate_roundtrip(inst.graph, concrete, s, t, name_of(t));
              const RouteResult served = handle.roundtrip(s, t);
              ASSERT_TRUE(tmpl.ok()) << s << "->" << t;
              ASSERT_EQ(tmpl.ok(), served.ok()) << s << "->" << t;
              EXPECT_EQ(tmpl.out_length, served.out_length);
              EXPECT_EQ(tmpl.back_length, served.back_length);
              EXPECT_EQ(tmpl.out_hops, served.out_hops);
              EXPECT_EQ(tmpl.back_hops, served.back_hops);
              EXPECT_EQ(tmpl.max_header_bits, served.max_header_bits);
            }
          }
        });
  }
}

/// Registry-built schemes internally reference the context's graph/metric
/// (e.g. Rtz3Scheme holds `const Digraph&`); the factories retain shared
/// ownership so a bare scheme pointer stays valid after its context dies.
TEST(SchemeRegistry, BuiltSchemeOutlivesItsBuildContext) {
  for (const std::string& scheme_name : SchemeRegistry::global().names()) {
    SCOPED_TRACE(scheme_name);
    std::shared_ptr<const Scheme> scheme;
    std::shared_ptr<const Digraph> graph;
    NameAssignment names = NameAssignment::identity(0);
    {
      Instance inst = make_instance(Family::kRandom, 24, 3, 61);
      BuildContext ctx = inst.context(19);
      scheme = SchemeRegistry::global().build(scheme_name, ctx);
      graph = ctx.graph;  // kept only to drive the walk below
      names = ctx.names;
    }  // Instance and BuildContext destroyed
    auto res = scheme->simulate(*graph, 2, 9, names.name_of(9));
    EXPECT_TRUE(res.ok()) << scheme->name();
  }
}

/// The seed API captured the graph by reference inside SchemeHandle's lambda;
/// a handle outliving its builder scope dangled.  The redesigned handle holds
/// shared ownership, so this pattern is now safe by construction.
TEST(SchemeHandle, SafelyOutlivesItsBuilderScope) {
  std::unique_ptr<SchemeHandle> handle;
  {
    BuildContext ctx;
    {
      Instance inst = make_instance(Family::kRandom, 24, 3, 41);
      ctx = inst.context(13);
    }  // Instance gone; ctx holds shared copies
    auto scheme = SchemeRegistry::global().build("stretch6", ctx);
    handle = std::make_unique<SchemeHandle>(ctx.graph, ctx.names, scheme);
  }  // builder scope gone
  auto res = handle->roundtrip(0, 5);
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(handle->table_stats().node_count(), handle->graph().node_count());
  EXPECT_NE(handle->name().find("stretch6"), std::string::npos);
}

}  // namespace
}  // namespace rtr
