// The unified-API contract: every scheme registered with the global
// SchemeRegistry is constructible by name on every generator family and
// routes correctly through the QueryEngine within its own stretch bound;
// the virtual (type-erased) path drives routes identical to the template
// fast path over the same tables; Packet enforces header-type safety; and
// SchemeHandle owns enough to outlive the scope that built it.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/stretch6.h"
#include "net/query_engine.h"
#include "net/scheme.h"
#include "net/scheme_adapter.h"
#include "test_support.h"

namespace rtr {
namespace {

using ::rtr::testing::Instance;
using ::rtr::testing::make_instance;

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

/// The virtual path must route exactly like the template fast path when both
/// run over the same preprocessed tables.
TEST(SchemeAdapter, VirtualPathMatchesTemplatePathForStretch6) {
  Instance inst = make_instance(Family::kRandom, 40, 4, 31);
  Rng rng(77);
  auto impl = std::make_shared<const Stretch6Scheme>(inst.graph, *inst.metric,
                                                     inst.names, rng);
  auto adapted = adapt_scheme(impl);  // shares the same tables
  for (NodeId s = 0; s < inst.n(); s += 2) {
    for (NodeId t = 0; t < inst.n(); t += 3) {
      if (s == t) continue;
      RouteResult tmpl = simulate_roundtrip(inst.graph, *impl, s, t,
                                            inst.names.name_of(t));
      RouteResult virt = simulate_roundtrip(
          inst.graph, static_cast<const Scheme&>(*adapted), s, t,
          inst.names.name_of(t));
      // Unqualified call on the adapter: resolves to the template walk over
      // Scheme::Header = Packet, i.e. the identical virtual-dispatch route.
      RouteResult direct = simulate_roundtrip(inst.graph, *adapted, s, t,
                                              inst.names.name_of(t));
      ASSERT_EQ(tmpl.ok(), virt.ok()) << s << "->" << t;
      EXPECT_EQ(tmpl.out_length, virt.out_length);
      EXPECT_EQ(tmpl.back_length, virt.back_length);
      EXPECT_EQ(tmpl.out_hops, virt.out_hops);
      EXPECT_EQ(tmpl.back_hops, virt.back_hops);
      EXPECT_EQ(tmpl.max_header_bits, virt.max_header_bits);
      EXPECT_EQ(tmpl.out_length, direct.out_length);
      EXPECT_EQ(tmpl.back_length, direct.back_length);
    }
  }
}

TEST(Packet, TypeMismatchThrowsBadCast) {
  struct HeaderA {
    int x = 1;
  };
  struct HeaderB {
    int y = 2;
  };
  Packet p{HeaderA{}};
  EXPECT_EQ(p.as<HeaderA>().x, 1);
  EXPECT_THROW((void)p.as<HeaderB>(), std::bad_cast);
  Packet empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_THROW((void)empty.as<HeaderA>(), std::logic_error);
}

TEST(Packet, CopiesAndMovesPreserveThePayload) {
  struct BigHeader {
    std::vector<int> trail;
  };
  Packet p{BigHeader{{1, 2, 3}}};
  Packet copy = p;
  copy.as<BigHeader>().trail.push_back(4);
  EXPECT_EQ(p.as<BigHeader>().trail.size(), 3u);
  EXPECT_EQ(copy.as<BigHeader>().trail.size(), 4u);
  Packet moved = std::move(copy);
  EXPECT_EQ(moved.as<BigHeader>().trail.size(), 4u);
  EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move): asserts the contract
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
    auto res = simulate_roundtrip(*graph, *scheme, 2, 9, names.name_of(9));
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
