// Failure injection at the scheme boundary: corrupted headers and misuse
// must surface as exceptions (or clean non-delivery), never as silent
// forwarding loops.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/exstretch.h"
#include "core/polystretch.h"
#include "core/stretch6.h"
#include "io/snapshot.h"
#include "net/scheme_adapter.h"
#include "net/simulator.h"
#include "rtz/rtz3_scheme.h"
#include "test_support.h"

namespace rtr {
namespace {

using ::rtr::testing::Instance;
using ::rtr::testing::make_instance;

class FailureInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    inst_ = make_instance(Family::kRandom, 40, 4, 77);
    Rng rng(78);
    s6_ = std::make_unique<Stretch6Scheme>(inst_.graph, *inst_.metric,
                                           inst_.names, rng);
    ex_ = std::make_unique<ExStretchScheme>(inst_.graph, *inst_.metric,
                                            inst_.names, rng);
    poly_ = std::make_unique<PolyStretchScheme>(inst_.graph, *inst_.metric,
                                                inst_.names);
    rtz_ = std::make_unique<Rtz3Scheme>(inst_.graph, *inst_.metric,
                                        inst_.names, rng);
  }
  Instance inst_;
  std::unique_ptr<Stretch6Scheme> s6_;
  std::unique_ptr<ExStretchScheme> ex_;
  std::unique_ptr<PolyStretchScheme> poly_;
  std::unique_ptr<Rtz3Scheme> rtz_;
};

TEST_F(FailureInjectionTest, CorruptModeThrowsEverywhere) {
  {
    auto h = s6_->make_packet(inst_.names.name_of(5));
    h.mode = static_cast<Stretch6Scheme::Mode>(200);
    EXPECT_THROW((void)s6_->forward(0, h), std::logic_error);
  }
  {
    auto h = ex_->make_packet(inst_.names.name_of(5));
    h.mode = static_cast<ExStretchScheme::Mode>(200);
    EXPECT_THROW((void)ex_->forward(0, h), std::logic_error);
  }
  {
    auto h = poly_->make_packet(inst_.names.name_of(5));
    h.mode = static_cast<PolyStretchScheme::Mode>(200);
    EXPECT_THROW((void)poly_->forward(0, h), std::logic_error);
  }
  {
    auto h = rtz_->make_packet(inst_.names.name_of(5));
    h.mode = static_cast<Rtz3Scheme::Mode>(200);
    EXPECT_THROW((void)rtz_->forward(0, h), std::logic_error);
  }
}

/// A packet's first leg and a node outside that leg's double tree.
struct ForeignLeg {
  NodeId src = kNoNode;
  NodeName dest = kNoNode;
  NodeId outsider = kNoNode;
};

/// Scans (source, destination) pairs for a first leg launched inside a tree
/// that misses some node, found through the scheme's own cover-table rows.
ForeignLeg find_foreign_leg(const PolyStretchScheme& poly, const Instance& inst) {
  const CoverTable& cover = poly.cover();
  for (NodeId s = 0; s < inst.n(); ++s) {
    for (NodeId t = 0; t < inst.n(); ++t) {
      if (s == t) continue;
      auto h = poly.make_packet(inst.names.name_of(t));
      if (poly.forward(s, h).deliver) continue;
      for (NodeId v = 0; v < inst.n(); ++v) {
        if (cover.find(v, h.leg.tree) == CoverTable::kNotMember) {
          return ForeignLeg{s, inst.names.name_of(t), v};
        }
      }
    }
  }
  return ForeignLeg{};
}

void expect_foreign_leg_rejected(const PolyStretchScheme& poly,
                                 const ForeignLeg& leg) {
  auto h = poly.make_packet(leg.dest);
  ASSERT_FALSE(poly.forward(leg.src, h).deliver);  // real state at the source
  // The outsider "receives" a packet whose leg names a tree it is not in.
  EXPECT_THROW((void)poly.forward(leg.outsider, h), std::logic_error);
}

TEST_F(FailureInjectionTest, ForeignTreeLegIsRejected) {
  const ForeignLeg leg = find_foreign_leg(*poly_, inst_);
  ASSERT_NE(leg.outsider, kNoNode)
      << "every first leg on this instance runs in a tree spanning V";
  expect_foreign_leg_rejected(*poly_, leg);

  // A mapped snapshot of the same build forwards through the same rows.
  BuildContext ctx = inst_.context(78);
  SchemeHandle built(ctx.graph, ctx.names,
                     SchemeRegistry::global().build("polystretch", ctx));
  const std::string path = ::testing::TempDir() + "rtr_foreign_leg.rtrsnap";
  save_snapshot(path, "polystretch", built);
  const SchemeHandle mapped = map_snapshot(path, "polystretch");
  const auto* adapter =
      dynamic_cast<const TemplateSchemeAdapter<PolyStretchScheme>*>(
          &mapped.scheme());
  ASSERT_NE(adapter, nullptr);
  expect_foreign_leg_rejected(adapter->impl(), leg);
  std::remove(path.c_str());
}

TEST_F(FailureInjectionTest, TamperedWaypointStackFailsLoudly) {
  // Route a packet to its destination normally, then corrupt the return
  // stack: the inbound trip must throw or fail to deliver, never loop.
  NodeId s = 0, t = 17;
  auto h = ex_->make_packet(inst_.names.name_of(t));
  NodeId at = s;
  for (int guard = 0; guard < 16 * inst_.n(); ++guard) {
    Decision d = ex_->forward(at, h);
    if (d.deliver) break;
    const Edge* e = inst_.graph.edge_by_port(at, d.port);
    ASSERT_NE(e, nullptr);
    at = e->to;
  }
  ASSERT_EQ(at, t);
  ex_->prepare_return(h);
  if (h.stack.empty()) GTEST_SKIP() << "local-only chain, nothing to corrupt";
  h.stack.back().back_label.dfs_in += 9999;  // corrupt the retrace label
  bool threw = false;
  bool delivered_at_source = false;
  for (int guard = 0; guard < 16 * inst_.n(); ++guard) {
    Decision d{};
    try {
      d = ex_->forward(at, h);
    } catch (const std::logic_error&) {
      threw = true;
      break;
    }
    if (d.deliver) {
      delivered_at_source = at == s;
      break;
    }
    const Edge* e = inst_.graph.edge_by_port(at, d.port);
    if (e == nullptr) {
      threw = true;
      break;
    }
    at = e->to;
  }
  EXPECT_TRUE(threw || !delivered_at_source)
      << "corrupted stack silently produced a correct-looking delivery";
}

TEST_F(FailureInjectionTest, UnknownNameIsRejectedAtPacketCreation) {
  EXPECT_THROW((void)rtz_->make_packet(static_cast<NodeName>(1 << 20)),
               std::out_of_range);
}

}  // namespace
}  // namespace rtr
