//===- tests/FlowRebalanceTest.cpp - Incremental rebalance correctness ----===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The incremental rebalance must be *invisible*: after any event sequence,
// the standing rates equal a full from-scratch max-min solve.  These tests
// drive churn (starts, cancels, cap changes, link failures, completions)
// with check mode on, so every committed event self-verifies, and also
// assert the incrementality itself via the component-size counters.
//
//===----------------------------------------------------------------------===//

#include "net/FlowNetwork.h"
#include "net/Routing.h"
#include "net/TcpModel.h"
#include "net/Topology.h"
#include "sim/Simulator.h"
#include "support/Random.h"
#include "support/Units.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

using namespace dgsim;
using namespace dgsim::units;

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();

/// Mixed-geometry grid: NumPairs isolated source--sink links plus a star of
/// NumStar sites behind one core, so churn exercises both tiny components
/// and larger saturated ones.
struct ChurnFixture {
  Simulator Sim{11};
  // Declared before Topo: buildTopo() fills them while Topo initializes.
  std::vector<NodeId> PairSrc, PairDst, StarSite;
  std::vector<LinkId> StarLink;
  Topology Topo;
  Routing Router;
  FlowNetwork Net;

  static Topology buildTopo(size_t NumPairs, size_t NumStar,
                            std::vector<NodeId> &PairSrc,
                            std::vector<NodeId> &PairDst,
                            std::vector<NodeId> &StarSite,
                            std::vector<LinkId> &StarLink) {
    Topology T;
    for (size_t I = 0; I < NumPairs; ++I) {
      PairSrc.push_back(T.addNode("ps" + std::to_string(I)));
      PairDst.push_back(T.addNode("pd" + std::to_string(I)));
      T.addLink(PairSrc[I], PairDst[I], mbps(100), 0.002);
    }
    NodeId Core = T.addNode("core");
    for (size_t I = 0; I < NumStar; ++I) {
      StarSite.push_back(T.addNode("star" + std::to_string(I)));
      StarLink.push_back(T.addLink(StarSite[I], Core, mbps(50), 0.005));
    }
    return T;
  }

  explicit ChurnFixture(size_t NumPairs = 6, size_t NumStar = 6)
      : Topo(buildTopo(NumPairs, NumStar, PairSrc, PairDst, StarSite,
                       StarLink)),
        Router(Topo), Net(Sim, Topo, Router) {}
};

} // namespace

TEST(FlowRebalance, RandomizedChurnMatchesFullSolve) {
  // 1000 mixed events under check mode: every committed rebalance is
  // verified inside FlowNetwork against a full solve (abort on divergence),
  // and we re-assert the final error explicitly.
  ChurnFixture F;
  F.Net.setCheckRebalance(true);
  RandomEngine Rng(2025);
  std::vector<FlowId> Live;
  auto RandomEndpoints = [&](NodeId &S, NodeId &D) {
    if (Rng.bernoulli(0.5)) {
      size_t P = Rng.uniformInt(F.PairSrc.size());
      S = F.PairSrc[P];
      D = F.PairDst[P];
    } else {
      size_t A = Rng.uniformInt(F.StarSite.size());
      size_t B = (A + 1 + Rng.uniformInt(F.StarSite.size() - 1)) %
                 F.StarSite.size();
      S = F.StarSite[A];
      D = F.StarSite[B];
    }
  };
  for (int Event = 0; Event < 1000; ++Event) {
    // Forget flows that completed while the clock moved.
    for (size_t I = 0; I < Live.size();) {
      if (F.Net.remainingBytes(Live[I]) == 0.0) {
        Live[I] = Live.back();
        Live.pop_back();
      } else {
        ++I;
      }
    }
    double Op = Rng.uniform();
    if (Op < 0.35 || Live.empty()) {
      NodeId S, D;
      RandomEndpoints(S, D);
      FlowOptions Options;
      Options.Streams = 1 + unsigned(Rng.uniformInt(4));
      Options.EndpointCap = Rng.bernoulli(0.3)
                                ? Inf
                                : Rng.uniform(mbps(1), mbps(40));
      Options.Background = true;
      Live.push_back(
          F.Net.startFlow(S, D, megabytes(Rng.uniform(1, 50)), Options,
                          nullptr));
    } else if (Op < 0.55) {
      size_t Pick = Rng.uniformInt(Live.size());
      F.Net.cancelFlow(Live[Pick]);
      Live[Pick] = Live.back();
      Live.pop_back();
    } else if (Op < 0.75) {
      size_t Pick = Rng.uniformInt(Live.size());
      F.Net.setEndpointCap(Live[Pick],
                           Rng.bernoulli(0.2)
                               ? 0.0
                               : Rng.uniform(mbps(1), mbps(40)));
    } else if (Op < 0.85) {
      size_t L = Rng.uniformInt(F.StarLink.size());
      F.Net.setLinkEnabled(F.StarLink[L], !F.Net.linkEnabled(F.StarLink[L]));
    } else {
      // Let the fluid state advance so completions and the lazy heap fire.
      F.Sim.runUntil(F.Sim.now() + Rng.uniform(0.01, 0.5));
    }
  }
  EXPECT_LE(F.Net.maxRebalanceError(), 1e-9);
  // Most of the 1000 operations commit a rebalance (clock advances and
  // no-op cap changes account for the remainder).
  EXPECT_GT(F.Net.rebalanceEvents(), 800u);
}

TEST(FlowRebalance, UntouchedComponentsStayFrozen) {
  // Churn on one isolated pair must never hand the solver flows from
  // another: the per-event component is the touched bottleneck's flow set.
  ChurnFixture F;
  FlowOptions Options;
  Options.Background = true;
  // Saturate pair 0 with three flows and pair 1 with two.
  for (int I = 0; I < 3; ++I)
    F.Net.startFlow(F.PairSrc[0], F.PairDst[0], gigabytes(10), Options,
                    nullptr);
  for (int I = 0; I < 2; ++I)
    F.Net.startFlow(F.PairSrc[1], F.PairDst[1], gigabytes(10), Options,
                    nullptr);
  uint64_t Events0 = F.Net.rebalanceEvents();
  uint64_t Demands0 = F.Net.rebalanceDemandsSolved();
  // A start on pair 1 re-solves pair 1's three flows only.
  FlowId Extra = F.Net.startFlow(F.PairSrc[1], F.PairDst[1], gigabytes(10),
                                 Options, nullptr);
  EXPECT_EQ(F.Net.rebalanceEvents() - Events0, 1u);
  EXPECT_EQ(F.Net.rebalanceDemandsSolved() - Demands0, 3u);
  // Cancelling it re-solves the two survivors only.
  Demands0 = F.Net.rebalanceDemandsSolved();
  F.Net.cancelFlow(Extra);
  EXPECT_EQ(F.Net.rebalanceDemandsSolved() - Demands0, 2u);
  // And the whole time, pair 0's rates stayed the exact fair split.
  EXPECT_LE(F.Net.maxRebalanceError(), 1e-9);
}

TEST(FlowRebalance, MovingFlowsTracksStallAndResume) {
  ChurnFixture F;
  FlowOptions Options;
  Options.Background = true;
  FlowId Id = F.Net.startFlow(F.StarSite[0], F.StarSite[1], gigabytes(1),
                              Options, nullptr);
  EXPECT_EQ(F.Net.movingFlows(), 1u);
  F.Net.setLinkEnabled(F.StarLink[0], false);
  EXPECT_EQ(F.Net.movingFlows(), 0u);
  EXPECT_EQ(F.Net.activeFlows(), 1u);
  EXPECT_DOUBLE_EQ(F.Net.currentRate(Id), 0.0);
  F.Net.setLinkEnabled(F.StarLink[0], true);
  EXPECT_EQ(F.Net.movingFlows(), 1u);
  EXPECT_GT(F.Net.currentRate(Id), 0.0);
  F.Net.cancelFlow(Id);
  EXPECT_EQ(F.Net.movingFlows(), 0u);
}

TEST(FlowRebalance, CompletionExactAmongManyStalledFlows) {
  // One moving flow among many zero-cap (stalled) flows: the completion
  // must fire at the exact fluid time without any per-flow scanning having
  // kept the stalled set warm.
  ChurnFixture F;
  FlowOptions Stalled;
  Stalled.Background = true;
  Stalled.EndpointCap = 0.0;
  for (int I = 0; I < 50; ++I)
    F.Net.startFlow(F.PairSrc[2], F.PairDst[2], gigabytes(1), Stalled,
                    nullptr);
  FlowOptions Moving;
  Moving.EndpointCap = mbps(8);
  bool Done = false;
  SimTime EndTime = 0.0;
  F.Net.startFlow(F.PairSrc[3], F.PairDst[3], megabytes(1), Moving,
                  [&](const FlowStats &S) {
                    Done = true;
                    EndTime = S.EndTime;
                  });
  F.Sim.run();
  ASSERT_TRUE(Done);
  // 1 MiB at 8 Mb/s of payload: 1048576 * 8 / 8e6 s, exact.
  EXPECT_NEAR(EndTime, 1.048576, 1e-9);
}

TEST(FlowRebalance, ProbeDoesNotDisturbStandingRates) {
  ChurnFixture F;
  F.Net.setCheckRebalance(true);
  FlowOptions Options;
  Options.Background = true;
  // Saturate a star path, with one capped competitor.
  FlowOptions Capped = Options;
  Capped.EndpointCap = mbps(5);
  F.Net.startFlow(F.StarSite[0], F.StarSite[1], gigabytes(1), Capped,
                  nullptr);
  FlowId Greedy = F.Net.startFlow(F.StarSite[0], F.StarSite[1], gigabytes(1),
                                  Options, nullptr);
  double RateBefore = F.Net.currentRate(Greedy);
  uint64_t Events0 = F.Net.rebalanceEvents();
  // The probe shares the saturated uplink: it sees its fair share of the
  // hypothetical three-way contention, and commits nothing.
  double Probe = F.Net.probeBandwidth(F.StarSite[0], F.StarSite[1]);
  double Goodput = TcpModel::goodputFactor();
  EXPECT_NEAR(Probe, (mbps(50) * Goodput - mbps(5)) / 2.0, mbps(50) * 1e-9);
  EXPECT_EQ(F.Net.rebalanceEvents(), Events0);
  EXPECT_DOUBLE_EQ(F.Net.currentRate(Greedy), RateBefore);
  EXPECT_LE(F.Net.maxRebalanceError(), 1e-9);
}
