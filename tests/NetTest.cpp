//===- tests/NetTest.cpp - Unit tests for the network substrate -----------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "net/CrossTraffic.h"
#include "net/FairShare.h"
#include "net/FlowNetwork.h"
#include "net/Routing.h"
#include "net/TcpModel.h"
#include "net/Topology.h"
#include "sim/Simulator.h"
#include "support/Units.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <queue>
#include <vector>

using namespace dgsim;
using namespace dgsim::units;

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();

/// A -- B -- C line with a slow middle link.
struct LineFixture {
  Topology Topo;
  NodeId A, B, C;
  LineFixture() {
    A = Topo.addNode("a");
    B = Topo.addNode("b");
    C = Topo.addNode("c");
    Topo.addLink(A, B, gbps(1), milliseconds(1));
    Topo.addLink(B, C, mbps(100), milliseconds(4), 0.001);
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Topology
//===----------------------------------------------------------------------===//

TEST(Topology, NodeAndLinkLookup) {
  LineFixture F;
  EXPECT_EQ(F.Topo.nodeCount(), 3u);
  EXPECT_EQ(F.Topo.linkCount(), 2u);
  EXPECT_EQ(F.Topo.channelCount(), 4u);
  EXPECT_EQ(F.Topo.findNode("b"), F.B);
  EXPECT_EQ(F.Topo.findNode("zzz"), InvalidNodeId);
  EXPECT_EQ(F.Topo.node(F.A).Name, "a");
}

TEST(Topology, ChannelDirections) {
  LineFixture F;
  ChannelId AB = F.Topo.channelFrom(0, F.A);
  ChannelId BA = F.Topo.channelFrom(0, F.B);
  EXPECT_NE(AB, BA);
  EXPECT_EQ(F.Topo.channelSource(AB), F.A);
  EXPECT_EQ(F.Topo.channelTarget(AB), F.B);
  EXPECT_EQ(F.Topo.channelSource(BA), F.B);
  EXPECT_EQ(F.Topo.channelTarget(BA), F.A);
}

TEST(Topology, IncidenceLists) {
  LineFixture F;
  EXPECT_EQ(F.Topo.linksAt(F.A).size(), 1u);
  EXPECT_EQ(F.Topo.linksAt(F.B).size(), 2u);
}

//===----------------------------------------------------------------------===//
// Routing
//===----------------------------------------------------------------------===//

TEST(Routing, FindsShortestPath) {
  LineFixture F;
  Routing R(F.Topo);
  const NetPath *P = R.pathRef(F.A, F.C);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(P->Channels.size(), 2u);
  EXPECT_DOUBLE_EQ(P->Rtt, 2.0 * (0.001 + 0.004));
  EXPECT_DOUBLE_EQ(P->BottleneckCapacity, mbps(100));
  EXPECT_NEAR(P->LossRate, 0.001, 1e-12);
}

TEST(Routing, SelfPathIsEmpty) {
  LineFixture F;
  Routing R(F.Topo);
  const NetPath *P = R.pathRef(F.A, F.A);
  ASSERT_NE(P, nullptr);
  EXPECT_TRUE(P->Channels.empty());
  EXPECT_DOUBLE_EQ(P->Rtt, 0.0);
}

TEST(Routing, DisconnectedNodes) {
  Topology T;
  NodeId A = T.addNode("a");
  NodeId B = T.addNode("b");
  T.addNode("island");
  T.addLink(A, B, gbps(1), milliseconds(1));
  Routing R(T);
  EXPECT_EQ(R.pathRef(A, T.findNode("island")), nullptr);
  EXPECT_TRUE(R.reachable(A, B));
  EXPECT_FALSE(R.reachable(A, T.findNode("island")));
}

TEST(Routing, PrefersLowerDelay) {
  Topology T;
  NodeId A = T.addNode("a"), B = T.addNode("b"), C = T.addNode("c");
  T.addLink(A, B, gbps(1), milliseconds(10)); // Direct but slow.
  T.addLink(A, C, gbps(1), milliseconds(2));
  T.addLink(C, B, gbps(1), milliseconds(2)); // Via C: 4 ms.
  Routing R(T);
  const NetPath *P = R.pathRef(A, B);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(P->Channels.size(), 2u);
  EXPECT_DOUBLE_EQ(P->Rtt, 2.0 * 0.004);
}

TEST(Routing, CyclicTopologyFallsBackToDijkstra) {
  // Two sites each uplinked to two spines: redundant paths make cycles,
  // so the topology is no forest and the LCA fast path must stand down.
  Topology T;
  NodeId S1 = T.addNode("s1"), S2 = T.addNode("s2");
  NodeId Spine1 = T.addNode("spine1"), Spine2 = T.addNode("spine2");
  for (NodeId Site : {S1, S2})
    for (NodeId Spine : {Spine1, Spine2})
      T.addLink(Site, Spine, gbps(10), milliseconds(2));
  Routing R(T);
  const NetPath *P = R.pathRef(S1, S2);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(P->Channels.size(), 2u);
  EXPECT_FALSE(R.usesTreeRouting());
}

TEST(Routing, CacheReturnsSameResult) {
  LineFixture F;
  Routing R(F.Topo);
  const NetPath *P1 = R.pathRef(F.A, F.C);
  const NetPath *P2 = R.pathRef(F.A, F.C);
  ASSERT_NE(P1, nullptr);
  // A cache hit hands back the same entry, not an equal copy.
  EXPECT_EQ(P1, P2);
  EXPECT_EQ(P1->Channels, R.pathRef(F.A, F.C)->Channels);
}

//===----------------------------------------------------------------------===//
// TcpModel
//===----------------------------------------------------------------------===//

TEST(TcpModel, WindowBoundOnCleanPath) {
  NetPath P;
  P.Rtt = 0.020; // 20 ms, no loss.
  P.LossRate = 0.0;
  // 64 KiB window / 20 ms = 26.2144 Mb/s.
  EXPECT_NEAR(TcpModel::perStreamCap(P), 64 * 1024 * 8 / 0.020, 1.0);
}

TEST(TcpModel, LossBoundOnLossyPath) {
  NetPath P;
  P.Rtt = 0.020;
  P.LossRate = 0.01; // Loss bound far below window bound.
  double Expected = (1460.0 * 8.0 / 0.020) * TcpModel::MathisC / 0.1;
  EXPECT_NEAR(TcpModel::perStreamCap(P), Expected, 1.0);
  EXPECT_LT(TcpModel::perStreamCap(P), 64 * 1024 * 8 / 0.020);
}

TEST(TcpModel, ZeroRttIsUnbounded) {
  NetPath P; // Rtt = 0.
  EXPECT_TRUE(std::isinf(TcpModel::perStreamCap(P)));
}

TEST(TcpModel, ParallelCapScalesLinearly) {
  NetPath P;
  P.Rtt = 0.020;
  P.LossRate = 0.005;
  double One = TcpModel::perStreamCap(P);
  EXPECT_NEAR(TcpModel::parallelCap(P, 4), 4.0 * One, 1e-6);
  EXPECT_NEAR(TcpModel::parallelCap(P, 16), 16.0 * One, 1e-6);
}

TEST(TcpModel, GoodputFactorBelowOne) {
  EXPECT_LT(TcpModel::goodputFactor(), 1.0);
  EXPECT_GT(TcpModel::goodputFactor(), 0.9);
}

TEST(TcpModel, ConnectTimeScalesWithRtt) {
  NetPath P;
  P.Rtt = 0.010;
  EXPECT_DOUBLE_EQ(TcpModel::connectTime(P), 0.015);
}

//===----------------------------------------------------------------------===//
// FairShare
//===----------------------------------------------------------------------===//

TEST(FairShare, EqualSplitOnSharedResource) {
  std::vector<double> Cap = {100.0};
  std::vector<FairShareDemand> D(2);
  D[0] = {{0}, Inf, 1.0};
  D[1] = {{0}, Inf, 1.0};
  auto R = solveMaxMinFairShare(Cap, D);
  EXPECT_DOUBLE_EQ(R[0], 50.0);
  EXPECT_DOUBLE_EQ(R[1], 50.0);
}

TEST(FairShare, WeightedSplit) {
  std::vector<double> Cap = {100.0};
  std::vector<FairShareDemand> D(2);
  D[0] = {{0}, Inf, 1.0};
  D[1] = {{0}, Inf, 3.0}; // e.g. 3 parallel streams
  auto R = solveMaxMinFairShare(Cap, D);
  EXPECT_NEAR(R[0], 25.0, 1e-9);
  EXPECT_NEAR(R[1], 75.0, 1e-9);
}

TEST(FairShare, CapFreesBandwidthForOthers) {
  std::vector<double> Cap = {100.0};
  std::vector<FairShareDemand> D(2);
  D[0] = {{0}, 10.0, 1.0}; // Capped below fair share.
  D[1] = {{0}, Inf, 1.0};
  auto R = solveMaxMinFairShare(Cap, D);
  EXPECT_NEAR(R[0], 10.0, 1e-9);
  EXPECT_NEAR(R[1], 90.0, 1e-9);
}

TEST(FairShare, MultiResourceBottleneck) {
  // Flow 0 uses both resources; flow 1 only the second (tighter) one.
  std::vector<double> Cap = {100.0, 40.0};
  std::vector<FairShareDemand> D(2);
  D[0] = {{0, 1}, Inf, 1.0};
  D[1] = {{1}, Inf, 1.0};
  auto R = solveMaxMinFairShare(Cap, D);
  EXPECT_NEAR(R[0], 20.0, 1e-9);
  EXPECT_NEAR(R[1], 20.0, 1e-9);
}

TEST(FairShare, UnconstrainedDemandGetsCap) {
  std::vector<double> Cap;
  std::vector<FairShareDemand> D(1);
  D[0] = {{}, 42.0, 1.0};
  auto R = solveMaxMinFairShare(Cap, D);
  EXPECT_DOUBLE_EQ(R[0], 42.0);
}

TEST(FairShare, ZeroCapDemandStaysAtZero) {
  std::vector<double> Cap = {100.0};
  std::vector<FairShareDemand> D(2);
  D[0] = {{0}, 0.0, 1.0};
  D[1] = {{0}, Inf, 1.0};
  auto R = solveMaxMinFairShare(Cap, D);
  EXPECT_DOUBLE_EQ(R[0], 0.0);
  EXPECT_NEAR(R[1], 100.0, 1e-9);
}

TEST(FairShare, ConservationAndNoOversubscription) {
  // Property check over a randomised instance set.
  RandomEngine Rng(123);
  for (int Trial = 0; Trial < 50; ++Trial) {
    size_t NumRes = 1 + Rng.uniformInt(5);
    size_t NumDem = 1 + Rng.uniformInt(8);
    std::vector<double> Cap(NumRes);
    for (auto &C : Cap)
      C = Rng.uniform(10, 200);
    std::vector<FairShareDemand> D(NumDem);
    for (auto &Dem : D) {
      size_t K = 1 + Rng.uniformInt(NumRes);
      for (size_t I = 0; I < K; ++I)
        Dem.Resources.push_back(Rng.uniformInt(NumRes));
      Dem.Cap = Rng.bernoulli(0.5) ? Rng.uniform(1, 100) : Inf;
      Dem.Weight = 1.0 + Rng.uniformInt(4);
    }
    auto R = solveMaxMinFairShare(Cap, D);
    // No demand exceeds its cap; no resource is oversubscribed.
    std::vector<double> Used(NumRes, 0.0);
    for (size_t F = 0; F != NumDem; ++F) {
      EXPECT_LE(R[F], D[F].Cap * (1.0 + 1e-9));
      EXPECT_GE(R[F], 0.0);
      // A demand may list a resource twice; count each listing.
      for (uint32_t Res : D[F].Resources)
        Used[Res] += R[F];
    }
    // Note: duplicated listings overcount usage, so only check demands
    // with unique resource lists... simpler: usage from distinct flows is
    // conservative because duplicates only tighten the check's LHS upward.
    for (size_t Res = 0; Res != NumRes; ++Res)
      EXPECT_LE(Used[Res], Cap[Res] * (1.0 + 1e-6) +
                               Cap[Res] * 1e-9);
  }
}

TEST(FairShare, WeightedMultiDemandSingleBottleneck) {
  // Hand-solved water-filling on one bottleneck: caps freeze demands 0 and
  // 1 early, then the remainder splits by weight.  Capacity 100; demands
  // (cap 5, w 1), (cap 12, w 2), (inf, w 1), (inf, w 4).
  FairShareWorkspace Ws;
  Ws.clear();
  uint32_t R0 = Ws.addResource(100.0);
  double Caps[] = {5.0, 12.0, Inf, Inf};
  double Weights[] = {1.0, 2.0, 1.0, 4.0};
  for (int I = 0; I < 4; ++I) {
    Ws.beginDemand(Caps[I], Weights[I]);
    Ws.demandUses(R0);
  }
  Ws.solve();
  // After the caps bind (5 + 12 = 17), 83 splits 1:4 over the remaining
  // weights: 16.6 and 66.4.
  EXPECT_DOUBLE_EQ(Ws.rate(0), 5.0);
  EXPECT_DOUBLE_EQ(Ws.rate(1), 12.0);
  EXPECT_NEAR(Ws.rate(2), 16.6, 1e-9);
  EXPECT_NEAR(Ws.rate(3), 66.4, 1e-9);
  EXPECT_TRUE(Ws.saturated(R0));
}

TEST(FairShare, ZeroCapacityResourceFreezesItsDemands) {
  // A zero-capacity resource (an exhausted residual in the incremental
  // rebalance) pins its demands at zero without touching the rest.
  FairShareWorkspace Ws;
  Ws.clear();
  uint32_t Dead = Ws.addResource(0.0);
  uint32_t Live = Ws.addResource(60.0);
  Ws.beginDemand(Inf, 1.0);
  Ws.demandUses(Dead);
  Ws.beginDemand(Inf, 1.0);
  Ws.demandUses(Dead);
  Ws.demandUses(Live);
  Ws.beginDemand(Inf, 1.0);
  Ws.demandUses(Live);
  Ws.solve();
  EXPECT_DOUBLE_EQ(Ws.rate(0), 0.0);
  EXPECT_DOUBLE_EQ(Ws.rate(1), 0.0);
  EXPECT_NEAR(Ws.rate(2), 60.0, 1e-9);
  EXPECT_TRUE(Ws.saturated(Dead));
}

TEST(FairShare, DisconnectedComponentsSolveIndependently) {
  // Demands on disjoint resources never interact: each component's result
  // matches its standalone solve.
  FairShareWorkspace Ws;
  Ws.clear();
  uint32_t A = Ws.addResource(90.0);
  uint32_t B = Ws.addResource(30.0);
  Ws.beginDemand(Inf, 1.0);
  Ws.demandUses(A);
  Ws.beginDemand(Inf, 2.0);
  Ws.demandUses(A);
  Ws.beginDemand(10.0, 1.0);
  Ws.demandUses(B);
  Ws.beginDemand(Inf, 1.0);
  Ws.demandUses(B);
  Ws.solve();
  EXPECT_NEAR(Ws.rate(0), 30.0, 1e-9);
  EXPECT_NEAR(Ws.rate(1), 60.0, 1e-9);
  EXPECT_NEAR(Ws.rate(2), 10.0, 1e-9);
  EXPECT_NEAR(Ws.rate(3), 20.0, 1e-9);
  EXPECT_TRUE(Ws.saturated(A));
  EXPECT_TRUE(Ws.saturated(B));
}

TEST(FairShare, WorkspaceReusesAcrossProblems) {
  // clear() must fully reset results and capacities between problems of
  // different shapes (the FlowNetwork solves a different component every
  // event through one workspace).
  FairShareWorkspace Ws;
  Ws.clear();
  uint32_t R = Ws.addResource(100.0);
  Ws.beginDemand(Inf, 1.0);
  Ws.demandUses(R);
  Ws.beginDemand(Inf, 1.0);
  Ws.demandUses(R);
  Ws.solve();
  EXPECT_DOUBLE_EQ(Ws.rate(0), 50.0);

  Ws.clear();
  R = Ws.addResource(0.0); // Capacity discovered after assembly.
  Ws.beginDemand(Inf, 3.0);
  Ws.demandUses(R);
  Ws.setResourceCapacity(R, 12.0);
  Ws.solve();
  ASSERT_EQ(Ws.demandCount(), 1u);
  EXPECT_NEAR(Ws.rate(0), 12.0, 1e-12);
  EXPECT_TRUE(Ws.saturated(R));

  Ws.clear();
  Ws.beginDemand(7.0, 1.0); // No listings: allocated exactly its cap.
  Ws.solve();
  EXPECT_DOUBLE_EQ(Ws.rate(0), 7.0);
}

namespace {

/// The event-driven solver with its original drain order, kept as the
/// reference the workspace must match bit for bit: every freeze pushes one
/// event per resource listing it touches, and cap events wait in the same
/// heap as saturation events.  It records the levels its valid events
/// fired at, so a test can show its problems reach the edge cases.
struct ReferenceFill {
  std::vector<double> Rate;
  std::vector<uint8_t> Saturated;
  uint64_t Pushes = 0;
  std::vector<double> CapLevels; // One per cap that froze its demand.
  std::vector<double> SatLevels; // One per resource that saturated.
  std::vector<uint32_t> SatResources;

  void solve(const std::vector<double> &Capacity,
             const std::vector<FairShareDemand> &Demands) {
    struct Event {
      double Level;
      uint32_t Id;
      uint32_t Version;
    };
    auto After = [](const Event &A, const Event &B) {
      return A.Level > B.Level || (A.Level == B.Level && A.Id > B.Id);
    };
    std::priority_queue<Event, std::vector<Event>, decltype(After)> Heap(
        After);
    const size_t NumRes = Capacity.size();
    const uint32_t NumDem = uint32_t(Demands.size());
    Rate.assign(NumDem, 0.0);
    Saturated.assign(NumRes, 0);
    std::vector<uint8_t> Frozen(NumDem, 0);
    std::vector<double> Residual = Capacity;
    std::vector<double> Weight(NumRes, 0.0), SettledAt(NumRes, 0.0);
    std::vector<uint32_t> Version(NumRes, 0);
    std::vector<std::vector<uint32_t>> OnRes(NumRes);
    size_t Active = 0;
    auto push = [&](double Level, uint32_t Id, uint32_t V) {
      ++Pushes;
      Heap.push(Event{Level, Id, V});
    };
    auto settle = [&](uint32_t R, double Level) {
      double Dl = Level - SettledAt[R];
      if (Dl > 0.0) {
        Residual[R] -= Weight[R] * Dl;
        if (Residual[R] < 0.0)
          Residual[R] = 0.0;
        SettledAt[R] = Level;
      }
    };
    auto freeze = [&](uint32_t D, double Level, bool AtCap) {
      const FairShareDemand &Dem = Demands[D];
      Frozen[D] = 1;
      --Active;
      Rate[D] = AtCap ? Dem.Cap : Dem.Weight * Level;
      for (uint32_t R : Dem.Resources) {
        settle(R, Level);
        Weight[R] -= Dem.Weight;
        ++Version[R];
        if (!Saturated[R] && Weight[R] > 0.0)
          push(Level + std::max(0.0, Residual[R]) / Weight[R], NumDem + R,
               Version[R]);
      }
    };

    for (uint32_t D = 0; D != NumDem; ++D) {
      const FairShareDemand &Dem = Demands[D];
      if (Dem.Resources.empty()) {
        Rate[D] = Dem.Cap;
        Frozen[D] = 1;
        continue;
      }
      if (Dem.Cap <= 0.0) {
        Frozen[D] = 1;
        continue;
      }
      ++Active;
      for (uint32_t R : Dem.Resources) {
        Weight[R] += Dem.Weight;
        OnRes[R].push_back(D);
      }
      if (std::isfinite(Dem.Cap))
        push(Dem.Cap / Dem.Weight, D, 0);
    }
    for (uint32_t R = 0; R != NumRes; ++R)
      if (Weight[R] > 0.0)
        push(Residual[R] / Weight[R], NumDem + R, 0);

    while (Active != 0 && !Heap.empty()) {
      Event Ev = Heap.top();
      Heap.pop();
      if (Ev.Id < NumDem) {
        if (!Frozen[Ev.Id]) {
          CapLevels.push_back(Ev.Level);
          freeze(Ev.Id, Ev.Level, /*AtCap=*/true);
        }
        continue;
      }
      uint32_t R = Ev.Id - NumDem;
      if (Ev.Version != Version[R] || Weight[R] <= 0.0)
        continue;
      settle(R, Ev.Level);
      Saturated[R] = 1;
      Residual[R] = 0.0;
      SatLevels.push_back(Ev.Level);
      SatResources.push_back(R);
      for (uint32_t D : OnRes[R])
        if (!Frozen[D])
          freeze(D, Ev.Level, /*AtCap=*/false);
    }
    if (Active != 0)
      for (uint32_t D = 0; D != NumDem; ++D)
        if (!Frozen[D])
          Rate[D] = Inf;
  }
};

/// A random problem built to reach the drain's edge cases.  Weights and
/// levels are small dyadic numbers, so a capacity of `level x listed
/// weight` saturates at exactly `level` and a cap of `level x weight` binds
/// there too: caps tie with saturations, and resources sharing a level
/// saturate together.  A third of the problems route 50-199 demands
/// through one hub resource; caps are sometimes zero or infinite,
/// capacities sometimes zero, and listings repeat.
struct FillProblem {
  std::vector<double> Capacity;
  std::vector<FairShareDemand> Demands;
  bool Hub = false;
};

FillProblem randomFillProblem(RandomEngine &Rng) {
  static const double Levels[] = {0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 8.0};
  auto level = [&] { return Levels[Rng.uniformInt(std::size(Levels))]; };
  FillProblem P;
  const size_t NumRes = 1 + Rng.uniformInt(12);
  P.Hub = Rng.bernoulli(1.0 / 3.0);
  const size_t NumDem =
      P.Hub ? 50 + Rng.uniformInt(150) : 1 + Rng.uniformInt(40);
  std::vector<double> Listed(NumRes, 0.0);
  P.Demands.resize(NumDem);
  for (FairShareDemand &D : P.Demands) {
    D.Weight = double(1 + Rng.uniformInt(4));
    if (P.Hub)
      D.Resources.push_back(0);
    for (size_t K = Rng.uniformInt(4); K != 0; --K)
      D.Resources.push_back(uint32_t(Rng.uniformInt(NumRes)));
    double U = Rng.uniform();
    D.Cap = U < 0.1    ? 0.0
            : U < 0.35 ? Inf
            : U < 0.7  ? level() * D.Weight
                       : Rng.uniform(0.5, 20.0);
    if (D.Cap > 0.0)
      for (uint32_t R : D.Resources)
        Listed[R] += D.Weight;
  }
  P.Capacity.resize(NumRes);
  for (size_t R = 0; R != NumRes; ++R) {
    double U = Rng.uniform();
    P.Capacity[R] = U < 0.1   ? 0.0
                    : U < 0.6 ? level() * Listed[R]
                              : Rng.uniform(1.0, 200.0);
  }
  return P;
}

} // namespace

TEST(FairShare, BatchedDrainIsBitIdenticalToPerListingPushes) {
  // The workspace re-keys each resource once per event and keeps cap
  // events in a sorted run; neither may change which event fires when, so
  // every rate and saturation flag must equal the reference's exactly.
  RandomEngine Rng(27);
  FairShareWorkspace Ws; // Reused across problems, as FlowNetwork does.
  size_t HubProblems = 0, CapTies = 0, SharedLevels = 0, ZeroCapacity = 0;
  size_t ZeroCaps = 0, InfiniteCaps = 0;
  for (int Trial = 0; Trial != 3000; ++Trial) {
    FillProblem P = randomFillProblem(Rng);
    ReferenceFill Ref;
    Ref.solve(P.Capacity, P.Demands);

    Ws.clear();
    for (double C : P.Capacity)
      Ws.addResource(C);
    for (const FairShareDemand &D : P.Demands) {
      Ws.beginDemand(D.Cap, D.Weight);
      for (uint32_t R : D.Resources)
        Ws.demandUses(R);
    }
    uint64_t Before = Ws.fillEvents();
    Ws.solve();
    for (uint32_t D = 0; D != P.Demands.size(); ++D)
      EXPECT_EQ(Ws.rate(D), Ref.Rate[D]) << "trial " << Trial << " demand "
                                         << D;
    for (uint32_t R = 0; R != P.Capacity.size(); ++R)
      EXPECT_EQ(Ws.saturated(R), Ref.Saturated[R] != 0)
          << "trial " << Trial << " resource " << R;
    EXPECT_LE(Ws.fillEvents() - Before, Ref.Pushes) << "trial " << Trial;
    if (HasFailure())
      return; // One diverging problem says enough.

    HubProblems += P.Hub;
    std::vector<double> Sat = Ref.SatLevels;
    std::sort(Sat.begin(), Sat.end());
    SharedLevels += std::adjacent_find(Sat.begin(), Sat.end()) != Sat.end();
    CapTies += std::any_of(Ref.CapLevels.begin(), Ref.CapLevels.end(),
                           [&](double L) {
                             return std::binary_search(Sat.begin(), Sat.end(),
                                                       L);
                           });
    ZeroCapacity += std::any_of(
        Ref.SatResources.begin(), Ref.SatResources.end(),
        [&](uint32_t R) { return P.Capacity[R] == 0.0; });
    for (const FairShareDemand &D : P.Demands) {
      ZeroCaps += D.Cap == 0.0;
      InfiniteCaps += std::isinf(D.Cap);
    }
  }
  // Every edge case the generator aims at is reached many times over.
  EXPECT_GT(HubProblems, 500u);
  EXPECT_GT(CapTies, 100u);
  EXPECT_GT(SharedLevels, 100u);
  EXPECT_GT(ZeroCapacity, 100u);
  EXPECT_GT(ZeroCaps, 100u);
  EXPECT_GT(InfiniteCaps, 100u);
}

//===----------------------------------------------------------------------===//
// FlowNetwork
//===----------------------------------------------------------------------===//

namespace {

struct NetFixture : ::testing::Test {
  Simulator Sim{7};
  LineFixture L;
  Routing Router{L.Topo};
  FlowNetwork Net{Sim, L.Topo, Router};
};

} // namespace

TEST_F(NetFixture, SingleFlowIsTcpBoundBelowLink) {
  // 100 Mb/s bottleneck, 10 ms RTT, 0.1% loss: one stream is capped by
  // min(window bound 52.4 Mb/s, Mathis bound 45.2 Mb/s), not by the link.
  FlowStats Done;
  bool Completed = false;
  Net.startFlow(L.A, L.C, megabytes(100), FlowOptions{},
                [&](const FlowStats &S) {
                  Done = S;
                  Completed = true;
                });
  Sim.run();
  ASSERT_TRUE(Completed);
  const NetPath *Path = Router.pathRef(L.A, L.C);
  ASSERT_NE(Path, nullptr);
  double Cap = TcpModel::perStreamCap(*Path);
  EXPECT_LT(Cap, mbps(100) * TcpModel::goodputFactor());
  EXPECT_NEAR(Done.meanRate(), Cap, Cap * 0.01);
}

TEST_F(NetFixture, ParallelStreamsSaturateBottleneck) {
  FlowStats Done;
  FlowOptions Opt;
  Opt.Streams = 8; // 8 x 52 Mb/s >> 100 Mb/s: the link saturates.
  Net.startFlow(L.A, L.C, megabytes(100), Opt,
                [&](const FlowStats &S) { Done = S; });
  Sim.run();
  double LinkGoodput = mbps(100) * TcpModel::goodputFactor();
  EXPECT_NEAR(Done.meanRate(), LinkGoodput, LinkGoodput * 0.02);
}

TEST_F(NetFixture, TwoFlowsShareFairly) {
  std::vector<FlowStats> Done;
  FlowOptions Opt;
  Opt.Streams = 8; // Make each flow link-limited so they contend.
  for (int I = 0; I < 2; ++I)
    Net.startFlow(L.A, L.C, megabytes(50), Opt,
                  [&](const FlowStats &S) { Done.push_back(S); });
  Sim.run();
  ASSERT_EQ(Done.size(), 2u);
  // Same size, same start: they finish together at half rate each.
  EXPECT_NEAR(Done[0].EndTime, Done[1].EndTime, 1e-6);
  double LinkGoodput = mbps(100) * TcpModel::goodputFactor();
  EXPECT_NEAR(Done[0].meanRate(), LinkGoodput / 2.0, LinkGoodput * 0.02);
}

TEST_F(NetFixture, OppositeDirectionsDoNotContend) {
  std::vector<FlowStats> Done;
  FlowOptions Opt;
  Opt.Streams = 8;
  Net.startFlow(L.A, L.C, megabytes(50), Opt,
                [&](const FlowStats &S) { Done.push_back(S); });
  Net.startFlow(L.C, L.A, megabytes(50), Opt,
                [&](const FlowStats &S) { Done.push_back(S); });
  Sim.run();
  ASSERT_EQ(Done.size(), 2u);
  // Full-duplex: both get the full link goodput.
  double LinkGoodput = mbps(100) * TcpModel::goodputFactor();
  EXPECT_NEAR(Done[0].meanRate(), LinkGoodput, LinkGoodput * 0.02);
  EXPECT_NEAR(Done[1].meanRate(), LinkGoodput, LinkGoodput * 0.02);
}

TEST_F(NetFixture, EndpointCapBindsBelowNetwork) {
  FlowStats Done;
  FlowOptions Opt;
  Opt.EndpointCap = mbps(10);
  Net.startFlow(L.A, L.C, megabytes(10), Opt,
                [&](const FlowStats &S) { Done = S; });
  Sim.run();
  EXPECT_NEAR(Done.meanRate(), mbps(10), mbps(10) * 0.01);
}

TEST_F(NetFixture, SetEndpointCapMidFlight) {
  FlowStats Done;
  FlowOptions Opt;
  Opt.EndpointCap = mbps(10);
  FlowId Id = Net.startFlow(L.A, L.C, megabytes(10), Opt,
                            [&](const FlowStats &S) { Done = S; });
  // After 4 s at 10 Mb/s, 5 MB moved; throttle to 5 Mb/s for the rest.
  Sim.schedule(4.0, [&] { Net.setEndpointCap(Id, mbps(5)); });
  Sim.run();
  double FirstPhase = 4.0;
  double MovedBytes = mbps(10) / 8.0 * FirstPhase;
  double RestTime = (megabytes(10) - MovedBytes) * 8.0 / mbps(5);
  EXPECT_NEAR(Done.EndTime, FirstPhase + RestTime, 0.05);
}

TEST_F(NetFixture, StalledForegroundFlowKeepsRunAlive) {
  // A foreground flow whose endpoint cap collapses to zero must not let
  // run() return before it eventually completes (liveness regression).
  FlowStats Done;
  bool Completed = false;
  FlowOptions Opt;
  Opt.EndpointCap = mbps(8); // 1 MB/s.
  FlowId Id = Net.startFlow(L.A, L.C, megabytes(10), Opt,
                            [&](const FlowStats &S) {
                              Done = S;
                              Completed = true;
                            });
  Sim.schedule(2.0, [&] { Net.setEndpointCap(Id, 0.0); });
  Sim.schedule(30.0, [&] { Net.setEndpointCap(Id, mbps(8)); });
  Sim.run();
  ASSERT_TRUE(Completed);
  // 2 s of progress, a 28 s stall, then the remainder at 1e6 bytes/s.
  double RemainderSeconds = (megabytes(10) - 2.0 * 1e6) * 8.0 / mbps(8);
  EXPECT_NEAR(Done.EndTime, 2.0 + 28.0 + RemainderSeconds, 0.01);
}

TEST_F(NetFixture, CancelFlowSuppressesCompletion) {
  bool Completed = false;
  FlowId Id = Net.startFlow(L.A, L.C, megabytes(10), FlowOptions{},
                            [&](const FlowStats &) { Completed = true; });
  Sim.schedule(0.5, [&] { Net.cancelFlow(Id); });
  Sim.run();
  EXPECT_FALSE(Completed);
  EXPECT_EQ(Net.activeFlows(), 0u);
}

TEST_F(NetFixture, RemainingBytesDecreases) {
  FlowOptions Opt;
  Opt.EndpointCap = mbps(8); // 1 MB/s
  FlowId Id = Net.startFlow(L.A, L.C, megabytes(10), Opt, nullptr);
  Sim.schedule(1.0, [&] {
    EXPECT_NEAR(Net.remainingBytes(Id), megabytes(10) - 1e6, 1e4);
  });
  Sim.run();
  EXPECT_DOUBLE_EQ(Net.remainingBytes(Id), 0.0);
}

TEST_F(NetFixture, SameNodeFlowIsInstantWhenUncapped) {
  // A local replica access: no network between endpoints.
  bool Completed = false;
  double When = -1.0;
  Net.startFlow(L.A, L.A, megabytes(100), FlowOptions{},
                [&](const FlowStats &S) {
                  Completed = true;
                  When = S.EndTime;
                });
  Sim.run();
  EXPECT_TRUE(Completed);
  EXPECT_DOUBLE_EQ(When, 0.0);
}

TEST_F(NetFixture, SameNodeFlowHonoursEndpointCap) {
  // Local access still costs disk time when the endpoint cap binds.
  FlowOptions Opt;
  Opt.EndpointCap = mbps(80); // 10 MB/s.
  double When = -1.0;
  Net.startFlow(L.A, L.A, 10e6, Opt,
                [&](const FlowStats &S) { When = S.EndTime; });
  Sim.run();
  EXPECT_NEAR(When, 1.0, 1e-9);
}

TEST_F(NetFixture, ZeroByteFlowCompletesImmediately) {
  bool Completed = false;
  double When = -1.0;
  Net.startFlow(L.A, L.C, 0.0, FlowOptions{}, [&](const FlowStats &S) {
    Completed = true;
    When = S.EndTime;
  });
  Sim.run();
  EXPECT_TRUE(Completed);
  EXPECT_DOUBLE_EQ(When, 0.0);
}

TEST_F(NetFixture, ProbeSeesResidualBandwidth) {
  double Quiet = Net.probeBandwidth(L.A, L.C, 8);
  double LinkGoodput = mbps(100) * TcpModel::goodputFactor();
  EXPECT_NEAR(Quiet, LinkGoodput, LinkGoodput * 0.01);

  // Fill the link with an 8-stream flow, then probe again: fair share halves.
  FlowOptions Opt;
  Opt.Streams = 8;
  Net.startFlow(L.A, L.C, megabytes(1000), Opt, nullptr);
  double Busy = Net.probeBandwidth(L.A, L.C, 8);
  EXPECT_NEAR(Busy, LinkGoodput / 2.0, LinkGoodput * 0.05);
  EXPECT_EQ(Net.activeFlows(), 1u); // Probe did not add a flow.
}

TEST_F(NetFixture, BackgroundFlowsDoNotKeepRunAlive) {
  FlowOptions Opt;
  Opt.Background = true;
  bool Completed = false;
  Net.startFlow(L.A, L.C, megabytes(100), Opt,
                [&](const FlowStats &) { Completed = true; });
  Sim.run(); // Must return immediately: only daemon work pending.
  EXPECT_FALSE(Completed);
  EXPECT_EQ(Net.activeFlows(), 1u);
  // It still completes under a bounded run.
  Sim.runUntil(1000.0);
  EXPECT_TRUE(Completed);
}

TEST_F(NetFixture, ForegroundFlowAnchorsBackgroundCompletion) {
  FlowOptions Bg;
  Bg.Background = true;
  bool BgDone = false, FgDone = false;
  Net.startFlow(L.A, L.C, megabytes(1), Bg,
                [&](const FlowStats &) { BgDone = true; });
  Net.startFlow(L.A, L.C, megabytes(50), FlowOptions{},
                [&](const FlowStats &) { FgDone = true; });
  Sim.run();
  EXPECT_TRUE(FgDone);
  // The small background flow finished while the foreground one ran.
  EXPECT_TRUE(BgDone);
}

TEST_F(NetFixture, ThreeFlowContentionIsExactlyMaxMin) {
  // Two flows A->C (share the 100 Mb/s link), one C->A (reverse, free).
  FlowOptions Opt;
  Opt.Streams = 8;
  std::map<int, double> Rate;
  int Done = 0;
  for (int I = 0; I < 2; ++I)
    Net.startFlow(L.A, L.C, megabytes(500), Opt, [&, I](const FlowStats &S) {
      Rate[I] = S.meanRate();
      ++Done;
    });
  Net.startFlow(L.C, L.A, megabytes(500), Opt, [&](const FlowStats &S) {
    Rate[2] = S.meanRate();
    ++Done;
  });
  Sim.run();
  ASSERT_EQ(Done, 3);
  double Goodput = mbps(100) * TcpModel::goodputFactor();
  EXPECT_NEAR(Rate[0], Goodput / 2.0, Goodput * 0.02);
  EXPECT_NEAR(Rate[1], Goodput / 2.0, Goodput * 0.02);
  EXPECT_NEAR(Rate[2], Goodput, Goodput * 0.02);
}

TEST_F(NetFixture, QueriesOnUnknownFlowIds) {
  EXPECT_DOUBLE_EQ(Net.currentRate(999), 0.0);
  EXPECT_DOUBLE_EQ(Net.remainingBytes(999), 0.0);
  Net.cancelFlow(999);          // No-op.
  Net.setEndpointCap(999, 1.0); // No-op.
  EXPECT_EQ(Net.activeFlows(), 0u);
}

TEST_F(NetFixture, ProbeRespectsEndpointCap) {
  double Probe = Net.probeBandwidth(L.A, L.C, 8, mbps(5));
  EXPECT_NEAR(Probe, mbps(5), 1.0);
}

TEST_F(NetFixture, ProbeDisconnectedReturnsZero) {
  Topology T;
  NodeId A = T.addNode("x");
  T.addNode("y");
  T.addLink(A, T.addNode("z"), gbps(1), milliseconds(1));
  Routing R(T);
  FlowNetwork N(Sim, T, R);
  EXPECT_DOUBLE_EQ(N.probeBandwidth(A, T.findNode("y")), 0.0);
}

TEST_F(NetFixture, DeterministicAcrossRuns) {
  auto RunOnce = [this]() {
    Simulator S(42);
    Routing R(L.Topo);
    FlowNetwork N(S, L.Topo, R);
    CrossTrafficConfig C;
    C.Src = L.A;
    C.Dst = L.C;
    C.MeanInterarrival = 0.5;
    CrossTraffic CT(S, N, C);
    CT.start();
    double EndTime = -1.0;
    FlowOptions Opt;
    Opt.Streams = 4;
    N.startFlow(L.A, L.C, megabytes(20), Opt,
                [&](const FlowStats &St) { EndTime = St.EndTime; });
    S.runUntil(300.0);
    return EndTime;
  };
  double T1 = RunOnce();
  double T2 = RunOnce();
  EXPECT_GT(T1, 0.0);
  EXPECT_DOUBLE_EQ(T1, T2);
}

//===----------------------------------------------------------------------===//
// CrossTraffic
//===----------------------------------------------------------------------===//

TEST_F(NetFixture, CrossTrafficInjectsAndSlowsTransfers) {
  CrossTrafficConfig C;
  C.Src = L.A;
  C.Dst = L.C;
  C.MeanInterarrival = 0.2;
  C.MinFlowBytes = megabytes(1);
  C.Streams = 4;
  CrossTraffic CT(Sim, Net, C);
  CT.start();
  Sim.runUntil(30.0);
  EXPECT_GT(CT.flowsInjected(), 50u);
  // The probe should now see less than the full link on average.
  double Probe = Net.probeBandwidth(L.A, L.C, 8);
  EXPECT_LT(Probe, mbps(100) * TcpModel::goodputFactor());
  CT.stop();
}

TEST_F(NetFixture, CrossTrafficStopHaltsArrivals) {
  CrossTrafficConfig C;
  C.Src = L.A;
  C.Dst = L.C;
  C.MeanInterarrival = 0.2;
  CrossTraffic CT(Sim, Net, C);
  CT.start();
  Sim.runUntil(10.0);
  CT.stop();
  uint64_t Count = CT.flowsInjected();
  Sim.runUntil(20.0);
  EXPECT_EQ(CT.flowsInjected(), Count);
}
