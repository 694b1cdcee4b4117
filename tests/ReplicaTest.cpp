//===- tests/ReplicaTest.cpp - Unit tests for the replica layer -----------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "replica/CostModel.h"
#include "replica/HealthTracker.h"
#include "replica/ReplicaCatalog.h"
#include "replica/ReplicaManager.h"
#include "replica/ReplicaSelector.h"
#include "replica/SelectionPolicy.h"

#include <gtest/gtest.h>

#include <memory>

using namespace dgsim;
using namespace dgsim::units;

//===----------------------------------------------------------------------===//
// CostModel
//===----------------------------------------------------------------------===//

TEST(CostModel, PaperWeightsAndLinearity) {
  CostModel M; // 0.8 / 0.1 / 0.1
  SystemFactors F;
  F.BwFraction = 1.0;
  F.CpuIdle = 1.0;
  F.IoIdle = 1.0;
  EXPECT_DOUBLE_EQ(M.score(F), 1.0);
  F.BwFraction = 0.5;
  EXPECT_DOUBLE_EQ(M.score(F), 0.6);
  F.CpuIdle = 0.0;
  F.IoIdle = 0.0;
  EXPECT_DOUBLE_EQ(M.score(F), 0.4);
}

TEST(CostModel, BandwidthDominatesWithPaperWeights) {
  CostModel M;
  SystemFactors GoodBw; // Fast path, busy host.
  GoodBw.BwFraction = 0.9;
  GoodBw.CpuIdle = 0.1;
  GoodBw.IoIdle = 0.1;
  SystemFactors GoodHost; // Slow path, idle host.
  GoodHost.BwFraction = 0.2;
  GoodHost.CpuIdle = 1.0;
  GoodHost.IoIdle = 1.0;
  EXPECT_GT(M.score(GoodBw), M.score(GoodHost));
}

TEST(CostModel, CustomWeightsFlipThePreference) {
  CostModel M(CostWeights{0.1, 0.45, 0.45});
  SystemFactors GoodBw;
  GoodBw.BwFraction = 0.9;
  GoodBw.CpuIdle = 0.1;
  GoodBw.IoIdle = 0.1;
  SystemFactors GoodHost;
  GoodHost.BwFraction = 0.2;
  GoodHost.CpuIdle = 1.0;
  GoodHost.IoIdle = 1.0;
  EXPECT_LT(M.score(GoodBw), M.score(GoodHost));
}

TEST(CostModel, ExtendedFactorsDefaultOff) {
  // Eq. (1) is the whole model: under 80/10/10, equal factors score
  // exactly their common value (0.4 + 0.05 + 0.05 in binary64).
  CostModel M;
  EXPECT_EQ(M.weights().sum(), 1.0);
  SystemFactors F;
  F.BwFraction = 0.5;
  F.CpuIdle = 0.5;
  F.IoIdle = 0.5;
  EXPECT_EQ(M.score(F), 0.5);
}

//===----------------------------------------------------------------------===//
// ReplicaCatalog
//===----------------------------------------------------------------------===//

namespace {

HostConfig mkHost(const std::string &Name, double CpuLoad = 0.0,
                  double IoLoad = 0.0) {
  HostConfig H;
  H.Name = Name;
  H.NicRate = gbps(1);
  H.Cpu.MeanLoad = CpuLoad;
  H.Cpu.Volatility = 0.0;
  H.DiskCfg.ReadRate = mbps(400);
  H.DiskCfg.WriteRate = mbps(400);
  H.DiskCfg.Background.MeanLoad = IoLoad;
  H.DiskCfg.Background.Volatility = 0.0;
  return H;
}

} // namespace

TEST(ReplicaCatalog, RegisterLocateRemove) {
  Simulator Sim(1);
  Host A(Sim, mkHost("a"), 0), B(Sim, mkHost("b"), 1);
  ReplicaCatalog Cat;
  Cat.registerFile("file-a", megabytes(1024));
  EXPECT_TRUE(Cat.hasFile("file-a"));
  EXPECT_FALSE(Cat.hasFile("file-b"));
  EXPECT_DOUBLE_EQ(Cat.fileSize("file-a"), megabytes(1024));

  Cat.addReplica("file-a", A);
  Cat.addReplica("file-a", B);
  Cat.addReplica("file-a", A); // Duplicate: ignored.
  EXPECT_EQ(Cat.locateRef("file-a").size(), 2u);

  EXPECT_TRUE(Cat.removeReplica("file-a", A));
  EXPECT_FALSE(Cat.removeReplica("file-a", A));
  EXPECT_EQ(Cat.locateRef("file-a").size(), 1u);
  EXPECT_EQ(Cat.locateRef("unknown").size(), 0u);
}

TEST(ReplicaCatalog, ReplicaAtFindsLocalCopy) {
  Simulator Sim(2);
  Host A(Sim, mkHost("a"), 7);
  ReplicaCatalog Cat;
  Cat.registerFile("f", 1.0e6);
  Cat.addReplica("f", A);
  EXPECT_EQ(Cat.replicaAt("f", 7), &A);
  EXPECT_EQ(Cat.replicaAt("f", 8), nullptr);
  EXPECT_EQ(Cat.replicaAt("missing", 7), nullptr);
}

TEST(ReplicaCatalog, ListReplicasSortedWithLexicographicTieBreak) {
  // listReplicas() pins a reporting order independent of registration
  // order: by host name, node id breaking exact-name ties (two hosts may
  // share a name across grids in tooling dumps).
  Simulator Sim(3);
  Host Zeta(Sim, mkHost("zeta"), 1), Alpha(Sim, mkHost("alpha"), 2),
      Mid(Sim, mkHost("mid"), 3), AlphaTwin(Sim, mkHost("alpha"), 9);
  ReplicaCatalog Cat;
  Cat.registerFile("f", 1.0e6);
  // Register deliberately out of order.
  Cat.addReplica("f", Zeta);
  Cat.addReplica("f", AlphaTwin);
  Cat.addReplica("f", Mid);
  Cat.addReplica("f", Alpha);
  std::vector<Host *> L = Cat.listReplicas("f");
  ASSERT_EQ(L.size(), 4u);
  EXPECT_EQ(L[0], &Alpha);     // "alpha", node 2.
  EXPECT_EQ(L[1], &AlphaTwin); // "alpha", node 9: tie broken by node id.
  EXPECT_EQ(L[2], &Mid);
  EXPECT_EQ(L[3], &Zeta);
  EXPECT_TRUE(Cat.listReplicas("missing").empty());
}

TEST(ReplicaCatalog, ListFilesSorted) {
  ReplicaCatalog Cat;
  Cat.registerFile("zeta", 1.0);
  Cat.registerFile("alpha", 1.0);
  auto Names = Cat.listFiles();
  ASSERT_EQ(Names.size(), 2u);
  EXPECT_EQ(Names[0], "alpha");
  EXPECT_EQ(Names[1], "zeta");
}

//===----------------------------------------------------------------------===//
// Selection policies and the selector, on a small grid
//===----------------------------------------------------------------------===//

namespace {

/// Client site plus three replica holders behind different-quality paths:
///   fast  -- 1 Gb/s, 2 ms, clean        (best bandwidth)
///   mid   -- 100 Mb/s, 10 ms, light loss
///   slow  -- 30 Mb/s, 20 ms, lossy      (worst bandwidth, idlest host)
struct ReplicaFixture : ::testing::Test {
  Simulator Sim{77};
  Topology Topo;
  NodeId ClientNode;
  std::unique_ptr<Routing> Router;
  std::unique_ptr<FlowNetwork> Net;
  std::unique_ptr<Host> ClientHost, Fast, MidH, Slow;
  std::unique_ptr<InformationService> Info;
  ReplicaCatalog Cat;
  std::unique_ptr<TransferManager> Mgr;

  void SetUp() override {
    ClientNode = Topo.addNode("client");
    NodeId F = Topo.addNode("fast");
    NodeId M = Topo.addNode("mid");
    NodeId S = Topo.addNode("slow");
    Topo.addLink(ClientNode, F, gbps(1), milliseconds(1));
    Topo.addLink(ClientNode, M, mbps(100), milliseconds(5), 0.0005);
    Topo.addLink(ClientNode, S, mbps(30), milliseconds(10), 0.002);
    Router = std::make_unique<Routing>(Topo);
    Net = std::make_unique<FlowNetwork>(Sim, Topo, *Router);

    // The fast host is moderately busy, the slow host fully idle: the
    // interesting trade-off for weight experiments.
    ClientHost = std::make_unique<Host>(Sim, mkHost("client"), ClientNode);
    Fast = std::make_unique<Host>(Sim, mkHost("fast", 0.5, 0.5), F);
    MidH = std::make_unique<Host>(Sim, mkHost("mid", 0.2, 0.2), M);
    Slow = std::make_unique<Host>(Sim, mkHost("slow", 0.0, 0.0), S);

    Info = std::make_unique<InformationService>(Sim, *Net);
    for (Host *H : {ClientHost.get(), Fast.get(), MidH.get(), Slow.get()})
      Info->registerHost(*H);

    Cat.registerFile("file-a", megabytes(256));
    Cat.addReplica("file-a", *Fast);
    Cat.addReplica("file-a", *MidH);
    Cat.addReplica("file-a", *Slow);

    Mgr = std::make_unique<TransferManager>(Sim, *Net);
    Sim.runUntil(30.0); // Warm up the sensors.
  }

  const std::vector<Host *> &candidates() { return Cat.locateRef("file-a"); }
};

} // namespace

TEST_F(ReplicaFixture, CostModelPolicyPicksFastPath) {
  CostModelPolicy P; // Paper weights: bandwidth dominates.
  EXPECT_EQ(P.choose(ClientNode, candidates(), *Info), Fast.get());
}

TEST_F(ReplicaFixture, CpuHeavyWeightsPickIdlestHost) {
  CostModelPolicy P(CostWeights{0.0, 0.5, 0.5});
  EXPECT_EQ(P.choose(ClientNode, candidates(), *Info), Slow.get());
}

TEST_F(ReplicaFixture, BandwidthOnlyPolicyAgreesWithNws) {
  BandwidthOnlyPolicy P;
  EXPECT_EQ(P.choose(ClientNode, candidates(), *Info), Fast.get());
}

TEST_F(ReplicaFixture, LeastLoadedCpuPolicyIgnoresBandwidth) {
  LeastLoadedCpuPolicy P;
  EXPECT_EQ(P.choose(ClientNode, candidates(), *Info), Slow.get());
}

TEST_F(ReplicaFixture, RoundRobinCycles) {
  RoundRobinPolicy P;
  Host *First = P.choose(ClientNode, candidates(), *Info);
  Host *Second = P.choose(ClientNode, candidates(), *Info);
  Host *Third = P.choose(ClientNode, candidates(), *Info);
  Host *Fourth = P.choose(ClientNode, candidates(), *Info);
  EXPECT_NE(First, Second);
  EXPECT_NE(Second, Third);
  EXPECT_EQ(First, Fourth);
}

TEST_F(ReplicaFixture, RandomPolicyCoversAllCandidates) {
  RandomPolicy P(Sim.forkRng());
  bool SawFast = false, SawMid = false, SawSlow = false;
  for (int I = 0; I < 100; ++I) {
    Host *H = P.choose(ClientNode, candidates(), *Info);
    SawFast |= (H == Fast.get());
    SawMid |= (H == MidH.get());
    SawSlow |= (H == Slow.get());
  }
  EXPECT_TRUE(SawFast && SawMid && SawSlow);
}

TEST_F(ReplicaFixture, TwoChoiceSpreadsWhileInnerRanks) {
  CostModelPolicy Cost;
  TwoChoicePolicy P(Cost, Sim.forkRng());
  EXPECT_EQ(P.name(), "2-choice(" + Cost.name() + ")");

  // The inner ranking decides each sampled pair, so the best holder
  // wins exactly the ~2/3 of draws whose pair contains it — no herd —
  // while the runner-up takes the {mid, slow} pairs and the worst
  // holder, which loses every pair it appears in, never wins.
  int Wins[3] = {0, 0, 0};
  for (int I = 0; I < 300; ++I) {
    Host *H = P.choose(ClientNode, candidates(), *Info);
    Wins[H == Fast.get() ? 0 : H == MidH.get() ? 1 : 2]++;
  }
  EXPECT_GT(Wins[0], 150); // ~200 expected.
  EXPECT_GT(Wins[1], 50);  // ~100 expected.
  EXPECT_EQ(Wins[2], 0) << "slow loses both pairings under paper weights";

  // On a two-holder list the sample is the whole list, so the combinator
  // is transparent: every draw is the inner policy's pick.
  const std::vector<Host *> Pair = {Slow.get(), MidH.get()};
  ASSERT_EQ(Cost.choose(ClientNode, Pair, *Info), MidH.get());
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(P.choose(ClientNode, Pair, *Info), MidH.get());
}

TEST_F(ReplicaFixture, SelectorReportsAllCandidates) {
  CostModelPolicy P;
  ReplicaSelector Sel(Cat, *Info, P);
  SelectionResult R = Sel.select(ClientNode, "file-a");
  EXPECT_EQ(R.Chosen, Fast.get());
  EXPECT_FALSE(R.LocalHit);
  // The report covers every holder; scores must be in [0, 1] and the cost
  // model's choice must be the report's arg-max.
  auto Reports = Sel.scoreAll(ClientNode, "file-a");
  ASSERT_EQ(Reports.size(), 3u);
  const CandidateReport *Best = nullptr;
  for (const CandidateReport &C : Reports) {
    EXPECT_GE(C.Score, 0.0);
    EXPECT_LE(C.Score, 1.0);
    if (!Best || C.Score > Best->Score)
      Best = &C;
  }
  EXPECT_EQ(Best->Candidate, R.Chosen);
}

TEST_F(ReplicaFixture, SelectionMonitorsOnlyWhatThePolicyRanks) {
  // Only the policy's own queries monitor a path: two-choice ranks, and
  // so probes, its two samples; random ranks nothing.  scoreAll() is the
  // call that touches every holder's path.
  CostModelPolicy Cost;
  TwoChoicePolicy Two(Cost, Sim.forkRng());
  ReplicaSelector TwoSel(Cat, *Info, Two);
  size_t Paths0 = Info->pathSensorCount();
  uint64_t Q0 = Info->factorQueries();
  EXPECT_NE(TwoSel.select(ClientNode, "file-a").Chosen, nullptr);
  EXPECT_EQ(Info->pathSensorCount() - Paths0, 2u);
  EXPECT_EQ(Info->factorQueries() - Q0, 2u);

  RandomPolicy Rand(Sim.forkRng());
  ReplicaSelector RandSel(Cat, *Info, Rand);
  Paths0 = Info->pathSensorCount();
  Q0 = Info->factorQueries();
  EXPECT_NE(RandSel.select(ClientNode, "file-a").Chosen, nullptr);
  EXPECT_EQ(Info->pathSensorCount() - Paths0, 0u);
  EXPECT_EQ(Info->factorQueries() - Q0, 0u);
}

TEST_F(ReplicaFixture, SelectorShortCircuitsLocalReplica) {
  Cat.addReplica("file-a", *ClientHost);
  CostModelPolicy P;
  ReplicaSelector Sel(Cat, *Info, P);
  SelectionResult R = Sel.select(ClientNode, "file-a");
  EXPECT_TRUE(R.LocalHit);
  EXPECT_EQ(R.Chosen, ClientHost.get());
}

TEST_F(ReplicaFixture, ScoreAllMatchesSelectReports) {
  CostModelPolicy P;
  ReplicaSelector Sel(Cat, *Info, P);
  auto Scores = Sel.scoreAll(ClientNode, "file-a");
  ASSERT_EQ(Scores.size(), 3u);
  // Fast path has the highest bandwidth fraction.
  double FastScore = 0.0, SlowScore = 0.0;
  for (const CandidateReport &C : Scores) {
    if (C.Candidate == Fast.get())
      FastScore = C.Score;
    if (C.Candidate == Slow.get())
      SlowScore = C.Score;
  }
  EXPECT_GT(FastScore, SlowScore);
}

//===----------------------------------------------------------------------===//
// Selection reads current state (DESIGN.md §13)
//===----------------------------------------------------------------------===//

TEST_F(ReplicaFixture, ScoreAllFollowsCatalogMutation) {
  CostModelPolicy P;
  ReplicaSelector Sel(Cat, *Info, P);
  uint64_t Q0 = Info->factorQueries();
  auto Reports = Sel.scoreAll(ClientNode, "file-a");
  EXPECT_EQ(Reports.size(), 3u);
  EXPECT_EQ(Info->factorQueries() - Q0, 3u) << "one query per holder";

  ASSERT_TRUE(Cat.removeReplica("file-a", *Slow));
  Reports = Sel.scoreAll(ClientNode, "file-a");
  EXPECT_EQ(Reports.size(), 2u);

  Cat.addReplica("file-a", *Slow);
  Reports = Sel.scoreAll(ClientNode, "file-a");
  ASSERT_EQ(Reports.size(), 3u);
  bool SawSlow = false;
  for (const CandidateReport &C : Reports)
    SawSlow |= C.Candidate == Slow.get();
  EXPECT_TRUE(SawSlow) << "the fresh holder must be visible immediately";
}

TEST_F(ReplicaFixture, DownHolderExcludedFromSelection) {
  CostModelPolicy P;
  ReplicaSelector Sel(Cat, *Info, P);
  EXPECT_EQ(Sel.select(ClientNode, "file-a").Chosen, Fast.get());
  Fast->setUp(false);
  SelectionResult R = Sel.select(ClientNode, "file-a");
  EXPECT_NE(R.Chosen, Fast.get());
  EXPECT_NE(R.Chosen, nullptr);
  EXPECT_EQ(Sel.scoreAll(ClientNode, "file-a").size(), 3u)
      << "the report still covers down holders (operator view)";
  Fast->setUp(true);
  EXPECT_EQ(Sel.select(ClientNode, "file-a").Chosen, Fast.get());
}

TEST_F(ReplicaFixture, BreakerFlipGatesSelection) {
  HealthConfig HC;
  HC.MinSamples = 2;
  HealthTracker T(Sim, HC);
  CostModelPolicy P;
  ReplicaSelector Sel(Cat, *Info, P);
  Sel.setHealthTracker(&T);
  EXPECT_EQ(Sel.select(ClientNode, "file-a").Chosen, Fast.get());
  T.recordFailure(*Fast);
  T.recordFailure(*Fast); // EWMA 0.51 >= 0.5: trips the breaker.
  // The breaker gate reads health state on every call.
  SelectionResult R = Sel.select(ClientNode, "file-a");
  EXPECT_NE(R.Chosen, Fast.get());
  EXPECT_NE(R.Chosen, nullptr);
}

TEST(SelectionPathTtl, ScoreAllRecreatesEvictedPath) {
  Simulator Sim(5);
  Topology Topo;
  NodeId C = Topo.addNode("client");
  NodeId S = Topo.addNode("server");
  Topo.addLink(C, S, gbps(1), milliseconds(1));
  Routing Router(Topo);
  FlowNetwork Net(Sim, Topo, Router);
  Host Client(Sim, mkHost("client"), C);
  Host Server(Sim, mkHost("server"), S);
  InformationServiceConfig IC;
  IC.PathSensorTtl = 30.0;
  InformationService Info(Sim, Net, IC);
  Info.registerHost(Client);
  Info.registerHost(Server);
  ReplicaCatalog Cat;
  Cat.registerFile("f", megabytes(8));
  Cat.addReplica("f", Server);
  CostModelPolicy P;
  ReplicaSelector Sel(Cat, Info, P);

  Sim.runUntil(10.0);
  ASSERT_EQ(Sel.scoreAll(C, "f").size(), 1u);
  EXPECT_EQ(Info.pathSensorCount(), 1u);

  // Idle past the TTL: the sweep destroys the path's sensor.
  Sim.runUntil(100.0);
  EXPECT_EQ(Info.pathSensorCount(), 0u);

  // The next report recreates the path.
  auto Reports = Sel.scoreAll(C, "f");
  ASSERT_EQ(Reports.size(), 1u);
  EXPECT_EQ(Reports[0].Candidate, &Server);
  EXPECT_EQ(Info.pathSensorCount(), 1u);
}

//===----------------------------------------------------------------------===//
// ReplicaManager
//===----------------------------------------------------------------------===//

TEST_F(ReplicaFixture, PublishRegistersWithoutTransfer) {
  CostModelPolicy P;
  ReplicaSelector Sel(Cat, *Info, P);
  ReplicaManager RM(Cat, Sel, *Mgr);
  RM.publish("file-b", megabytes(10), *Fast);
  EXPECT_TRUE(Cat.hasFile("file-b"));
  EXPECT_EQ(Cat.locateRef("file-b").size(), 1u);
  EXPECT_EQ(Mgr->completedTransfers(), 0u);
}

TEST_F(ReplicaFixture, FetchRegistersOnlyAfterLastByte) {
  CostModelPolicy P;
  ReplicaSelector Sel(Cat, *Info, P);
  ReplicaManager RM(Cat, Sel, *Mgr);
  bool Done = false;
  FetchResult Result;
  RM.fetch("file-a", *ClientHost, {}, [&](const FetchResult &R) {
    Result = R;
    Done = true;
  });
  // Not yet registered: the data is still moving.
  EXPECT_EQ(Cat.locateRef("file-a").size(), 3u);
  Sim.run();
  EXPECT_TRUE(Done);
  EXPECT_TRUE(Result.Succeeded);
  EXPECT_EQ(Result.Lfn, "file-a");
  EXPECT_EQ(Cat.locateRef("file-a").size(), 4u);
  EXPECT_EQ(Cat.replicaAt("file-a", ClientNode), ClientHost.get());
  EXPECT_GT(Result.EndTime - Result.StartTime, 0.0);
  EXPECT_DOUBLE_EQ(Result.FileBytes, megabytes(256));
}

TEST_F(ReplicaFixture, FetchAtAHolderIsALocalHit) {
  CostModelPolicy P;
  ReplicaSelector Sel(Cat, *Info, P);
  ReplicaManager RM(Cat, Sel, *Mgr);
  bool Done = false;
  RM.fetch("file-a", *Fast, {}, [&](const FetchResult &R) {
    EXPECT_TRUE(R.Succeeded);
    EXPECT_TRUE(R.LocalHit);
    EXPECT_EQ(R.FinalSource, Fast.get());
    EXPECT_DOUBLE_EQ(R.EndTime - R.StartTime, 0.0);
    Done = true;
  });
  // The callback fired synchronously, and no data moved.
  EXPECT_TRUE(Done);
  EXPECT_EQ(Mgr->activeTransfers(), 0u);
  EXPECT_EQ(Mgr->completedTransfers(), 0u);
  EXPECT_EQ(Cat.locateRef("file-a").size(), 3u);
}

TEST_F(ReplicaFixture, RemoveRefusesLastCopy) {
  CostModelPolicy P;
  ReplicaSelector Sel(Cat, *Info, P);
  ReplicaManager RM(Cat, Sel, *Mgr);
  EXPECT_TRUE(RM.remove("file-a", *Slow));
  EXPECT_TRUE(RM.remove("file-a", *MidH));
  EXPECT_FALSE(RM.remove("file-a", *Fast)); // Last copy: refused.
  EXPECT_EQ(Cat.locateRef("file-a").size(), 1u);
}
