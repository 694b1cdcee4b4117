//===- tests/GridTest.cpp - Integration tests for the grid core -----------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "grid/Application.h"
#include "grid/DataGrid.h"
#include "grid/Experiment.h"
#include "grid/Testbed.h"
#include "support/Units.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

using namespace dgsim;
using namespace dgsim::units;

//===----------------------------------------------------------------------===//
// DataGrid facade
//===----------------------------------------------------------------------===//

TEST(DataGrid, BuildsSitesAndHosts) {
  GridSpec Spec;
  SiteConfig S;
  S.Name = "demo";
  S.Hosts.resize(3);
  S.Hosts[0].Name = "n0";
  S.Hosts[1].Name = "n1";
  S.Hosts[2].Name = "n2";
  Spec.Sites.push_back(S);
  std::unique_ptr<DataGrid> G = DataGrid::buildFrom(Spec);
  ASSERT_NE(G->findSite("demo"), nullptr);
  EXPECT_EQ(G->findSite("demo")->hostCount(), 3u);
  EXPECT_EQ(G->findSite("nope"), nullptr);
  EXPECT_NE(G->findHost("n1"), nullptr);
  EXPECT_EQ(G->findHost("n9"), nullptr);
  EXPECT_EQ(G->allHosts().size(), 3u);
  // 3 hosts + 1 switch, 3 LAN links.
  EXPECT_EQ(G->topology().nodeCount(), 4u);
  EXPECT_EQ(G->topology().linkCount(), 3u);
}

TEST(DataGrid, ConnectedSitesCanTransfer) {
  GridSpec Spec;
  Spec.Seed = 2;
  for (const char *Name : {"a", "b"}) {
    SiteConfig S;
    S.Name = Name;
    S.Hosts.resize(1);
    S.Hosts[0].Name = std::string(Name) + "0";
    S.Hosts[0].LoadVolatility = 0.0;
    S.Hosts[0].CpuMeanLoad = 0.0;
    S.Hosts[0].IoMeanLoad = 0.0;
    Spec.Sites.push_back(S);
  }
  Spec.Links.push_back({"a", "b", mbps(100), milliseconds(5)});
  std::unique_ptr<DataGrid> G = DataGrid::buildFrom(Spec);

  TransferSpec Fetch;
  Fetch.Source = G->findHost("a0");
  Fetch.Destination = G->findHost("b0");
  Fetch.FileBytes = megabytes(64);
  Fetch.Protocol = TransferProtocol::GridFtpModeE;
  Fetch.Streams = 8;
  bool Done = false;
  G->transfers().submit(Fetch, [&](const TransferResult &R) {
    Done = true;
    EXPECT_GT(R.meanThroughput(), mbps(50));
  });
  G->sim().run();
  EXPECT_TRUE(Done);
}

//===----------------------------------------------------------------------===//
// PaperTestbed
//===----------------------------------------------------------------------===//

TEST(PaperTestbed, NamesMatchThePaper) {
  PaperTestbedOptions O;
  O.DynamicLoad = false;
  O.CrossTraffic = false;
  PaperTestbed T(O);
  EXPECT_EQ(T.alpha(1).name(), "alpha1");
  EXPECT_EQ(T.alpha(4).name(), "alpha4");
  EXPECT_EQ(T.lz(2).name(), "lz02");
  EXPECT_EQ(T.lz(4).name(), "lz04");
  EXPECT_EQ(T.hit(0).name(), "hit0");
  EXPECT_EQ(T.hit(3).name(), "hit3");
  EXPECT_EQ(T.grid().allHosts().size(), 12u);
}

TEST(PaperTestbed, HeterogeneousCpuSpeeds) {
  PaperTestbedOptions O;
  O.DynamicLoad = false;
  PaperTestbed T(O);
  EXPECT_GT(T.hit(0).config().CpuSpeed, T.alpha(1).config().CpuSpeed);
  EXPECT_GT(T.alpha(1).config().CpuSpeed, T.lz(1).config().CpuSpeed);
}

TEST(PaperTestbed, PublishFileACreatesThreeReplicas) {
  PaperTestbedOptions O;
  O.DynamicLoad = false;
  O.CrossTraffic = false;
  PaperTestbed T(O);
  T.publishFileA();
  T.publishFileA(); // Idempotent.
  auto Locations = T.grid().catalog().locateRef(PaperTestbed::FileA);
  ASSERT_EQ(Locations.size(), 3u);
  EXPECT_DOUBLE_EQ(T.grid().catalog().fileSize(PaperTestbed::FileA),
                   megabytes(1024));
}

TEST(PaperTestbed, ThuHitPathIsWindowLimited) {
  PaperTestbedOptions O;
  O.DynamicLoad = false;
  O.CrossTraffic = false;
  PaperTestbed T(O);
  const NetPath *Path = T.grid().network().routing().pathRef(
      T.alpha(1).node(), T.hit(3).node());
  ASSERT_NE(Path, nullptr);
  double OneStream = TcpModel::perStreamCap(*Path);
  // Window bound binds well below the gigabit path.
  EXPECT_LT(OneStream, mbps(200));
  EXPECT_GT(OneStream, mbps(20));
  EXPECT_DOUBLE_EQ(Path->BottleneckCapacity, gbps(1));
}

TEST(PaperTestbed, LiZenPathIsLossLimited) {
  PaperTestbedOptions O;
  O.DynamicLoad = false;
  O.CrossTraffic = false;
  PaperTestbed T(O);
  const NetPath *Path = T.grid().network().routing().pathRef(
      T.alpha(2).node(), T.lz(4).node());
  ASSERT_NE(Path, nullptr);
  double OneStream = TcpModel::perStreamCap(*Path);
  // One stream gets well under half the 30 Mb/s access link, so 2 and 4
  // streams have room to scale: the Fig 4 precondition.
  EXPECT_LT(OneStream, mbps(14));
  EXPECT_GT(OneStream, mbps(4));
  EXPECT_DOUBLE_EQ(Path->BottleneckCapacity, mbps(30));
}

TEST(PaperTestbed, DeterministicAcrossIdenticalRuns) {
  auto RunOnce = [] {
    PaperTestbed T; // Dynamic load and cross traffic on.
    T.publishFileA();
    TransferSpec Spec;
    Spec.Source = &T.hit(0);
    Spec.Destination = &T.alpha(1);
    Spec.FileBytes = megabytes(256);
    Spec.Protocol = TransferProtocol::GridFtpModeE;
    Spec.Streams = 4;
    double End = -1.0;
    T.grid().transfers().submit(
        Spec, [&](const TransferResult &R) { End = R.EndTime; });
    T.sim().runUntil(600.0);
    return End;
  };
  double A = RunOnce();
  double B = RunOnce();
  EXPECT_GT(A, 0.0);
  EXPECT_DOUBLE_EQ(A, B);
}

//===----------------------------------------------------------------------===//
// Table 1 shape: cost ranking equals transfer-time ranking
//===----------------------------------------------------------------------===//

namespace {

/// Measures the actual GridFTP fetch time of file-a from each candidate to
/// alpha1, serially on a fresh testbed each time (so measurements do not
/// disturb each other).
std::map<std::string, double> measureFetchTimes(bool Dynamic) {
  std::map<std::string, double> Times;
  for (const char *Source : {"alpha4", "hit0", "lz02"}) {
    PaperTestbedOptions O;
    O.DynamicLoad = Dynamic;
    O.CrossTraffic = Dynamic;
    PaperTestbed T(O);
    T.publishFileA();
    T.sim().runUntil(30.0); // Same warm-up in every run.
    TransferSpec Spec;
    Spec.Source = T.grid().findHost(Source);
    Spec.Destination = &T.alpha(1);
    Spec.FileBytes = megabytes(1024);
    Spec.Protocol = TransferProtocol::GridFtpModeE;
    Spec.Streams = 8;
    double Total = -1.0;
    T.grid().transfers().submit(
        Spec, [&](const TransferResult &R) { Total = R.totalSeconds(); });
    T.sim().run();
    Times[Source] = Total;
  }
  return Times;
}

} // namespace

TEST(Table1Shape, CostRankingMatchesTransferTimeRanking) {
  // Scores from a warmed-up dynamic testbed.
  PaperTestbed T;
  T.publishFileA();
  T.sim().runUntil(30.0);
  CostModelPolicy Policy; // 0.8 / 0.1 / 0.1
  ReplicaSelector Sel(T.grid().catalog(), T.grid().info(), Policy);
  auto Reports = Sel.scoreAll(T.alpha(1).node(), PaperTestbed::FileA);
  ASSERT_EQ(Reports.size(), 3u);
  std::map<std::string, double> Score;
  for (const CandidateReport &C : Reports)
    Score[C.Candidate->name()] = C.Score;

  auto Times = measureFetchTimes(/*Dynamic=*/true);

  // The same-campus gigabit replica wins, the 30 Mb/s one loses, and the
  // score order is exactly the inverse of the transfer-time order.
  EXPECT_GT(Score["alpha4"], Score["hit0"]);
  EXPECT_GT(Score["hit0"], Score["lz02"]);
  EXPECT_LT(Times["alpha4"], Times["hit0"]);
  EXPECT_LT(Times["hit0"], Times["lz02"]);
}

//===----------------------------------------------------------------------===//
// Application + Workload
//===----------------------------------------------------------------------===//

namespace {

struct AppFixture : ::testing::Test {
  PaperTestbedOptions O;
  std::unique_ptr<PaperTestbed> T;
  std::unique_ptr<CostModelPolicy> Policy;
  std::unique_ptr<ReplicaSelector> Sel;

  void SetUp() override {
    O.DynamicLoad = false;
    O.CrossTraffic = false;
    T = std::make_unique<PaperTestbed>(O);
    T->publishFileA();
    Policy = std::make_unique<CostModelPolicy>();
    Sel = std::make_unique<ReplicaSelector>(T->grid().catalog(),
                                            T->grid().info(), *Policy);
  }
};

} // namespace

TEST_F(AppFixture, RemoteJobFetchesThenComputes) {
  Application App(T->grid(), *Sel);
  JobRecord Done;
  bool Finished = false;
  App.runJob(T->alpha(1), PaperTestbed::FileA, [&](const JobRecord &R) {
    Done = R;
    Finished = true;
  });
  T->sim().run();
  ASSERT_TRUE(Finished);
  EXPECT_TRUE(Done.Fetch.Succeeded);
  EXPECT_FALSE(Done.Fetch.LocalHit);
  EXPECT_EQ(Done.Fetch.FinalSource, &T->alpha(4)); // Same-site replica wins.
  EXPECT_GT(Done.transferSeconds(), 0.0);
  EXPECT_GT(Done.ComputeSeconds, 0.0);
  EXPECT_NEAR(Done.totalSeconds(),
              Done.transferSeconds() + Done.ComputeSeconds, 1e-6);
}

TEST_F(AppFixture, LocalJobSkipsTransfer) {
  T->grid().catalog().addReplica(PaperTestbed::FileA, T->alpha(1));
  Application App(T->grid(), *Sel);
  JobRecord Done;
  App.runJob(T->alpha(1), PaperTestbed::FileA,
             [&](const JobRecord &R) { Done = R; });
  T->sim().run();
  EXPECT_TRUE(Done.Fetch.LocalHit);
  EXPECT_DOUBLE_EQ(Done.transferSeconds(), 0.0);
  EXPECT_GT(Done.ComputeSeconds, 0.0);
}

TEST_F(AppFixture, SlowHostComputesLonger) {
  // Publish a local replica on both hosts so compute time dominates.
  T->grid().catalog().addReplica(PaperTestbed::FileA, T->alpha(1));
  T->grid().catalog().addReplica(PaperTestbed::FileA, T->lz(1));
  Application App(T->grid(), *Sel);
  JobRecord Fast, Slow;
  App.runJob(T->alpha(1), PaperTestbed::FileA,
             [&](const JobRecord &R) { Fast = R; });
  App.runJob(T->lz(1), PaperTestbed::FileA,
             [&](const JobRecord &R) { Slow = R; });
  T->sim().run();
  EXPECT_GT(Slow.ComputeSeconds, Fast.ComputeSeconds * 2.0);
}

TEST_F(AppFixture, WorkloadRunsAllJobs) {
  WorkloadConfig W;
  W.JobCount = 12;
  W.MeanInterarrival = 60.0;
  W.App.Streams = 8;
  Workload Load(T->grid(), *Sel,
                {&T->alpha(1), &T->alpha(2), &T->hit(1)}, W);
  Load.start();
  T->sim().run();
  EXPECT_TRUE(Load.finished());
  EXPECT_EQ(Load.stats().jobCount(), 12u);
  EXPECT_GT(Load.stats().TotalSeconds.mean(), 0.0);
  // alpha-site clients pull from alpha4 locally... not a *local* hit
  // (different host), so transfers happen.
  EXPECT_GT(Load.stats().TransferSeconds.count(), 0u);
}

TEST_F(AppFixture, WorkloadHonoursExplicitPopularityList) {
  T->grid().catalog().registerFile("rare", megabytes(8));
  T->grid().catalog().addReplica("rare", T->hit(2));
  WorkloadConfig W;
  W.JobCount = 25;
  W.MeanInterarrival = 30.0;
  W.ZipfExponent = 5.0;  // Essentially always rank 0.
  W.Files = {"rare"};    // Only the explicit list is used.
  Workload Load(T->grid(), *Sel, {&T->alpha(1)}, W);
  Load.start();
  T->sim().run();
  ASSERT_TRUE(Load.finished());
  for (const JobRecord &R : Load.stats().Records)
    EXPECT_EQ(R.Fetch.Lfn, "rare");
}

TEST_F(AppFixture, WorkloadObserverSeesEveryJob) {
  WorkloadConfig W;
  W.JobCount = 9;
  W.MeanInterarrival = 45.0;
  Workload Load(T->grid(), *Sel, {&T->alpha(1)}, W);
  size_t Observed = 0;
  Load.setJobObserver([&](const JobRecord &R) {
    EXPECT_FALSE(R.Fetch.Lfn.empty());
    EXPECT_GE(R.FinishTime, R.Fetch.StartTime);
    ++Observed;
  });
  Load.start();
  T->sim().run();
  EXPECT_EQ(Observed, 9u);
}

TEST(DataGrid, SiteOfResolvesMembership) {
  PaperTestbedOptions O;
  O.DynamicLoad = false;
  O.CrossTraffic = false;
  PaperTestbed T(O);
  EXPECT_EQ(T.grid().siteOf(T.alpha(2))->name(), "thu");
  EXPECT_EQ(T.grid().siteOf(T.lz(1))->name(), "lizen");
  EXPECT_EQ(T.grid().siteOf(T.hit(3))->name(), "hit");
  // A host outside the grid is not claimed by any site.
  Simulator OtherSim(1);
  HostConfig HC;
  HC.Name = "foreign";
  Host Foreign(OtherSim, HC, 0);
  EXPECT_EQ(T.grid().siteOf(Foreign), nullptr);
}

TEST_F(AppFixture, ExperimentStatsAggregation) {
  ExperimentStats S;
  JobRecord R;
  R.Fetch.StartTime = 0.0;
  R.FinishTime = 10.0;
  R.Fetch.LocalHit = true;
  S.add(R);
  R.Fetch.LocalHit = false;
  R.Fetch.EndTime = 4.0;
  S.add(R);
  EXPECT_EQ(S.jobCount(), 2u);
  EXPECT_DOUBLE_EQ(S.localHitRate(), 0.5);
  EXPECT_EQ(S.TransferSeconds.count(), 1u);
  EXPECT_DOUBLE_EQ(S.TransferSeconds.mean(), 4.0);
  EXPECT_DOUBLE_EQ(S.TotalSeconds.mean(), 10.0);
}
