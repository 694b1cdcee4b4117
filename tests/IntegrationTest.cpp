//===- tests/IntegrationTest.cpp - Cross-module end-to-end scenarios ------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scenarios that exercise the full stack at once: the Fig 1 loop under
/// link failures, selection + dynamic replication + co-allocation
/// together, whole-stack determinism, and the monitoring layer observing
/// real transfer traffic.
///
//===----------------------------------------------------------------------===//

#include "grid/DynamicReplicator.h"
#include "grid/Experiment.h"
#include "grid/Testbed.h"
#include "replica/CoAllocator.h"

#include <gtest/gtest.h>

using namespace dgsim;
using namespace dgsim::units;

TEST(Integration, WorkloadSurvivesLinkFlaps) {
  PaperTestbedOptions O;
  O.DynamicLoad = false;
  O.CrossTraffic = false;
  PaperTestbed T(O);
  T.publishFileA();
  CostModelPolicy Policy;
  ReplicaSelector Sel(T.grid().catalog(), T.grid().info(), Policy);
  WorkloadConfig W;
  W.JobCount = 8;
  W.MeanInterarrival = 90.0;
  W.App.Streams = 8;
  Workload Load(T.grid(), Sel, {&T.hit(3), &T.lz(4)}, W);
  Load.start();

  // Flap the THU access link (id: find by endpoints) every 120 s.
  const Topology &Topo = T.grid().topology();
  LinkId ThuAccess = ~0u;
  NodeId Tanet = Topo.findNode("tanet");
  NodeId ThuSw = Topo.findNode("thu-sw");
  for (LinkId L = 0; L != Topo.linkCount(); ++L) {
    const NetLink &Ln = Topo.link(L);
    if ((Ln.A == Tanet && Ln.B == ThuSw) ||
        (Ln.B == Tanet && Ln.A == ThuSw))
      ThuAccess = L;
  }
  ASSERT_NE(ThuAccess, ~0u);
  for (int I = 0; I < 5; ++I) {
    T.sim().schedule(120.0 + 240.0 * I, [&T, ThuAccess] {
      T.grid().network().setLinkEnabled(ThuAccess, false);
    });
    T.sim().schedule(180.0 + 240.0 * I, [&T, ThuAccess] {
      T.grid().network().setLinkEnabled(ThuAccess, true);
    });
  }
  T.sim().run();
  // Every job finishes despite the outages (flows stall and resume).
  EXPECT_TRUE(Load.finished());
  EXPECT_EQ(Load.stats().jobCount(), 8u);
}

TEST(Integration, ReplicationThenCoAllocationCompound) {
  // Selection + replication put a copy near the clients; co-allocation
  // then aggregates the old and the new copy.
  PaperTestbedOptions O;
  O.DynamicLoad = false;
  O.CrossTraffic = false;
  PaperTestbed T(O);
  ReplicaCatalog &Cat = T.grid().catalog();
  Cat.registerFile("data", megabytes(512));
  Cat.addReplica("data", T.alpha(4));
  T.sim().runUntil(30.0);

  CostModelPolicy Policy;
  ReplicaSelector Sel(Cat, T.grid().info(), Policy);
  ReplicaManager Manager(Cat, Sel, T.grid().transfers());

  // Replicate to a second THU host to enable dual-source fetching.
  bool Replicated = false;
  FetchOptions FO;
  FO.Streams = 8;
  Manager.fetch("data", T.alpha(3), FO,
                [&](const FetchResult &R) { Replicated = R.Succeeded; });
  T.sim().run();
  ASSERT_TRUE(Replicated);
  ASSERT_EQ(Cat.locateRef("data").size(), 2u);

  // Single- vs dual-source fetch to hit3 (TCP-bound per source).
  auto Fetch = [&](size_t MaxSources) {
    CoAllocationConfig C;
    C.MaxSources = MaxSources;
    C.StreamsPerSource = 8;
    CoAllocator CA(Cat, T.grid().info(), T.grid().transfers(), C);
    double Seconds = -1.0;
    CA.fetch("data", T.hit(3),
             [&](const TransferResult &R) { Seconds = R.totalSeconds(); });
    T.sim().run();
    return Seconds;
  };
  double Single = Fetch(1);
  double Dual = Fetch(2);
  EXPECT_LT(Dual, Single * 0.9);
}

TEST(Integration, FullStackDeterminism) {
  // The complete stack — dynamic hosts, cross traffic, monitoring,
  // workload, replication — reproduces run-for-run.
  auto Run = [] {
    PaperTestbed T;
    T.publishFileA();
    T.grid().catalog().registerFile("aux", megabytes(128));
    T.grid().catalog().addReplica("aux", T.hit(2));
    CostModelPolicy Policy;
    ReplicaSelector Sel(T.grid().catalog(), T.grid().info(), Policy);
    ReplicaManager Manager(T.grid().catalog(), Sel, T.grid().transfers());
    DynamicReplicationConfig C;
    C.AccessThreshold = 2;
    DynamicReplicator Rep(T.grid(), Manager, C);
    WorkloadConfig W;
    W.JobCount = 10;
    W.MeanInterarrival = 60.0;
    Workload Load(T.grid(), Sel, {&T.alpha(1), &T.lz(3)}, W);
    Load.setJobObserver([&Rep](const JobRecord &R) { Rep.onJob(R); });
    Load.start();
    T.sim().run();
    double Sum = 0.0;
    for (const JobRecord &R : Load.stats().Records)
      Sum += R.totalSeconds();
    return Sum;
  };
  double A = Run();
  double B = Run();
  EXPECT_DOUBLE_EQ(A, B);
}

TEST(Integration, MonitoringSeesTransferTraffic) {
  PaperTestbedOptions O;
  O.DynamicLoad = false;
  O.CrossTraffic = false;
  PaperTestbed T(O);
  InformationService &Info = T.grid().info();
  // Watch the 30 Mb/s Li-Zen path, where a bulk transfer genuinely
  // contends with the probe (the gigabit paths have headroom for both).
  Info.watchPath(T.alpha(1).node(), T.lz(2).node());
  T.sim().runUntil(30.0);
  const Sensor *Bw = Info.bandwidthSensor(T.alpha(1).node(),
                                          T.lz(2).node());
  double QuietForecast = Bw->forecast();

  // A long bulk transfer out of the same site depresses probe readings.
  TransferSpec Spec;
  Spec.Source = &T.lz(2);
  Spec.Destination = &T.alpha(2);
  Spec.FileBytes = gigabytes(8);
  Spec.Streams = 16;
  T.grid().transfers().submit(Spec, nullptr);
  T.sim().runUntil(120.0);
  EXPECT_LT(Bw->lastValue(), QuietForecast * 0.8);
}

TEST(Integration, Fig1ScenarioEndToEnd) {
  // The complete Fig 1 walk-through as prose: login at alpha1, request
  // file-a, catalog lookup, factor queries, selection, GridFTP fetch,
  // computation, result.
  PaperTestbed T;
  T.publishFileA();
  T.sim().runUntil(30.0);

  CostModelPolicy Policy;
  ReplicaSelector Sel(T.grid().catalog(), T.grid().info(), Policy);
  Application App(T.grid(), Sel);
  JobRecord Done;
  bool Finished = false;
  App.runJob(T.alpha(1), PaperTestbed::FileA, [&](const JobRecord &R) {
    Done = R;
    Finished = true;
  });
  T.sim().run();
  ASSERT_TRUE(Finished);
  EXPECT_EQ(Done.Fetch.FinalSource, &T.alpha(4)); // Same-campus copy.
  EXPECT_GT(Done.Fetch.FileBytes * 8.0 / Done.transferSeconds(), mbps(50));
  EXPECT_GT(Done.ComputeSeconds, 0.0);
  EXPECT_DOUBLE_EQ(Done.Fetch.FileBytes, megabytes(1024));
}
