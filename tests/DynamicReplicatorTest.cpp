//===- tests/DynamicReplicatorTest.cpp - Demand-driven replication --------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "grid/DynamicReplicator.h"
#include "grid/Experiment.h"
#include "grid/Testbed.h"
#include "support/Statistics.h"

#include <gtest/gtest.h>

using namespace dgsim;
using namespace dgsim::units;

namespace {

struct ReplicatorFixture : ::testing::Test {
  PaperTestbedOptions O;
  std::unique_ptr<PaperTestbed> T;
  std::unique_ptr<CostModelPolicy> Policy;
  std::unique_ptr<ReplicaSelector> Sel;
  std::unique_ptr<ReplicaManager> Manager;

  void SetUp() override {
    O.DynamicLoad = false;
    O.CrossTraffic = false;
    T = std::make_unique<PaperTestbed>(O);
    // One file held only at HIT: THU clients must cross the WAN.
    T->grid().catalog().registerFile("hot-file", megabytes(256));
    T->grid().catalog().addReplica("hot-file", T->hit(0));
    Policy = std::make_unique<CostModelPolicy>();
    Sel = std::make_unique<ReplicaSelector>(T->grid().catalog(),
                                            T->grid().info(), *Policy);
    Manager = std::make_unique<ReplicaManager>(
        T->grid().catalog(), *Sel, T->grid().transfers());
  }

  JobRecord remoteJob(Host &Client, const char *Lfn = "hot-file") {
    JobRecord R;
    R.Client = &Client;
    R.Fetch.Lfn = Lfn;
    R.Fetch.FinalSource = &T->hit(0);
    R.Fetch.LocalHit = false;
    return R;
  }
};

} // namespace

TEST_F(ReplicatorFixture, ThresholdTriggersReplication) {
  DynamicReplicationConfig C;
  C.AccessThreshold = 3;
  DynamicReplicator Rep(T->grid(), *Manager, C);
  Rep.onJob(remoteJob(T->alpha(1)));
  Rep.onJob(remoteJob(T->alpha(2)));
  EXPECT_EQ(Rep.replicationsStarted(), 0u); // Below threshold.
  Rep.onJob(remoteJob(T->alpha(1)));
  EXPECT_EQ(Rep.replicationsStarted(), 1u);
  T->sim().run();
  EXPECT_EQ(Rep.replicationsCompleted(), 1u);
  // The THU site storage host (alpha1, first host) now holds a copy.
  EXPECT_NE(T->grid().catalog().replicaAt("hot-file", T->alpha(1).node()),
            nullptr);
}

TEST_F(ReplicatorFixture, LocalHitsDoNotCount) {
  DynamicReplicationConfig C;
  C.AccessThreshold = 2;
  DynamicReplicator Rep(T->grid(), *Manager, C);
  JobRecord Local = remoteJob(T->alpha(1));
  Local.Fetch.LocalHit = true;
  for (int I = 0; I < 5; ++I)
    Rep.onJob(Local);
  EXPECT_EQ(Rep.replicationsStarted(), 0u);
}

TEST_F(ReplicatorFixture, SameSiteFetchesDoNotCount) {
  DynamicReplicationConfig C;
  C.AccessThreshold = 2;
  DynamicReplicator Rep(T->grid(), *Manager, C);
  JobRecord R = remoteJob(T->hit(1)); // hit1 pulls from hit0: campus LAN.
  for (int I = 0; I < 5; ++I)
    Rep.onJob(R);
  EXPECT_EQ(Rep.replicationsStarted(), 0u);
}

TEST_F(ReplicatorFixture, WindowExpiresOldAccesses) {
  DynamicReplicationConfig C;
  C.AccessThreshold = 3;
  C.Window = 100.0;
  DynamicReplicator Rep(T->grid(), *Manager, C);
  Rep.onJob(remoteJob(T->alpha(1)));
  T->sim().runUntil(200.0); // First access ages out of the window.
  Rep.onJob(remoteJob(T->alpha(1)));
  Rep.onJob(remoteJob(T->alpha(1)));
  EXPECT_EQ(Rep.replicationsStarted(), 0u);
  Rep.onJob(remoteJob(T->alpha(1)));
  EXPECT_EQ(Rep.replicationsStarted(), 1u);
}

TEST_F(ReplicatorFixture, NoDuplicateInFlightReplication) {
  DynamicReplicationConfig C;
  C.AccessThreshold = 1;
  DynamicReplicator Rep(T->grid(), *Manager, C);
  // Multiple triggers before the first replication lands.
  Rep.onJob(remoteJob(T->alpha(1)));
  Rep.onJob(remoteJob(T->alpha(2)));
  Rep.onJob(remoteJob(T->alpha(3)));
  EXPECT_EQ(Rep.replicationsStarted(), 1u);
  T->sim().run();
  EXPECT_EQ(Rep.replicationsCompleted(), 1u);
}

TEST_F(ReplicatorFixture, FailedReplicationIsNotCompleted) {
  // One attempt per stripe, and hit0 holds the only copy: when its
  // storage goes offline mid-copy the fetch has nowhere to fail over to.
  RetryPolicy OneAttempt;
  OneAttempt.MaxAttempts = 1;
  T->grid().transfers().setRetryPolicy(OneAttempt);
  DynamicReplicationConfig C;
  C.AccessThreshold = 1;
  DynamicReplicator Rep(T->grid(), *Manager, C);
  Rep.onJob(remoteJob(T->alpha(2)));
  ASSERT_EQ(Rep.replicationsStarted(), 1u);
  T->sim().schedule(5.0, [this] {
    T->hit(0).setStorageUp(false);
    T->grid().transfers().failHost(T->hit(0), /*MachineDown=*/false);
  });
  T->sim().run();
  EXPECT_EQ(Manager->failedFetches(), 1u);
  EXPECT_EQ(Rep.replicationsStarted(), 1u);
  EXPECT_EQ(Rep.replicationsCompleted(), 0u);
  EXPECT_EQ(T->grid().catalog().replicaAt("hot-file", T->alpha(1).node()),
            nullptr);
}

TEST_F(ReplicatorFixture, RespectsReplicaCap) {
  DynamicReplicationConfig C;
  C.AccessThreshold = 1;
  C.MaxReplicasPerFile = 1; // Already at the cap (hit0 holds it).
  DynamicReplicator Rep(T->grid(), *Manager, C);
  Rep.onJob(remoteJob(T->alpha(1)));
  EXPECT_EQ(Rep.replicationsStarted(), 0u);
}

TEST_F(ReplicatorFixture, CustomStorageHost) {
  DynamicReplicationConfig C;
  C.AccessThreshold = 1;
  DynamicReplicator Rep(T->grid(), *Manager, C);
  Rep.setStorageHost("thu", T->alpha(4));
  Rep.onJob(remoteJob(T->alpha(2)));
  T->sim().run();
  EXPECT_NE(T->grid().catalog().replicaAt("hot-file", T->alpha(4).node()),
            nullptr);
  EXPECT_EQ(T->grid().catalog().replicaAt("hot-file", T->alpha(1).node()),
            nullptr);
}

TEST_F(ReplicatorFixture, EndToEndWorkloadGetsFasterWithReplication) {
  // Two identical workloads of Li-Zen clients (behind the 30 Mb/s WAN
  // link) hammering the HIT-only file; one with the replicator wired in.
  // Once a campus replica exists, fetches ride the 100 Mb/s LAN instead.
  auto Run = [](bool Replicate) {
    PaperTestbedOptions Opts;
    Opts.DynamicLoad = false;
    Opts.CrossTraffic = false;
    PaperTestbed Bed(Opts);
    Bed.grid().catalog().registerFile("hot-file", megabytes(256));
    Bed.grid().catalog().addReplica("hot-file", Bed.hit(0));
    CostModelPolicy Pol;
    ReplicaSelector Slct(Bed.grid().catalog(), Bed.grid().info(), Pol);
    ReplicaManager Mgr(Bed.grid().catalog(), Slct, Bed.grid().transfers());
    DynamicReplicationConfig C;
    C.AccessThreshold = 2;
    DynamicReplicator Rep(Bed.grid(), Mgr, C);
    Rep.setStorageHost("lizen", Bed.lz(1));
    WorkloadConfig W;
    W.JobCount = 12;
    W.MeanInterarrival = 240.0;
    W.App.Streams = 8;
    Workload Load(Bed.grid(), Slct, {&Bed.lz(2), &Bed.lz(3)}, W);
    if (Replicate)
      Load.setJobObserver(
          [&Rep](const JobRecord &R) { Rep.onJob(R); });
    Load.start();
    Bed.sim().run();
    // Mean transfer time of the last half of the jobs.
    RunningStats Tail;
    const auto &Records = Load.stats().Records;
    for (size_t I = Records.size() / 2; I < Records.size(); ++I)
      if (!Records[I].Fetch.LocalHit)
        Tail.add(Records[I].transferSeconds());
    return Tail.mean();
  };
  double Without = Run(false);
  double With = Run(true);
  EXPECT_LT(With, Without * 0.5); // LAN fetches replace WAN fetches.
}
