//===- tests/OverloadTest.cpp - Overload-control unit tests ---------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the overload-control stack: per-destination admission
/// (bounded queues, deterministic shed policies, deadlines) in the
/// transfer layer, the per-site health tracker and circuit breaker in the
/// replica layer, and the declarative open-loop workload generator.
///
//===----------------------------------------------------------------------===//

#include "grid/Testbed.h"
#include "grid/Workload.h"
#include "gridftp/TransferManager.h"
#include "net/FlowNetwork.h"
#include "replica/HealthTracker.h"
#include "replica/ReplicaManager.h"
#include "sim/Simulator.h"
#include "support/Units.h"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>

using namespace dgsim;
using namespace dgsim::units;

//===----------------------------------------------------------------------===//
// Admission control in the TransferManager
//===----------------------------------------------------------------------===//

namespace {

HostConfig quietHost(const std::string &Name) {
  HostConfig H;
  H.Name = Name;
  H.NicRate = gbps(1);
  H.Cpu.Volatility = 0.0;
  H.Cpu.MeanLoad = 0.0;
  H.DiskCfg.ReadRate = mbps(400);
  H.DiskCfg.WriteRate = mbps(400);
  H.DiskCfg.Background.MeanLoad = 0.0;
  H.DiskCfg.Background.Volatility = 0.0;
  return H;
}

/// Two source hosts feeding one destination across a 100 Mb/s bottleneck.
struct AdmissionFixture : ::testing::Test {
  Simulator Sim{41};
  Topology Topo;
  NodeId Mid;
  std::unique_ptr<Routing> Router;
  std::unique_ptr<FlowNetwork> Net;
  std::unique_ptr<Host> Src, Src2, Dst;
  std::unique_ptr<TransferManager> Mgr;

  void SetUp() override {
    NodeId SrcNode = Topo.addNode("src");
    NodeId Src2Node = Topo.addNode("src2");
    NodeId DstNode = Topo.addNode("dst");
    Mid = Topo.addNode("mid");
    Topo.addLink(SrcNode, Mid, gbps(1), milliseconds(1));
    Topo.addLink(Src2Node, Mid, gbps(1), milliseconds(1));
    Topo.addLink(Mid, DstNode, mbps(100), milliseconds(5));
    Router = std::make_unique<Routing>(Topo);
    Net = std::make_unique<FlowNetwork>(Sim, Topo, *Router);
    Src = std::make_unique<Host>(Sim, quietHost("src"), SrcNode);
    Src2 = std::make_unique<Host>(Sim, quietHost("src2"), Src2Node);
    Dst = std::make_unique<Host>(Sim, quietHost("dst"), DstNode);
    Mgr = std::make_unique<TransferManager>(Sim, *Net);
  }

  void setAdmission(unsigned MaxActive, unsigned Depth, ShedPolicy Shed) {
    AdmissionPolicy A;
    A.MaxActivePerDestination = MaxActive;
    A.QueueDepth = Depth;
    A.Shed = Shed;
    Mgr->setAdmissionPolicy(A);
  }

  TransferSpec spec(Bytes FileBytes,
                    SimTime Deadline =
                        std::numeric_limits<double>::infinity()) {
    TransferSpec S;
    S.Source = Src.get();
    S.Destination = Dst.get();
    S.FileBytes = FileBytes;
    S.Protocol = TransferProtocol::GridFtpModeE;
    S.Streams = 2;
    S.Deadline = Deadline;
    return S;
  }

  /// Submits and records the result (keyed by submission order) plus the
  /// completion order.
  TransferId submit(const TransferSpec &S, size_t Key) {
    return Mgr->submit(S, [this, Key](const TransferResult &R) {
      Results[Key] = R;
      FinishOrder.push_back(Key);
    });
  }

  std::map<size_t, TransferResult> Results;
  std::vector<size_t> FinishOrder;
};

} // namespace

TEST_F(AdmissionFixture, SerializesPerDestinationFifo) {
  setAdmission(/*MaxActive=*/1, /*Depth=*/8, ShedPolicy::Reject);
  for (size_t I = 0; I < 3; ++I)
    submit(spec(megabytes(8)), I);
  // Synchronous admission: one in flight, two parked.
  EXPECT_EQ(Mgr->activeTransfers(), 1u);
  EXPECT_EQ(Mgr->queuedTransfers(), 2u);
  Sim.run();

  ASSERT_EQ(Results.size(), 3u);
  ASSERT_EQ(FinishOrder.size(), 3u);
  // FIFO promotion: completion order is submission order.
  EXPECT_EQ(FinishOrder, (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(Mgr->completedTransfers(), 3u);
  EXPECT_EQ(Mgr->totalQueued(), 2u);
  EXPECT_EQ(Mgr->queuedTransfers(), 0u);

  // The first never waited; the others carry their queue time, and the
  // data phase excludes it.
  EXPECT_DOUBLE_EQ(Results[0].QueueSeconds, 0.0);
  EXPECT_GT(Results[1].QueueSeconds, 0.0);
  EXPECT_GT(Results[2].QueueSeconds, Results[1].QueueSeconds);
  for (size_t I = 0; I < 3; ++I) {
    EXPECT_EQ(Results[I].Status, TransferStatus::Completed);
    EXPECT_NEAR(Results[I].totalSeconds(),
                Results[I].QueueSeconds + Results[I].StartupSeconds +
                    Results[I].DataSeconds,
                1e-9);
  }
}

TEST_F(AdmissionFixture, DisabledPolicyIsPassThrough) {
  for (size_t I = 0; I < 3; ++I)
    submit(spec(megabytes(8)), I);
  EXPECT_EQ(Mgr->activeTransfers(), 3u);
  EXPECT_EQ(Mgr->queuedTransfers(), 0u);
  Sim.run();
  for (size_t I = 0; I < 3; ++I)
    EXPECT_DOUBLE_EQ(Results[I].QueueSeconds, 0.0);
  EXPECT_EQ(Mgr->totalQueued(), 0u);
  EXPECT_EQ(Mgr->totalShed(), 0u);
}

TEST_F(AdmissionFixture, RejectShedsTheNewcomer) {
  setAdmission(1, /*Depth=*/1, ShedPolicy::Reject);
  submit(spec(megabytes(8)), 0);  // in flight
  submit(spec(megabytes(8)), 1);  // queued
  submit(spec(megabytes(8)), 2);  // queue full: shed
  Sim.run();

  EXPECT_EQ(Results[2].Status, TransferStatus::Shed);
  EXPECT_DOUBLE_EQ(Results[2].DeliveredBytes, 0.0);
  EXPECT_DOUBLE_EQ(Results[2].QueueSeconds, 0.0);
  EXPECT_EQ(Results[0].Status, TransferStatus::Completed);
  EXPECT_EQ(Results[1].Status, TransferStatus::Completed);
  EXPECT_EQ(Mgr->totalShed(), 1u);
  EXPECT_EQ(Mgr->completedTransfers(), 2u);
}

TEST_F(AdmissionFixture, ShedOldestDisplacesTheQueueHead) {
  setAdmission(1, /*Depth=*/1, ShedPolicy::ShedOldest);
  submit(spec(megabytes(8)), 0);  // in flight
  submit(spec(megabytes(8)), 1);  // queued (head)
  submit(spec(megabytes(8)), 2);  // displaces #1
  Sim.run();

  EXPECT_EQ(Results[1].Status, TransferStatus::Shed);
  EXPECT_EQ(Results[2].Status, TransferStatus::Completed);
  EXPECT_EQ(FinishOrder.back(), 2u);
  EXPECT_EQ(Mgr->totalShed(), 1u);
}

TEST_F(AdmissionFixture, QueueDepthZeroShedsInsteadOfQueueing) {
  setAdmission(1, /*Depth=*/0, ShedPolicy::Reject);
  submit(spec(megabytes(8)), 0);
  submit(spec(megabytes(8)), 1); // no queue to wait in
  Sim.run();
  EXPECT_EQ(Results[0].Status, TransferStatus::Completed);
  EXPECT_EQ(Results[1].Status, TransferStatus::Shed);
}

TEST_F(AdmissionFixture, DeadlineExpiresWhileQueued) {
  setAdmission(1, /*Depth=*/4, ShedPolicy::Reject);
  submit(spec(megabytes(64)), 0);                  // ~6 s in flight
  submit(spec(megabytes(8), /*Deadline=*/2.0), 1); // dies in queue
  Sim.run();

  EXPECT_EQ(Results[1].Status, TransferStatus::DeadlineExpired);
  EXPECT_NEAR(Results[1].QueueSeconds, 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(Results[1].StartupSeconds, 0.0);
  EXPECT_DOUBLE_EQ(Results[1].DeliveredBytes, 0.0);
  EXPECT_EQ(Results[0].Status, TransferStatus::Completed);
  EXPECT_EQ(Mgr->totalDeadlineExpired(), 1u);
  EXPECT_EQ(Mgr->failedTransfers(), 0u);
}

TEST_F(AdmissionFixture, DeadlineExpiresMidFlight) {
  submit(spec(megabytes(64), /*Deadline=*/3.0), 0);
  Sim.run();
  EXPECT_EQ(Results[0].Status, TransferStatus::DeadlineExpired);
  EXPECT_NEAR(Results[0].EndTime, 3.0, 1e-9);
  EXPECT_LT(Results[0].DeliveredBytes, megabytes(64));
  EXPECT_EQ(Mgr->totalDeadlineExpired(), 1u);
  EXPECT_EQ(Mgr->activeTransfers(), 0u);
}

TEST_F(AdmissionFixture, PastDeadlineExpiresBeforeFirstByte) {
  submit(spec(megabytes(8), /*Deadline=*/0.0), 0);
  Sim.run();
  EXPECT_EQ(Results[0].Status, TransferStatus::DeadlineExpired);
  EXPECT_DOUBLE_EQ(Results[0].DeliveredBytes, 0.0);
  EXPECT_NEAR(Results[0].EndTime, 0.0, 1e-9);
}

TEST_F(AdmissionFixture, DeadlineEventCancelledOnCompletion) {
  // A generous deadline must not fire after the transfer completed (the
  // event is cancelled in teardown; a stale firing would assert).
  submit(spec(megabytes(8), /*Deadline=*/500.0), 0);
  Sim.run();
  EXPECT_EQ(Results[0].Status, TransferStatus::Completed);
  EXPECT_EQ(Mgr->totalDeadlineExpired(), 0u);
}

TEST_F(AdmissionFixture, CancelQueuedKeepsQueueConsistent) {
  setAdmission(1, /*Depth=*/4, ShedPolicy::Reject);
  submit(spec(megabytes(8)), 0);
  TransferId Queued = submit(spec(megabytes(8)), 1);
  submit(spec(megabytes(8)), 2);
  EXPECT_EQ(Mgr->queuedTransfers(), 2u);
  EXPECT_TRUE(Mgr->cancel(Queued));
  EXPECT_EQ(Mgr->queuedTransfers(), 1u);
  Sim.run();

  // The cancelled transfer never reports; the one queued behind it still
  // gets promoted and completes.
  EXPECT_EQ(Results.count(1), 0u);
  EXPECT_EQ(Results[0].Status, TransferStatus::Completed);
  EXPECT_EQ(Results[2].Status, TransferStatus::Completed);
  EXPECT_EQ(Mgr->queuedTransfers(), 0u);
}

TEST_F(AdmissionFixture, FailHostFailsQueuedTransfersToo) {
  setAdmission(1, /*Depth=*/4, ShedPolicy::Reject);
  submit(spec(megabytes(64)), 0);
  submit(spec(megabytes(8)), 1); // queued behind it
  Sim.schedule(1.0, [this] { Mgr->failHost(*Dst, /*MachineDown=*/true); });
  Sim.run();

  EXPECT_EQ(Results[0].Status, TransferStatus::Failed);
  EXPECT_EQ(Results[1].Status, TransferStatus::Failed);
  EXPECT_NEAR(Results[1].QueueSeconds, 1.0, 1e-9);
  EXPECT_EQ(Mgr->queuedTransfers(), 0u);
  EXPECT_EQ(Mgr->activeTransfers(), 0u);
}

//===----------------------------------------------------------------------===//
// HealthTracker and the circuit breaker
//===----------------------------------------------------------------------===//

namespace {

struct HealthFixture : ::testing::Test {
  Simulator Sim{7};
  Topology Topo;
  std::unique_ptr<Host> A, B;
  HealthConfig Cfg;

  void SetUp() override {
    A = std::make_unique<Host>(Sim, quietHost("a"), Topo.addNode("a"));
    B = std::make_unique<Host>(Sim, quietHost("b"), Topo.addNode("b"));
    Cfg.MinSamples = 2;
    Cfg.OpenSeconds = 20.0;
    Cfg.ProbeJitter = 0.0; // Exact windows for timing assertions.
  }
};

} // namespace

TEST_F(HealthFixture, ColdSitesAreAllowedWithPerfectScore) {
  HealthTracker T(Sim, Cfg);
  EXPECT_EQ(T.state(*A), BreakerState::Closed);
  EXPECT_TRUE(T.allows(*A));
  EXPECT_DOUBLE_EQ(T.healthScore(*A), 1.0);
  EXPECT_DOUBLE_EQ(T.failureRate(*A), 0.0);
  EXPECT_EQ(T.totalTrips(), 0u);
}

TEST_F(HealthFixture, SustainedFailuresTripTheBreaker) {
  HealthTracker T(Sim, Cfg);
  T.recordFailure(*A);
  EXPECT_EQ(T.state(*A), BreakerState::Closed) << "one blip must not trip";
  T.recordFailure(*A);
  // Failure EWMA after two failures: 0.3 + 0.7*0.3 = 0.51 >= 0.5.
  EXPECT_EQ(T.state(*A), BreakerState::Open);
  EXPECT_FALSE(T.allows(*A));
  EXPECT_EQ(T.totalTrips(), 1u);
  // The other site is unaffected.
  EXPECT_TRUE(T.allows(*B));
}

TEST_F(HealthFixture, MinSamplesShieldsColdSites) {
  Cfg.MinSamples = 5;
  HealthTracker T(Sim, Cfg);
  for (int I = 0; I < 4; ++I)
    T.recordFailure(*A);
  EXPECT_EQ(T.state(*A), BreakerState::Closed);
  T.recordFailure(*A);
  EXPECT_EQ(T.state(*A), BreakerState::Open);
}

TEST_F(HealthFixture, OpenWindowElapsesToSingleProbeHalfOpen) {
  HealthTracker T(Sim, Cfg);
  T.recordFailure(*A);
  T.recordFailure(*A);
  ASSERT_EQ(T.state(*A), BreakerState::Open);

  Sim.runUntil(Cfg.OpenSeconds - 0.5);
  EXPECT_EQ(T.state(*A), BreakerState::Open);
  Sim.runUntil(Cfg.OpenSeconds + 0.5);
  EXPECT_EQ(T.state(*A), BreakerState::HalfOpen);

  // Exactly one probe: the slot closes behind the first dispatch.
  EXPECT_TRUE(T.allows(*A));
  T.noteDispatch(*A);
  EXPECT_FALSE(T.allows(*A));
  // An abandoned probe (shed before reaching the site) frees the slot.
  T.noteAbandoned(*A);
  EXPECT_TRUE(T.allows(*A));
}

TEST_F(HealthFixture, FailedProbeReopensWithExponentialBackoff) {
  HealthTracker T(Sim, Cfg);
  T.recordFailure(*A);
  T.recordFailure(*A);
  Sim.runUntil(Cfg.OpenSeconds + 0.5);
  ASSERT_EQ(T.state(*A), BreakerState::HalfOpen);

  T.noteDispatch(*A);
  T.recordFailure(*A); // Probe failed: back to Open, doubled window.
  EXPECT_EQ(T.state(*A), BreakerState::Open);
  EXPECT_EQ(T.totalTrips(), 2u);

  SimTime Retrip = Sim.now();
  Sim.runUntil(Retrip + Cfg.OpenSeconds + 0.5);
  EXPECT_EQ(T.state(*A), BreakerState::Open)
      << "the second window must be longer than the first";
  Sim.runUntil(Retrip + 2.0 * Cfg.OpenSeconds + 0.5);
  EXPECT_EQ(T.state(*A), BreakerState::HalfOpen);
}

TEST_F(HealthFixture, ProbeSuccessesCloseWithHysteresis) {
  HealthTracker T(Sim, Cfg);
  T.recordFailure(*A);
  T.recordFailure(*A);
  Sim.runUntil(Cfg.OpenSeconds + 0.5);
  ASSERT_EQ(T.state(*A), BreakerState::HalfOpen);

  // Success decays the failure EWMA by (1 - Alpha) each time; closing
  // needs it at or below CloseThreshold (0.51 -> 0.357 -> 0.25).
  T.noteDispatch(*A);
  T.recordSuccess(*A, megabytes(8), 1.0);
  EXPECT_EQ(T.state(*A), BreakerState::HalfOpen)
      << "hysteresis: one good probe is not enough";
  T.noteDispatch(*A);
  T.recordSuccess(*A, megabytes(8), 1.0);
  EXPECT_EQ(T.state(*A), BreakerState::Closed);
  EXPECT_TRUE(T.allows(*A));
}

TEST_F(HealthFixture, HealthScoreDemotesFailingAndSlowSites) {
  HealthTracker T(Sim, Cfg);
  // A: consistently fast and reliable.
  for (int I = 0; I < 4; ++I)
    T.recordSuccess(*A, megabytes(64), 1.0);
  // B: slow and flaky (but never quite tripping).
  T.recordSuccess(*B, megabytes(1), 1.0);
  T.recordFailure(*B);
  T.recordSuccess(*B, megabytes(1), 1.0);

  EXPECT_GT(T.healthScore(*A), 0.9);
  EXPECT_LT(T.healthScore(*B), T.healthScore(*A));
  EXPECT_GE(T.healthScore(*B), Cfg.HealthFloor);
  EXPECT_GT(T.throughputEwma(*A), T.throughputEwma(*B));
}

//===----------------------------------------------------------------------===//
// Selector integration: breaker gate and health-demoted scoring
//===----------------------------------------------------------------------===//

namespace {

/// Client with two replica holders on equal paths; health is the only
/// thing that can break the tie deterministically.
struct GateFixture : ::testing::Test {
  Simulator Sim{83};
  Topology Topo;
  NodeId ClientNode;
  std::unique_ptr<Routing> Router;
  std::unique_ptr<FlowNetwork> Net;
  std::unique_ptr<Host> Client, HolderA, HolderB;
  std::unique_ptr<InformationService> Info;
  ReplicaCatalog Cat;

  void SetUp() override {
    ClientNode = Topo.addNode("client");
    NodeId NA = Topo.addNode("ha");
    NodeId NB = Topo.addNode("hb");
    Topo.addLink(ClientNode, NA, gbps(1), milliseconds(2));
    Topo.addLink(ClientNode, NB, gbps(1), milliseconds(2));
    Router = std::make_unique<Routing>(Topo);
    Net = std::make_unique<FlowNetwork>(Sim, Topo, *Router);
    Client = std::make_unique<Host>(Sim, quietHost("client"), ClientNode);
    HolderA = std::make_unique<Host>(Sim, quietHost("ha"), NA);
    HolderB = std::make_unique<Host>(Sim, quietHost("hb"), NB);
    Info = std::make_unique<InformationService>(Sim, *Net);
    for (Host *H : {Client.get(), HolderA.get(), HolderB.get()})
      Info->registerHost(*H);
    Cat.registerFile("f", megabytes(64));
    Cat.addReplica("f", *HolderA);
    Cat.addReplica("f", *HolderB);
    Sim.runUntil(30.0); // Warm up the sensors.
  }
};

} // namespace

TEST_F(GateFixture, OpenBreakerRemovesHolderFromSelection) {
  CostModelPolicy Policy;
  ReplicaSelector Sel(Cat, *Info, Policy);
  HealthConfig HC;
  HC.MinSamples = 2;
  HealthTracker Health(Sim, HC);
  Sel.setHealthTracker(&Health);

  Health.recordFailure(*HolderA);
  Health.recordFailure(*HolderA);
  ASSERT_EQ(Health.state(*HolderA), BreakerState::Open);

  for (int I = 0; I < 3; ++I) {
    SelectionResult R = Sel.select(ClientNode, "f");
    EXPECT_EQ(R.Chosen, HolderB.get());
  }
}

TEST_F(GateFixture, AllBreakersOpenFallsBackToLiveHolders) {
  CostModelPolicy Policy;
  ReplicaSelector Sel(Cat, *Info, Policy);
  HealthConfig HC;
  HC.MinSamples = 2;
  HealthTracker Health(Sim, HC);
  Sel.setHealthTracker(&Health);

  for (Host *H : {HolderA.get(), HolderB.get()}) {
    Health.recordFailure(*H);
    Health.recordFailure(*H);
    ASSERT_EQ(Health.state(*H), BreakerState::Open);
  }
  // An unhealthy replica still beats no replica.
  SelectionResult R = Sel.select(ClientNode, "f");
  EXPECT_NE(R.Chosen, nullptr);
}

TEST_F(GateFixture, HealthScoreDemotesDegradedHolderInScoring) {
  CostModelPolicy Policy;
  ReplicaSelector Sel(Cat, *Info, Policy);
  HealthConfig HC;
  HC.TripThreshold = 0.99; // Demotion only: keep the breaker out of it.
  HealthTracker Health(Sim, HC);
  Sel.setHealthTracker(&Health);

  // Paths are symmetric; pick the untouched holder over the flaky one.
  Health.recordSuccess(*HolderA, megabytes(8), 1.0);
  Health.recordFailure(*HolderA);
  Health.recordFailure(*HolderA);
  ASSERT_EQ(Health.state(*HolderA), BreakerState::Closed);

  SelectionResult R = Sel.select(ClientNode, "f");
  EXPECT_EQ(R.Chosen, HolderB.get());
}

//===----------------------------------------------------------------------===//
// Open-loop workload generation
//===----------------------------------------------------------------------===//

TEST(Workload, ExpansionIsDeterministicAndInWindow) {
  WorkloadSpec W;
  W.Start = 5.0;
  W.Duration = 100.0;
  W.ArrivalsPerSecond = 2.0;
  W.Clients = {"c1", "c2", "c3"};
  W.Lfns = {"f1", "f2"};

  RandomEngine R1(99), R2(99);
  std::vector<WorkloadArrival> A = expandWorkload(W, R1);
  std::vector<WorkloadArrival> B = expandWorkload(W, R2);

  ASSERT_FALSE(A.empty());
  // ~200 arrivals expected; Poisson noise stays well inside 2x bounds.
  EXPECT_GT(A.size(), 100u);
  EXPECT_LT(A.size(), 400u);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_DOUBLE_EQ(A[I].Time, B[I].Time);
    EXPECT_EQ(A[I].ClientIdx, B[I].ClientIdx);
    EXPECT_EQ(A[I].LfnIdx, B[I].LfnIdx);
    EXPECT_GE(A[I].Time, W.Start);
    EXPECT_LT(A[I].Time, W.Start + W.Duration);
    if (I) {
      EXPECT_GE(A[I].Time, A[I - 1].Time);
    }
    EXPECT_LT(A[I].ClientIdx, W.Clients.size());
    EXPECT_LT(A[I].LfnIdx, W.Lfns.size());
  }
}

TEST(Workload, ZipfSkewsPopularityTowardFirstLfn) {
  WorkloadSpec W;
  W.Duration = 500.0;
  W.ArrivalsPerSecond = 2.0;
  W.Clients = {"c"};
  W.Lfns = {"hot", "mid", "cold"};
  W.ZipfExponent = 1.2;
  RandomEngine R(5);
  std::vector<WorkloadArrival> A = expandWorkload(W, R);
  size_t Counts[3] = {0, 0, 0};
  for (const WorkloadArrival &X : A)
    ++Counts[X.LfnIdx];
  EXPECT_GT(Counts[0], Counts[2]);
}

TEST(Workload, SpecHashCoversWorkloadsAndRebuildReplaysArrivals) {
  PaperTestbedOptions O;
  O.DynamicLoad = false;
  O.CrossTraffic = false;
  GridSpec Bare = PaperTestbed::spec(O);
  Bare.Files.push_back({"wf", megabytes(8), {"alpha4"}});

  GridSpec Loaded = Bare;
  WorkloadSpec W;
  W.Duration = 60.0;
  W.ArrivalsPerSecond = 0.5;
  W.Clients = {"lz01"};
  W.Lfns = {"wf"};
  Loaded.Workloads.push_back(W);

  EXPECT_NE(Bare.hash(), Loaded.hash())
      << "the spec hash must cover offered load";

  // buildFrom replays the workload deterministically: two builds expand
  // identical arrival streams (and assert the hash round trip inside).
  std::unique_ptr<DataGrid> G1 = DataGrid::buildFrom(Loaded);
  std::unique_ptr<DataGrid> G2 = DataGrid::buildFrom(Loaded);
  const std::vector<WorkloadArrival> &A1 = G1->workloadArrivals(0);
  const std::vector<WorkloadArrival> &A2 = G2->workloadArrivals(0);
  ASSERT_FALSE(A1.empty());
  ASSERT_EQ(A1.size(), A2.size());
  for (size_t I = 0; I < A1.size(); ++I) {
    EXPECT_DOUBLE_EQ(A1[I].Time, A2[I].Time);
    EXPECT_EQ(A1[I].ClientIdx, A2[I].ClientIdx);
    EXPECT_EQ(A1[I].LfnIdx, A2[I].LfnIdx);
  }
}

TEST(Workload, DriverResolvesEveryArrivalUnderFullControls) {
  PaperTestbedOptions O;
  O.DynamicLoad = false;
  O.CrossTraffic = false;
  GridSpec Spec = PaperTestbed::spec(O);
  Spec.Files.push_back({"wl-a", megabytes(8), {"alpha3", "hit0"}});
  Spec.Files.push_back({"wl-b", megabytes(8), {"alpha4", "hit1"}});
  WorkloadSpec W;
  W.Start = 5.0;
  W.Duration = 60.0;
  W.ArrivalsPerSecond = 0.8;
  W.Clients = {"lz01", "lz02"};
  W.Lfns = {"wl-a", "wl-b"};
  Spec.Workloads.push_back(W);
  std::unique_ptr<DataGrid> G = DataGrid::buildFrom(Spec);

  AdmissionPolicy AP;
  AP.MaxActivePerDestination = 1;
  AP.QueueDepth = 2;
  AP.Shed = ShedPolicy::ShedOldest;
  G->transfers().setAdmissionPolicy(AP);

  CostModelPolicy Policy;
  ReplicaSelector Sel(G->catalog(), G->info(), Policy);
  HealthTracker Health(G->sim());
  Sel.setHealthTracker(&Health);
  ReplicaManager Mgr(G->catalog(), Sel, G->transfers());

  WorkloadDriver Driver(*G, Mgr);
  FetchOptions FO;
  FO.Register = false;
  FO.DeadlineSeconds = 120.0;
  Driver.start(0, FO);
  G->sim().run();

  const WorkloadCounters &C = Driver.counters();
  EXPECT_EQ(C.Arrivals, G->workloadArrivals(0).size());
  // Every arrival resolves into exactly one terminal bucket.
  EXPECT_EQ(C.resolved(), C.Arrivals);
  EXPECT_GT(C.Completed, 0u);
  EXPECT_EQ(C.QueueWaitSeconds.size(), C.Arrivals);
  EXPECT_DOUBLE_EQ(C.GoodputBytes,
                   static_cast<double>(C.Completed) * megabytes(8));
}

TEST(Workload, SameSeedDriverRunsAreBitIdentical) {
  auto RunOnce = [] {
    PaperTestbedOptions O;
    O.DynamicLoad = false;
    O.CrossTraffic = false;
    GridSpec Spec = PaperTestbed::spec(O);
    Spec.Files.push_back({"wl", megabytes(8), {"alpha3", "hit0"}});
    WorkloadSpec W;
    W.Duration = 40.0;
    W.ArrivalsPerSecond = 0.5;
    W.Clients = {"lz01"};
    W.Lfns = {"wl"};
    Spec.Workloads.push_back(W);
    std::unique_ptr<DataGrid> G = DataGrid::buildFrom(Spec);
    AdmissionPolicy AP;
    AP.MaxActivePerDestination = 1;
    AP.QueueDepth = 2;
    AP.Shed = ShedPolicy::ShedOldest;
    G->transfers().setAdmissionPolicy(AP);
    CostModelPolicy Policy;
    ReplicaSelector Sel(G->catalog(), G->info(), Policy);
    HealthTracker Health(G->sim());
    Sel.setHealthTracker(&Health);
    ReplicaManager Mgr(G->catalog(), Sel, G->transfers());
    WorkloadDriver Driver(*G, Mgr);
    FetchOptions FO;
    FO.Register = false;
    Driver.start(0, FO);
    G->sim().run();
    const WorkloadCounters &C = Driver.counters();
    std::vector<double> Journal = C.QueueWaitSeconds;
    Journal.insert(Journal.end(), C.SojournSeconds.begin(),
                   C.SojournSeconds.end());
    Journal.push_back(static_cast<double>(C.Completed));
    Journal.push_back(static_cast<double>(C.resolved()));
    Journal.push_back(C.GoodputBytes);
    Journal.push_back(G->sim().now());
    return Journal;
  };
  std::vector<double> First = RunOnce(), Second = RunOnce();
  ASSERT_EQ(First.size(), Second.size());
  for (size_t I = 0; I < First.size(); ++I)
    EXPECT_DOUBLE_EQ(First[I], Second[I]) << "at journal index " << I;
}
