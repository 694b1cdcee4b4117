//===- tests/FaultTest.cpp - Fault injection & recovery chaos suite --------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Locks the fault-injection and recovery subsystem down:
///
///   * Deterministic FaultPlan windows drive the injector and its counters.
///   * Property-style chaos sweeps (TEST_P over seeds) build a random
///     seeded disaster per seed and assert the recovery invariants: every
///     fetch resolves (completed or reported failed), delivered bytes are
///     conserved across restarts and failovers (never lost, never
///     duplicated), successful fetches name a live final source, and the
///     same seed reproduces the identical run bit for bit.
///   * Failover always lands on a live replica; when none survives, the
///     fetch fails cleanly instead of picking a corpse.
///   * The acceptance scenario: a plan downing each primary WAN link once
///     mid-transfer must not lose a single fetch.
///   * Monitoring blackouts leave the information service answering from
///     staleness-tagged last-known data.
///
//===----------------------------------------------------------------------===//

#include "fault/FaultInjector.h"
#include "grid/Testbed.h"
#include "replica/HealthTracker.h"
#include "replica/ReplicaManager.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

using namespace dgsim;
using namespace dgsim::units;

namespace {

/// Retry knobs every recovery test runs under: fast stall detection, short
/// backoff, a bounded per-source attempt budget so failover gets a turn.
RetryPolicy chaosRetryPolicy() {
  RetryPolicy P;
  P.StallTimeout = 5.0;
  P.BackoffBase = 0.5;
  P.BackoffMax = 8.0;
  P.MaxAttempts = 3;
  return P;
}

/// The quiet paper testbed plus two replicated chaos files.
GridSpec chaosBaseSpec(uint64_t Seed) {
  PaperTestbedOptions O;
  O.Seed = Seed;
  O.DynamicLoad = false;
  O.CrossTraffic = false;
  GridSpec Spec = PaperTestbed::spec(O);
  Spec.Files.push_back({"chaos-a", megabytes(48), {"alpha4", "hit0"}});
  Spec.Files.push_back({"chaos-b", megabytes(24), {"hit1", "lz02"}});
  return Spec;
}

/// A seeded random disaster: MTBF/MTTR processes on both loaded WAN access
/// links, storage flapping on one replica holder, sometimes a crash of
/// another, plus a monitoring blackout.  Same seed, same plan — the plan
/// rides in the spec and its expansion is seeded by the grid.
void addRandomFaults(GridSpec &Spec, uint64_t Seed) {
  RandomEngine R(Seed * 0x9e3779b97f4a7c15ull + 1);
  constexpr SimTime Horizon = 420.0;
  Spec.Faults.mtbf(FaultKind::LinkDown, "lizen", "tanet",
                   90.0 + R.uniform(0.0, 300.0), 8.0 + R.uniform(0.0, 15.0),
                   Horizon);
  Spec.Faults.mtbf(FaultKind::LinkDown, "thu", "tanet",
                   120.0 + R.uniform(0.0, 400.0), 8.0 + R.uniform(0.0, 15.0),
                   Horizon);
  Spec.Faults.mtbf(FaultKind::StorageOutage, "hit0", "",
                   150.0 + R.uniform(0.0, 300.0), 10.0 + R.uniform(0.0, 20.0),
                   Horizon);
  if (R.bernoulli(0.5))
    Spec.Faults.hostCrash("alpha4", 40.0 + R.uniform(0.0, 120.0),
                          15.0 + R.uniform(0.0, 30.0));
  Spec.Faults.sensorBlackout(80.0 + R.uniform(0.0, 120.0),
                             30.0 + R.uniform(0.0, 60.0));
}

/// Everything observable about one chaos run, stringified finely enough
/// that two bit-identical runs produce equal journals and any divergence
/// (event order, byte accounting, fault expansion) shows up.
struct ChaosOutcome {
  unsigned Callbacks = 0;
  unsigned Succeeded = 0;
  unsigned ConservationViolations = 0;
  unsigned DeadFinalSources = 0;
  uint64_t SpecHash = 0;
  FaultCounters Counters;
  std::string Journal;
};

ChaosOutcome runChaos(uint64_t Seed) {
  GridSpec Spec = chaosBaseSpec(Seed);
  addRandomFaults(Spec, Seed);
  std::unique_ptr<DataGrid> G = DataGrid::buildFrom(Spec);
  G->transfers().setRetryPolicy(chaosRetryPolicy());

  CostModelPolicy Policy;
  ReplicaSelector Sel(G->catalog(), G->info(), Policy);
  ReplicaManager Mgr(G->catalog(), Sel, G->transfers());

  struct Job {
    const char *Lfn;
    const char *Client;
    SimTime At;
  };
  const Job Jobs[] = {{"chaos-a", "lz04", 15.0},  {"chaos-b", "alpha1", 30.0},
                      {"chaos-a", "hit3", 55.0},  {"chaos-b", "lz01", 80.0},
                      {"chaos-a", "lz03", 120.0}, {"chaos-b", "hit2", 160.0}};

  ChaosOutcome Out;
  Out.SpecHash = Spec.hash();
  for (const Job &J : Jobs) {
    G->sim().scheduleAt(J.At, [&, J] {
      FetchOptions FO;
      FO.Streams = 4;
      FO.MaxFailovers = 4;
      FO.Register = false;
      Mgr.fetch(J.Lfn, *G->findHost(J.Client), FO,
                [&, J](const FetchResult &R) {
                  ++Out.Callbacks;
                  if (R.Succeeded) {
                    ++Out.Succeeded;
                    // Conservation: success == every payload byte landed
                    // exactly once.
                    if (std::abs(R.DeliveredBytes - R.FileBytes) > 1.0)
                      ++Out.ConservationViolations;
                    if (!R.FinalSource || !R.FinalSource->available())
                      ++Out.DeadFinalSources;
                  } else if (R.DeliveredBytes > R.FileBytes + 1.0) {
                    // Failure may under-deliver, never over-deliver.
                    ++Out.ConservationViolations;
                  }
                  char Line[256];
                  std::snprintf(
                      Line, sizeof(Line),
                      "%s->%s ok=%d src=%s fo=%u rs=%u to=%u "
                      "d=%.17g resent=%.17g end=%.17g\n",
                      J.Lfn, J.Client, R.Succeeded ? 1 : 0,
                      R.FinalSource ? R.FinalSource->name().c_str() : "-",
                      R.Failovers, R.Restarts, R.Timeouts, R.DeliveredBytes,
                      R.ResentBytes, R.EndTime);
                  Out.Journal += Line;
                });
    });
  }
  G->sim().run();
  if (G->faults())
    Out.Counters = G->faults()->counters();
  else
    ADD_FAILURE() << "chaos spec must arm an injector";
  char Tail[128];
  std::snprintf(Tail, sizeof(Tail), "faults=%llu restarts=%llu end=%.17g\n",
                static_cast<unsigned long long>(Out.Counters.totalFaults()),
                static_cast<unsigned long long>(G->transfers().totalRestarts()),
                G->sim().now());
  Out.Journal += Tail;
  return Out;
}

class ChaosSweep : public ::testing::TestWithParam<uint64_t> {};

} // namespace

//===----------------------------------------------------------------------===//
// Property sweeps over seeded random disasters
//===----------------------------------------------------------------------===//

TEST_P(ChaosSweep, EveryFetchResolvesAndBytesAreConserved) {
  ChaosOutcome Out = runChaos(GetParam());
  // No fetch may be lost when the kernel drains: completed or failed, the
  // callback fired.
  EXPECT_EQ(Out.Callbacks, 6u);
  EXPECT_EQ(Out.ConservationViolations, 0u);
  EXPECT_EQ(Out.DeadFinalSources, 0u)
      << "a successful fetch must name a live final source";
  // The disaster actually happened (the plan always has MTBF processes
  // over a horizon several times the shortest MTBF).
  EXPECT_GT(Out.Counters.totalFaults(), 0u);
}

TEST_P(ChaosSweep, SameSeedReplaysBitIdentically) {
  ChaosOutcome A = runChaos(GetParam());
  ChaosOutcome B = runChaos(GetParam());
  EXPECT_EQ(A.SpecHash, B.SpecHash);
  EXPECT_EQ(A.Journal, B.Journal);
  EXPECT_EQ(A.Counters.totalFaults(), B.Counters.totalFaults());
  EXPECT_EQ(A.Succeeded, B.Succeeded);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSweep,
                         ::testing::Values(1, 7, 42, 404, 1337, 2005, 9001));

//===----------------------------------------------------------------------===//
// Chaos with the full overload-control stack armed
//===----------------------------------------------------------------------===//

namespace {

/// The chaos disaster again, but with per-destination admission control,
/// per-site circuit breakers and per-fetch deadlines all on, and enough
/// simultaneous fetches per destination that the admission queue and the
/// shed policy actually engage while links flap.
ChaosOutcome runChaosOverload(uint64_t Seed) {
  GridSpec Spec = chaosBaseSpec(Seed);
  addRandomFaults(Spec, Seed);
  std::unique_ptr<DataGrid> G = DataGrid::buildFrom(Spec);
  G->transfers().setRetryPolicy(chaosRetryPolicy());

  AdmissionPolicy AP;
  AP.MaxActivePerDestination = 1;
  AP.QueueDepth = 1;
  AP.Shed = ShedPolicy::ShedOldest;
  G->transfers().setAdmissionPolicy(AP);

  CostModelPolicy Policy;
  ReplicaSelector Sel(G->catalog(), G->info(), Policy);
  HealthConfig HC;
  HC.MinSamples = 2;
  HealthTracker Health(G->sim(), HC);
  Sel.setHealthTracker(&Health);
  ReplicaManager Mgr(G->catalog(), Sel, G->transfers());

  struct Job {
    const char *Lfn;
    const char *Client;
    SimTime At;
  };
  // Bursts of same-destination fetches: the second and third of each burst
  // land in (or shed from) the admission queue.
  const Job Jobs[] = {{"chaos-a", "lz04", 15.0},  {"chaos-b", "lz04", 16.0},
                      {"chaos-a", "lz04", 17.0},  {"chaos-b", "lz01", 30.0},
                      {"chaos-a", "lz01", 31.0},  {"chaos-b", "hit2", 55.0},
                      {"chaos-a", "alpha1", 80.0}, {"chaos-b", "lz03", 120.0},
                      {"chaos-a", "lz03", 121.0}, {"chaos-b", "lz02", 160.0}};
  ChaosOutcome Out;
  Out.SpecHash = Spec.hash();
  for (const Job &J : Jobs) {
    G->sim().scheduleAt(J.At, [&, J] {
      FetchOptions FO;
      FO.Streams = 4;
      FO.MaxFailovers = 2;
      FO.Register = false;
      FO.DeadlineSeconds = 120.0;
      Mgr.fetch(J.Lfn, *G->findHost(J.Client), FO,
                [&, J](const FetchResult &R) {
                  ++Out.Callbacks;
                  // Terminal states are mutually exclusive: a fetch is
                  // completed, shed, expired or failed -- never two at once.
                  if (R.Succeeded && (R.Shed || R.DeadlineExpired))
                    ++Out.ConservationViolations;
                  if (R.Shed && R.DeadlineExpired)
                    ++Out.ConservationViolations;
                  // Shed means shed: not a single payload byte moved.
                  if (R.Shed && R.DeliveredBytes != 0.0)
                    ++Out.ConservationViolations;
                  if (R.Succeeded) {
                    ++Out.Succeeded;
                    if (std::abs(R.DeliveredBytes - R.FileBytes) > 1.0)
                      ++Out.ConservationViolations;
                    if (!R.FinalSource || !R.FinalSource->available())
                      ++Out.DeadFinalSources;
                  } else if (R.DeliveredBytes > R.FileBytes + 1.0) {
                    ++Out.ConservationViolations;
                  }
                  char Line[256];
                  std::snprintf(
                      Line, sizeof(Line),
                      "%s->%s ok=%d shed=%d exp=%d fo=%u rs=%u "
                      "q=%.17g d=%.17g resent=%.17g end=%.17g\n",
                      J.Lfn, J.Client, R.Succeeded ? 1 : 0, R.Shed ? 1 : 0,
                      R.DeadlineExpired ? 1 : 0, R.Failovers, R.Restarts,
                      R.QueueSeconds, R.DeliveredBytes, R.ResentBytes,
                      R.EndTime);
                  Out.Journal += Line;
                });
    });
  }
  G->sim().run();
  if (G->faults())
    Out.Counters = G->faults()->counters();
  char Tail[160];
  std::snprintf(Tail, sizeof(Tail),
                "faults=%llu shed=%llu expired=%llu queued=%llu trips=%llu "
                "end=%.17g\n",
                static_cast<unsigned long long>(Out.Counters.totalFaults()),
                static_cast<unsigned long long>(G->transfers().totalShed()),
                static_cast<unsigned long long>(
                    G->transfers().totalDeadlineExpired()),
                static_cast<unsigned long long>(G->transfers().totalQueued()),
                static_cast<unsigned long long>(Health.totalTrips()),
                G->sim().now());
  Out.Journal += Tail;
  return Out;
}

class OverloadChaosSweep : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(OverloadChaosSweep, ControlsPreserveResolutionAndConservation) {
  ChaosOutcome Out = runChaosOverload(GetParam());
  EXPECT_EQ(Out.Callbacks, 10u);
  EXPECT_EQ(Out.ConservationViolations, 0u);
  EXPECT_EQ(Out.DeadFinalSources, 0u);
  EXPECT_GT(Out.Counters.totalFaults(), 0u);
  // The admission layer saw contention: the same-destination bursts were
  // serialized (or shed), not run concurrently.
  EXPECT_NE(Out.Journal.find("q="), std::string::npos);
}

TEST_P(OverloadChaosSweep, SameSeedReplaysBitIdentically) {
  ChaosOutcome A = runChaosOverload(GetParam());
  ChaosOutcome B = runChaosOverload(GetParam());
  EXPECT_EQ(A.SpecHash, B.SpecHash);
  EXPECT_EQ(A.Journal, B.Journal);
  EXPECT_EQ(A.Succeeded, B.Succeeded);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverloadChaosSweep,
                         ::testing::Values(3, 11, 42, 777, 2005));

//===----------------------------------------------------------------------===//
// Acceptance: each primary link down once mid-transfer, nothing lost
//===----------------------------------------------------------------------===//

TEST(FaultAcceptance, PrimaryLinkOutagesLoseNoFetch) {
  // The default-seed plan of the issue: each primary WAN access link goes
  // down once, timed to land mid-transfer.  Every fetch must still
  // complete — via restart markers when the source survives, via failover
  // when it does not — with delivered-byte conservation.
  GridSpec Spec = chaosBaseSpec(/*Seed=*/2005);
  Spec.Faults.linkDown("lizen", "tanet", 20.0, 12.0)
      .linkDown("thu", "tanet", 40.0, 12.0)
      .linkDown("hit", "tanet", 70.0, 12.0);
  std::unique_ptr<DataGrid> G = DataGrid::buildFrom(Spec);
  G->transfers().setRetryPolicy(chaosRetryPolicy());

  CostModelPolicy Policy;
  ReplicaSelector Sel(G->catalog(), G->info(), Policy);
  ReplicaManager Mgr(G->catalog(), Sel, G->transfers());

  struct Job {
    const char *Lfn;
    const char *Client;
    SimTime At;
  };
  // One fetch in flight across each outage window.
  const Job Jobs[] = {{"chaos-a", "lz04", 15.0},
                      {"chaos-b", "alpha1", 35.0},
                      {"chaos-a", "lz03", 65.0}};
  unsigned Done = 0;
  unsigned Recovered = 0;
  for (const Job &J : Jobs) {
    G->sim().scheduleAt(J.At, [&, J] {
      FetchOptions FO;
      FO.Register = false;
      Mgr.fetch(J.Lfn, *G->findHost(J.Client), FO,
                [&](const FetchResult &R) {
                  ++Done;
                  EXPECT_TRUE(R.Succeeded);
                  EXPECT_NEAR(R.DeliveredBytes, R.FileBytes, 1.0);
                  // GridFTP resumes from restart markers: across restarts
                  // and failovers, no payload byte moves twice.
                  EXPECT_DOUBLE_EQ(R.ResentBytes, 0.0);
                  Recovered += R.Restarts + R.Failovers;
                });
    });
  }
  G->sim().run();
  EXPECT_EQ(Done, 3u);
  // The outages hit: at least one fetch had to restart or fail over.
  EXPECT_GT(Recovered, 0u);
  const FaultCounters &C = G->faults()->counters();
  EXPECT_EQ(C.LinkDowns, 3u);
  EXPECT_EQ(C.LinkRepairs, 3u);
}

//===----------------------------------------------------------------------===//
// Failover correctness
//===----------------------------------------------------------------------===//

TEST(FaultFailover, SelectionSkipsDeadReplicasAndPicksALiveOne) {
  PaperTestbedOptions O;
  O.DynamicLoad = false;
  O.CrossTraffic = false;
  PaperTestbed T(O);
  T.publishFileA(); // Replicas at alpha4, hit0, lz02.
  CostModelPolicy Policy;
  ReplicaSelector Sel(T.grid().catalog(), T.grid().info(), Policy);
  T.sim().runUntil(30.0);

  // Two of three holders die (one machine crash, one storage outage).
  T.alpha(4).setUp(false);
  T.hit(0).setStorageUp(false);
  SelectionResult R =
      Sel.select(T.grid().findHost("lz04")->node(), PaperTestbed::FileA);
  ASSERT_NE(R.Chosen, nullptr);
  EXPECT_EQ(R.Chosen->name(), "lz02");
  EXPECT_TRUE(R.Chosen->available());

  // The report still covers the corpses (operator visibility)...
  EXPECT_EQ(
      Sel.scoreAll(T.grid().findHost("lz04")->node(), PaperTestbed::FileA)
          .size(),
      3u);

  // ...and when the last holder dies too, selection gives up cleanly.
  T.lz(2).setUp(false);
  SelectionResult None =
      Sel.select(T.grid().findHost("lz04")->node(), PaperTestbed::FileA);
  EXPECT_EQ(None.Chosen, nullptr);
  EXPECT_FALSE(None.LocalHit);
}

TEST(FaultFailover, FetchFailsOverMidTransferToSurvivingReplica) {
  // chaos-a lives at alpha4 and hit0.  A lz04 client starts fetching from
  // whichever source selection prefers; that source's machine dies for
  // good mid-transfer.  The fetch must exhaust its reconnect budget, fail
  // over to the *other* holder, resume from the bytes already delivered,
  // and finish without moving any payload byte twice.
  GridSpec Spec = chaosBaseSpec(/*Seed=*/2005);
  std::unique_ptr<DataGrid> G = DataGrid::buildFrom(Spec);
  G->transfers().setRetryPolicy(chaosRetryPolicy());

  CostModelPolicy Policy;
  ReplicaSelector Sel(G->catalog(), G->info(), Policy);
  ReplicaManager Mgr(G->catalog(), Sel, G->transfers());
  Host *Client = G->findHost("lz04");

  FetchResult Res;
  bool Done = false;
  Host *FirstSource = nullptr;
  G->sim().scheduleAt(15.0, [&] {
    // Peek at the source the fetch is about to pick (select() is a pure
    // query; the fetch's own call returns the same answer).
    FirstSource = Sel.select(Client->node(), "chaos-a").Chosen;
    ASSERT_NE(FirstSource, nullptr);
    FetchOptions FO;
    FO.Register = false;
    Mgr.fetch("chaos-a", *Client, FO, [&](const FetchResult &R) {
      Res = R;
      Done = true;
    });
  });
  G->sim().scheduleAt(25.0, [&] {
    FirstSource->setUp(false); // Permanent: no reboot before the failover.
    G->transfers().failHost(*FirstSource, /*MachineDown=*/true);
  });
  G->sim().run();

  ASSERT_TRUE(Done);
  EXPECT_TRUE(Res.Succeeded);
  EXPECT_GE(Res.Failovers, 1u);
  ASSERT_NE(Res.FinalSource, nullptr);
  EXPECT_NE(Res.FinalSource, FirstSource);
  EXPECT_TRUE(Res.FinalSource->available());
  EXPECT_NEAR(Res.DeliveredBytes, Res.FileBytes, 1.0);
  EXPECT_DOUBLE_EQ(Res.ResentBytes, 0.0);
  EXPECT_EQ(Mgr.totalFailovers(), static_cast<uint64_t>(Res.Failovers));
}

TEST(FaultFailover, FetchFailsCleanlyWhenEveryReplicaIsDead) {
  GridSpec Spec = chaosBaseSpec(/*Seed=*/2005);
  Spec.Faults.hostCrash("hit1", 5.0, 400.0).hostCrash("lz02", 5.0, 400.0);
  std::unique_ptr<DataGrid> G = DataGrid::buildFrom(Spec);
  G->transfers().setRetryPolicy(chaosRetryPolicy());

  CostModelPolicy Policy;
  ReplicaSelector Sel(G->catalog(), G->info(), Policy);
  ReplicaManager Mgr(G->catalog(), Sel, G->transfers());

  FetchResult Res;
  bool Done = false;
  G->sim().scheduleAt(15.0, [&] {
    FetchOptions FO;
    FO.Register = false;
    Mgr.fetch("chaos-b", *G->findHost("lz04"), FO,
              [&](const FetchResult &R) {
                Res = R;
                Done = true;
              });
  });
  G->sim().run();

  ASSERT_TRUE(Done);
  EXPECT_FALSE(Res.Succeeded);
  EXPECT_EQ(Res.FinalSource, nullptr);
  EXPECT_DOUBLE_EQ(Res.DeliveredBytes, 0.0);
  EXPECT_EQ(Mgr.failedFetches(), 1u);
}

//===----------------------------------------------------------------------===//
// Injector mechanics
//===----------------------------------------------------------------------===//

TEST(FaultInjectorTest, DeterministicWindowsDriveCountersAndState) {
  GridSpec Spec = chaosBaseSpec(/*Seed=*/2005);
  Spec.Faults.hostCrash("alpha1", 10.0, 5.0)
      .storageOutage("hit0", 12.0, 6.0)
      .sensorBlackout(14.0, 4.0);
  std::unique_ptr<DataGrid> G = DataGrid::buildFrom(Spec);
  ASSERT_NE(G->faults(), nullptr);
  EXPECT_EQ(G->faults()->windows().size(), 3u);

  Host *Alpha1 = G->findHost("alpha1");
  Host *Hit0 = G->findHost("hit0");
  G->sim().runUntil(11.0);
  EXPECT_FALSE(Alpha1->isUp());
  EXPECT_TRUE(Hit0->available()); // Storage outage starts at 12.
  G->sim().runUntil(13.0);
  EXPECT_TRUE(Hit0->isUp());
  EXPECT_FALSE(Hit0->storageUp());
  EXPECT_FALSE(Hit0->available());
  G->sim().runUntil(15.0); // Reboot fires at exactly 10+5.
  EXPECT_TRUE(Alpha1->isUp());
  EXPECT_TRUE(G->info().blackout());
  G->sim().runUntil(19.0);
  EXPECT_TRUE(Hit0->available());
  EXPECT_FALSE(G->info().blackout());

  const FaultCounters &C = G->faults()->counters();
  EXPECT_EQ(C.HostCrashes, 1u);
  EXPECT_EQ(C.HostReboots, 1u);
  EXPECT_EQ(C.StorageOutages, 1u);
  EXPECT_EQ(C.StorageRepairs, 1u);
  EXPECT_EQ(C.Blackouts, 1u);
  EXPECT_EQ(C.BlackoutEnds, 1u);
  EXPECT_EQ(C.totalFaults(), 3u);
}

TEST(FaultInjectorTest, OverlappingWindowsNestInsteadOfFlapping) {
  // Two overlapping crash windows on the same host: the host must stay
  // down until the *last* one ends, not bounce up when the first expires.
  GridSpec Spec = chaosBaseSpec(/*Seed=*/2005);
  Spec.Faults.hostCrash("alpha1", 10.0, 10.0).hostCrash("alpha1", 15.0, 10.0);
  std::unique_ptr<DataGrid> G = DataGrid::buildFrom(Spec);
  Host *H = G->findHost("alpha1");
  G->sim().runUntil(21.0); // First window over, second still open.
  EXPECT_FALSE(H->isUp());
  G->sim().runUntil(26.0);
  EXPECT_TRUE(H->isUp());
  // Depth-counted: one logical crash+reboot per window edge pair.
  EXPECT_EQ(G->faults()->counters().HostCrashes, 1u);
  EXPECT_EQ(G->faults()->counters().HostReboots, 1u);
}

TEST(FaultInjectorTest, EmptyPlanArmsNothing) {
  GridSpec Spec = chaosBaseSpec(/*Seed=*/2005);
  ASSERT_TRUE(Spec.Faults.empty());
  std::unique_ptr<DataGrid> G = DataGrid::buildFrom(Spec);
  EXPECT_EQ(G->faults(), nullptr);
}

TEST(FaultInjectorTest, StochasticExpansionIsSeedDeterministic) {
  GridSpec Spec = chaosBaseSpec(/*Seed=*/42);
  Spec.Faults.mtbf(FaultKind::LinkDown, "lizen", "tanet", 60.0, 10.0, 600.0);
  std::unique_ptr<DataGrid> A = DataGrid::buildFrom(Spec);
  std::unique_ptr<DataGrid> B = DataGrid::buildFrom(Spec);
  ASSERT_NE(A->faults(), nullptr);
  ASSERT_NE(B->faults(), nullptr);
  const auto &WA = A->faults()->windows();
  const auto &WB = B->faults()->windows();
  ASSERT_GT(WA.size(), 1u) << "600 s horizon over a 60 s MTBF must fail";
  ASSERT_EQ(WA.size(), WB.size());
  for (size_t I = 0; I != WA.size(); ++I) {
    EXPECT_DOUBLE_EQ(WA[I].Start, WB[I].Start);
    EXPECT_DOUBLE_EQ(WA[I].Duration, WB[I].Duration);
  }
}

//===----------------------------------------------------------------------===//
// Blackout staleness
//===----------------------------------------------------------------------===//

TEST(FaultBlackout, InformationServiceServesStaleTaggedDataThroughOutage) {
  GridSpec Spec = chaosBaseSpec(/*Seed=*/2005);
  Spec.Faults.sensorBlackout(40.0, 100.0);
  std::unique_ptr<DataGrid> G = DataGrid::buildFrom(Spec);

  CostModelPolicy Policy;
  ReplicaSelector Sel(G->catalog(), G->info(), Policy);
  NodeId Client = G->findHost("lz04")->node();

  G->sim().runUntil(39.0); // Sensors have sampled; blackout not yet begun.
  ASSERT_NE(Sel.select(Client, "chaos-a").Chosen, nullptr);
  auto Before = Sel.scoreAll(Client, "chaos-a");
  ASSERT_FALSE(Before.empty());
  const Sensor *Bw =
      G->info().bandwidthSensor(Client, Before.front().Candidate->node());
  ASSERT_NE(Bw, nullptr);

  G->sim().runUntil(120.0); // 80 s into the blackout.
  EXPECT_TRUE(G->info().blackout());
  // Selection still answers from last-known data...
  ASSERT_NE(Sel.select(Client, "chaos-a").Chosen, nullptr);
  auto During = Sel.scoreAll(Client, "chaos-a");
  ASSERT_FALSE(During.empty());
  // ...with the staleness visible: the path sensor's last sample predates
  // the blackout.
  SimTime LastDuring = Bw->lastSampleTime();
  EXPECT_LE(LastDuring, 40.0);

  G->sim().runUntil(160.0); // Blackout over: sensors resample.
  EXPECT_FALSE(G->info().blackout());
  auto After = Sel.scoreAll(Client, "chaos-a");
  ASSERT_FALSE(After.empty());
  EXPECT_GE(Bw->lastSampleTime(), 140.0);
}

TEST(FaultBlackout, HostReadingsFreezeWhileTheLoadMoves) {
  // The default testbed's host loads move (the chaos spec's are static),
  // so a served reading that stands still shows the host sensors stopped.
  GridSpec Spec = PaperTestbed::spec({});
  Spec.Faults.sensorBlackout(40.0, 100.0);
  std::unique_ptr<DataGrid> G = DataGrid::buildFrom(Spec);
  const Host &H = *G->findHost("hit0");

  G->sim().runUntil(60.0);
  ASSERT_TRUE(G->info().blackout());
  double Served = G->info().cpuIdle(H);
  double Actual = H.cpuIdle();

  G->sim().runUntil(130.0);
  EXPECT_EQ(G->info().cpuIdle(H), Served);
  EXPECT_NE(H.cpuIdle(), Actual);

  G->sim().runUntil(160.0); // Blackout over: host sensors resample.
  EXPECT_FALSE(G->info().blackout());
  EXPECT_NE(G->info().cpuIdle(H), Served);
}
