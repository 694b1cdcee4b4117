//===- tests/FastPathTest.cpp - Selection fast-path and pinned-run suite --===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hot-path contract (DESIGN.md §13): the serial kernel and
/// selection, which reads the sensors' current state on every query,
/// reproduce the runs behind the goldens exactly.  Covered by whole runs:
///
///   * the paper-testbed transfers behind the fig3/fig4 goldens, pinned
///     to journals captured when the kernel still carried a calendar
///     queue and an intra-run parallel executor (every arm agreed);
///   * the batched 16-site chaos grid, pinned the same way with transfer-
///     log feedback off and on;
///   * the driven workload's arrival events, which must schedule without
///     spilling a closure to the heap;
///   * the path sensor of a fresh (client, holder) pair, whose heap blocks
///     are counted by this binary's replacement global operator new.
///
//===----------------------------------------------------------------------===//

#include "grid/DataGrid.h"
#include "grid/Hierarchy.h"
#include "grid/Testbed.h"
#include "grid/Workload.h"
#include "monitor/TransferLog.h"
#include "replica/ReplicaManager.h"
#include "replica/ReplicaSelector.h"
#include "sim/Simulator.h"
#include "support/InlineFunction.h"
#include "support/Random.h"
#include "support/Units.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <cstdlib>
#include <new>
#include <memory>
#include <string>
#include <vector>

using namespace dgsim;
using namespace dgsim::units;

// The counting global allocator behind FastPathAlloc.FreshPathSensorPair:
// every request goes to malloc, and is counted while CountBlocks is set.
namespace {
bool CountBlocks = false;
uint64_t Blocks = 0;

void *countedAlloc(std::size_t Size) noexcept {
  if (CountBlocks)
    ++Blocks;
  return std::malloc(Size ? Size : 1);
}

void *countedNew(std::size_t Size) {
  if (void *P = countedAlloc(Size))
    return P;
  throw std::bad_alloc();
}
} // namespace

// Every non-aligned form is replaced, so no block pairs a sanitizer
// runtime's operator new with the free() below.  The deletes stay out of
// line so GCC does not pair an inlined free() with a new expression and
// warn about a mismatch.
void *operator new(std::size_t Size) { return countedNew(Size); }
void *operator new[](std::size_t Size) { return countedNew(Size); }
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  return countedAlloc(Size);
}
void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  return countedAlloc(Size);
}
[[gnu::noinline]] void operator delete(void *P) noexcept { std::free(P); }
[[gnu::noinline]] void operator delete[](void *P) noexcept { std::free(P); }
[[gnu::noinline]] void operator delete(void *P, std::size_t) noexcept {
  std::free(P);
}
[[gnu::noinline]] void operator delete[](void *P, std::size_t) noexcept {
  std::free(P);
}
[[gnu::noinline]] void operator delete(void *P,
                                       const std::nothrow_t &) noexcept {
  std::free(P);
}
[[gnu::noinline]] void operator delete[](void *P,
                                         const std::nothrow_t &) noexcept {
  std::free(P);
}

namespace {

//===----------------------------------------------------------------------===//
// Pinned journals
//===----------------------------------------------------------------------===//

// Captured from the commit that still carried the calendar queue and the
// intra-run parallel executor, where every scheduler and thread-count arm
// produced these exact bytes.  The testbed journals' event counts (e=) were
// re-pinned after the latency and memory sensors, then the host memory-load
// process, all of which self-schedule on the paper testbed, were deleted;
// the grid journals' spec hash (h=) was re-pinned when the host memory
// knobs left GridSpec, again when the protocol costs and the LAN loss
// did, again when the LAN delay did and again when the canonical JSON
// began to carry the sensor-scheduling knobs, and their mean sojourn
// (sj=) and end time (end=) when selection stopped querying every holder
// before the policy ranked its own candidates (the chaos grid's
// first-fetch monitors, and so its forecasts, changed).  Every other
// field is as captured.
constexpr const char *Fig3Journal =
    "st=0 d=75.366399999999999 tot=76.012164705882356 "
    "thr=28251841.745454364 e=3442";
constexpr const char *Fig4Journal =
    "st=0 d=9.423243750000001 tot=10.087408455882354 "
    "thr=212887547.61860764 e=1344";
constexpr const char *GridJournal =
    "a=478 c=478 f=0 s=0 lh=94 gp=1304908254.0784802 "
    "sj=3526.8371000986081 e=1490 end=73.364265940490057 lg=0 "
    "h=b1bc871f354c41d0";
constexpr const char *GridLogFeedbackJournal =
    "a=478 c=478 f=0 s=0 lh=94 gp=1304908254.0784802 "
    "sj=3535.0381931861089 e=1490 end=73.364265940490057 lg=384 "
    "h=b1bc871f354c41d0";

//===----------------------------------------------------------------------===//
// Whole runs: paper-testbed transfers (the fig3/fig4 scenarios)
//===----------------------------------------------------------------------===//

/// One fig3/fig4-style transfer on a fresh paper testbed.  Returns a
/// bit-exact journal of the result.
std::string runTestbedTransfer(TransferProtocol Protocol, unsigned Streams) {
  PaperTestbed T;
  T.sim().runUntil(30.0);
  TransferSpec Spec;
  Spec.Source = T.grid().findHost("hit0");
  Spec.Destination = T.grid().findHost("alpha1");
  Spec.FileBytes = megabytes(256);
  Spec.Protocol = Protocol;
  Spec.Streams = Streams;
  TransferResult Result;
  T.grid().transfers().submit(Spec,
                              [&](const TransferResult &R) { Result = R; });
  T.sim().run();
  char Line[160];
  std::snprintf(Line, sizeof(Line), "st=%d d=%.17g tot=%.17g thr=%.17g e=%llu",
                int(Result.Status), Result.DataSeconds, Result.totalSeconds(),
                Result.meanThroughput(),
                static_cast<unsigned long long>(T.sim().eventsExecuted()));
  return Line;
}

TEST(FastPathDeterminism, TestbedFig3TransferMatchesPinnedJournal) {
  EXPECT_EQ(runTestbedTransfer(TransferProtocol::GridFtpStream, 1),
            Fig3Journal);
}

TEST(FastPathDeterminism, TestbedFig4ParallelStreamsMatchesPinnedJournal) {
  EXPECT_EQ(runTestbedTransfer(TransferProtocol::GridFtpModeE, 8),
            Fig4Journal);
}

//===----------------------------------------------------------------------===//
// Whole runs: the batched 16-site chaos grid
//===----------------------------------------------------------------------===//

/// The batched chaos grid — batched sensors + host loads, fault plan,
/// open-loop workload.  Every workload counter is folded into the
/// journal.
std::string runBatchedGrid(uint64_t Seed, bool LogFeedback = false) {
  GridSpec Spec;
  Spec.Seed = Seed;
  Spec.Info.BandwidthPeriod = 10.0;
  Spec.Info.HostPeriod = 5.0;
  Spec.Info.BatchSensors = true;
  Spec.Info.BatchHostLoads = true;
  Spec.Info.StaggerGroups = 4;

  HierarchySpec H;
  H.Seed = Seed * 9176 + 16;
  H.Regions = 2;
  H.SitesPerRegion = 8;
  H.HostsPerSite = 1;
  H.FileCount = 24;
  H.FileSizeMin = megabytes(1);
  H.FileSizeMax = megabytes(4);
  H.ReplicasPerFile = 4;
  HierarchyLayout Layout;
  std::vector<std::string> Problems = appendHierarchy(Spec, H, &Layout);
  EXPECT_TRUE(Problems.empty());

  WorkloadSpec Load;
  Load.Name = "det-load";
  Load.Start = 0.0;
  Load.ArrivalsPerSecond = 25.0;
  Load.Duration = 20.0;
  for (size_t I = 0; I < Layout.Hosts.size(); I += 2)
    Load.Clients.push_back(Layout.Hosts[I]);
  Load.Lfns = Layout.Lfns;
  Load.ZipfExponent = 0.8;
  Spec.Workloads.push_back(Load);

  Spec.Faults.sensorBlackout(6.0, 8.0);
  Spec.Faults.mtbf(FaultKind::StorageOutage, Layout.Hosts[1], "", 7.0, 4.0,
                   20.0);

  std::unique_ptr<DataGrid> G = DataGrid::buildFrom(Spec);
  G->transfers().setBatchedRefresh(true);
  if (LogFeedback)
    G->enableTransferLog();

  CostModelPolicy Cost;
  TwoChoicePolicy Policy(Cost, RandomEngine(Seed * 7919 + 13).fork());
  ReplicaSelector Sel(G->catalog(), G->info(), Policy);
  ReplicaManager Mgr(G->catalog(), Sel, G->transfers());
  WorkloadDriver Driver(*G, Mgr);

  FetchOptions FO;
  FO.Streams = 4;
  FO.MaxFailovers = 2;
  FO.Register = false;
  Driver.start(0, FO);
  G->sim().run();

  const WorkloadCounters &C = Driver.counters();
  double SojournSum = 0.0;
  for (double S : C.SojournSeconds)
    SojournSum += S;
  char Line[256];
  std::snprintf(
      Line, sizeof(Line),
      "a=%llu c=%llu f=%llu s=%llu lh=%llu gp=%.17g sj=%.17g e=%llu "
      "end=%.17g lg=%llu h=%llx",
      static_cast<unsigned long long>(C.Arrivals),
      static_cast<unsigned long long>(C.Completed),
      static_cast<unsigned long long>(C.Failed),
      static_cast<unsigned long long>(C.Shed),
      static_cast<unsigned long long>(C.LocalHits), C.GoodputBytes, SojournSum,
      static_cast<unsigned long long>(G->sim().eventsExecuted()),
      G->sim().now(),
      static_cast<unsigned long long>(G->transferLog()
                                          ? G->transferLog()->totalAppends()
                                          : 0),
      static_cast<unsigned long long>(Spec.hash()));
  return Line;
}

TEST(FastPathDeterminism, GridMatchesPinnedJournal) {
  EXPECT_EQ(runBatchedGrid(42), GridJournal);
}

TEST(FastPathDeterminism, GridLogFeedbackMatchesPinnedJournal) {
  // Transfer-log feedback on: predictions change selections, so this
  // journal legitimately differs from the feedback-off one.
  EXPECT_EQ(runBatchedGrid(42, /*LogFeedback=*/true), GridLogFeedbackJournal);
}

TEST(FastPathAlloc, DrivenArrivalsScheduleWithoutHeapFallbacks) {
  // Every arrival event captures [driver, stream, position]; the spec and
  // fetch options live in the driver, so no capture outgrows the inline
  // buffer.
  const uint64_t Before = InlineFunctionStats::heapFallbacks();
  runBatchedGrid(42);
  EXPECT_EQ(InlineFunctionStats::heapFallbacks(), Before);
}

/// \returns the heap blocks InformationService::watchPath allocates to
/// start monitoring the fresh pair \p Holder -> \p Client.
uint64_t watchPathBlocks(PaperTestbed &T, const char *Client,
                         const char *Holder) {
  NodeId C = T.grid().findHost(Client)->node();
  NodeId H = T.grid().findHost(Holder)->node();
  Blocks = 0;
  CountBlocks = true;
  T.grid().info().watchPath(C, H);
  CountBlocks = false;
  return Blocks;
}

TEST(FastPathAlloc, FreshPathSensorPair) {
  // A fresh (client, holder) pair is one bandwidth sensor and its first
  // sample.  The sensor's battery holds one window of recent values for
  // all its sliding predictors; the first pair also warms shared caches.
  PaperTestbed T;
  T.sim().runUntil(1.0);
  EXPECT_LE(watchPathBlocks(T, "alpha1", "hit0"), 25u);
  EXPECT_LE(watchPathBlocks(T, "alpha2", "hit1"), 11u);
}

} // namespace
