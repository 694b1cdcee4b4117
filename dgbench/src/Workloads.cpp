//===- dgbench/src/Workloads.cpp ------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Stats.h"
#include "TimedPolicy.h"

#include "grid/DataGrid.h"
#include "grid/Hierarchy.h"
#include "grid/Oracle.h"
#include "grid/Testbed.h"
#include "replica/ReplicaManager.h"
#include "replica/ReplicaSelector.h"
#include "support/AllocStats.h"
#include "support/InlineFunction.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <optional>

using namespace dgsim;
using namespace dgbench;

/// One workload at one seed: the grid spec (topology, catalog, arrival
/// stream, fault plan) plus the runtime wiring the grid is driven with.
struct dgbench::WorkloadDef {
  std::string Name;
  GridSpec Spec;
  FetchOptions Fetch;
  /// The testbed's wiring: disk pumps on hit0, pre-watched decision
  /// paths, transfer-log feedback, retries and plain cost-model arg-max.
  /// Otherwise the tiered grid's: batched cap refresh and two-choice
  /// sampling over the cost model.
  bool Testbed = false;
  std::vector<OracleProbe> Decisions;
  /// When positive, the run stops the kernel every RunSlice simulated
  /// seconds while arrivals last, so its host time splits into steps.
  SimTime RunSlice = 0.0;
};

namespace {

using Clock = std::chrono::steady_clock;

/// Fraction of arrivals that must complete for a run to be correct.
constexpr double MinCompletion = 0.999;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

//===----------------------------------------------------------------------===//
// Workload definitions
//===----------------------------------------------------------------------===//

/// Fixed topology seed: the benchmark seed varies the simulated random
/// streams, not the grid under test.
constexpr uint64_t TopologySeed = 9176;

/// 1024 sites shaped like bench_scale's full run, 2500 fetches/s over 256
/// files with 8 replicas each, on a healthy grid.
WorkloadDef tier1024Probe(uint64_t Seed) {
  WorkloadDef D;
  D.Name = "tier1024-probe";
  GridSpec &Spec = D.Spec;
  Spec.Seed = Seed;
  // Scale-mode monitoring, as bench_scale runs it.
  Spec.Info.BandwidthPeriod = 30.0;
  Spec.Info.HostPeriod = 15.0;
  Spec.Info.BatchSensors = true;
  Spec.Info.BatchHostLoads = true;
  Spec.Info.StaggerGroups = 64;
  Spec.Info.PathSensorTtl = 90.0;

  HierarchySpec H;
  H.Seed = TopologySeed;
  H.Regions = 32;
  H.SitesPerRegion = 32;
  H.HostsPerSite = 1;
  H.RootLink = LinkClassSpec{40e9, 0.008, 0.0, 1.0};
  H.AccessClasses = {{10e9, 0.002, 0.0, 0.25}, {1e9, 0.005, 0.0, 0.75}};
  H.DiskReadRate = 4e9;
  H.DiskWriteRate = 3.2e9;
  H.FileCount = 256;
  H.FileSizeMin = units::megabytes(1);
  H.FileSizeMax = units::megabytes(4);
  H.ReplicasPerFile = 8;
  HierarchyLayout Layout;
  std::vector<std::string> Problems = appendHierarchy(Spec, H, &Layout);
  assert(Problems.empty() && "benchmark hierarchy must be well-formed");
  (void)Problems;

  WorkloadSpec Load;
  Load.Name = "probe-load";
  Load.ArrivalsPerSecond = 2500.0;
  Load.Duration = 7.0;
  for (size_t I = 0; I < Layout.Hosts.size(); I += 8)
    Load.Clients.push_back(Layout.Hosts[I]);
  Load.Lfns = Layout.Lfns;
  Load.ZipfExponent = 0.8;
  Spec.Workloads.push_back(Load);

  D.Fetch.Streams = 8;
  D.Fetch.MaxFailovers = 2;
  D.Fetch.Register = false; // Keep the catalog, and selection cost, fixed.
  D.RunSlice = 0.1;
  return D;
}

/// testbed-oracle constants.
constexpr SimTime TestbedStreamDuration = 1600.0;
constexpr double TestbedStreamRate = 0.7;
constexpr SimTime FirstDecision = 60.0;
constexpr SimTime DecisionPeriod = 34.0;
constexpr size_t DecisionCount = 46;
constexpr SimTime OracleFetchBudget = 600.0;
const char *const TestbedClients[] = {"alpha1", "alpha2", "alpha3"};
const char *const TestbedHolders[] = {"hit0", "hit1", "lz02"};

/// hit0's background readers stop with the last decision, and wait this
/// long before reading again after a read failed.
constexpr SimTime PumpUntil =
    FirstDecision + double(DecisionCount - 1) * DecisionPeriod;
constexpr SimTime PumpRetrySeconds = 5.0;

WorkloadDef testbedOracle(uint64_t Seed) {
  WorkloadDef D;
  D.Name = "testbed-oracle";
  PaperTestbedOptions O;
  O.Seed = Seed;
  O.DynamicLoad = true;
  O.CrossTraffic = true;
  D.Spec = PaperTestbed::spec(O);

  WorkloadSpec Train;
  Train.Name = "training";
  Train.Duration = TestbedStreamDuration;
  Train.ArrivalsPerSecond = TestbedStreamRate;
  Train.Clients.assign(std::begin(TestbedClients), std::end(TestbedClients));
  for (int I = 0; I < 4; ++I) {
    std::string Lfn = "tb-" + std::to_string(I);
    D.Spec.Files.push_back(
        {Lfn,
         units::megabytes(8.0 * (I + 1)),
         {std::begin(TestbedHolders), std::end(TestbedHolders)}});
    Train.Lfns.push_back(Lfn);
  }
  D.Spec.Workloads.push_back(Train);

  // No fault plan: under seeded MTBF outages on the HIT side some seeds
  // failed hundreds of fetches, and a benchmark seed may fail none.  The
  // retry policy and deadline guard against stalls.
  D.Fetch.Streams = 8;
  D.Fetch.MaxFailovers = 2;
  D.Fetch.DeadlineSeconds = 300.0;
  D.Fetch.Register = false;
  D.Testbed = true;
  for (size_t K = 0; K != DecisionCount; ++K) {
    OracleProbe P;
    P.Lfn = Train.Lfns[K % Train.Lfns.size()];
    P.ClientHost = TestbedClients[K % 3];
    P.DecisionTime = FirstDecision + double(K) * DecisionPeriod;
    P.Streams = D.Fetch.Streams;
    P.MaxFetchSeconds = OracleFetchBudget;
    D.Decisions.push_back(P);
  }
  return D;
}

//===----------------------------------------------------------------------===//
// Wiring
//===----------------------------------------------------------------------===//

/// A persistent background reader: resubmits on completion until \p Until,
/// so the measured grid and every oracle replay see the same byte stream.
void pump(DataGrid &G, const char *Src, const char *Dst, SimTime Until) {
  TransferSpec TS;
  TS.Source = G.findHost(Src);
  TS.Destination = G.findHost(Dst);
  TS.FileBytes = units::megabytes(96);
  TS.Protocol = TransferProtocol::GridFtpModeE;
  TS.Streams = 4;
  G.transfers().submit(TS, [&G, Src, Dst, Until](const TransferResult &R) {
    if (G.sim().now() >= Until)
      return;
    if (R.succeeded())
      pump(G, Src, Dst, Until);
    else
      G.sim().schedule(PumpRetrySeconds,
                       [&G, Src, Dst, Until] { pump(G, Src, Dst, Until); });
  });
}

/// The testbed's deterministic foreground, applied to the measured grid
/// and to every oracle replay right after the build: hit0's disk serves
/// two background readers (an endpoint skew probes cannot see), every
/// decision path is watched from the start, completed transfers feed the
/// transfer log, and stalled transfers are retried, so a stall ends in a
/// restart or failover rather than a wait.
void applyTestbedForeground(DataGrid &G) {
  const SimTime Until = PumpUntil;
  for (const char *Dst : {"alpha4", "lz03"})
    G.sim().scheduleAt(2.0, [&G, Dst, Until] { pump(G, "hit0", Dst, Until); });
  for (const char *C : TestbedClients)
    for (const char *H : TestbedHolders)
      G.info().watchPath(G.findHost(C)->node(), G.findHost(H)->node());
  G.enableTransferLog();
  RetryPolicy Retry;
  Retry.StallTimeout = 5.0;
  Retry.BackoffBase = 0.5;
  Retry.BackoffMax = 4.0;
  Retry.MaxAttempts = 2;
  G.transfers().setRetryPolicy(Retry);
}

/// The replica stack on one grid.  Construction order is fixed, so the
/// forks it takes off the kernel's random tree are the same on every grid.
struct Stack {
  Stack(const WorkloadDef &D, DataGrid &G, SpanRecorder *Rec) {
    SelectionPolicy *P = &Cost;
    if (D.Testbed) {
      applyTestbedForeground(G);
    } else {
      // One network rebalance per cap-refresh tick instead of one per
      // stripe, and a random pair ranked per selection: at thousands of
      // selections per forecast period, plain arg-max herds onto stale
      // winners (as bench_scale runs it).
      G.transfers().setBatchedRefresh(true);
      Two = std::make_unique<TwoChoicePolicy>(
          Cost, RandomEngine(D.Spec.Seed * 7919 + 13).fork());
      P = Two.get();
    }
    if (Rec) {
      Timed = std::make_unique<TimedPolicy>(*P, *Rec);
      P = Timed.get();
    }
    Sel = std::make_unique<ReplicaSelector>(G.catalog(), G.info(), *P);
    Mgr = std::make_unique<ReplicaManager>(G.catalog(), *Sel, G.transfers());
  }

  CostModelPolicy Cost;
  std::unique_ptr<TwoChoicePolicy> Two;
  std::unique_ptr<TimedPolicy> Timed;
  std::unique_ptr<ReplicaSelector> Sel;
  std::unique_ptr<ReplicaManager> Mgr;
};

/// An oracle replay's stack: the replica stack plus the shipping
/// WorkloadDriver replaying the training stream.
struct ReplayStack {
  ReplayStack(const WorkloadDef &D, DataGrid &G)
      : S(D, G, nullptr), Driver(G, *S.Mgr) {
    Driver.start(0, D.Fetch);
  }
  Stack S;
  WorkloadDriver Driver;
};

/// Replays a grid's workload 0 through ReplicaManager::fetch, scheduling
/// exactly as WorkloadDriver does (each arrival schedules its successor,
/// then fetches), so the kernel sees the same event sequence.  Times each
/// fetch() call and reads counters around it.
class TracedStream {
public:
  TracedStream(DataGrid &G, Stack &S, const FetchOptions &Fetch,
               SpanRecorder &Rec, Outcome &Out)
      : G(G), S(S), Fetch(Fetch), Rec(Rec), Out(Out),
        FetchLayer(Rec.layer("replica.fetch")),
        Resolved(G.workloadArrivals(0).size(), 0) {}

  void start() {
    if (!arrivals().empty())
      schedule(0);
  }

  /// Arrivals resolved other than exactly once.
  size_t misresolved() const {
    return size_t(std::count_if(Resolved.begin(), Resolved.end(),
                                [](uint32_t N) { return N != 1; }));
  }
  size_t byteMismatches() const { return ByteMismatches; }

private:
  const std::vector<WorkloadArrival> &arrivals() const {
    return G.workloadArrivals(0);
  }

  void schedule(size_t Pos) {
    G.sim().scheduleAt(arrivals()[Pos].Time, [this, Pos] {
      if (Pos + 1 < arrivals().size())
        schedule(Pos + 1);
      arrive(Pos);
    });
  }

  void arrive(size_t Pos) {
    const WorkloadSpec &W = G.spec().Workloads[0];
    const WorkloadArrival &A = arrivals()[Pos];
    Host *Client = G.findHost(W.Clients[A.ClientIdx]);
    ++Out.Stream.Arrivals;
    LayerCounters &L = Out.Layers;
    size_t SensorsBefore = G.info().pathSensorCount();
    uint64_t RebalancesBefore = G.network().rebalanceEvents();
    uint32_t Span = Rec.begin(FetchLayer, Pos + 1);
    S.Mgr->fetch(W.Lfns[A.LfnIdx], *Client, Fetch,
                 [this, Pos](const FetchResult &R) { resolve(Pos, R); });
    Rec.end(Span);
    ++L.FetchCalls;
    L.FetchUs.push_back(double(Rec.spans()[Span].durationNs()) / 1e3);
    size_t SensorsAfter = G.info().pathSensorCount();
    if (SensorsAfter > SensorsBefore)
      L.PathSensorsCreatedInFetch += SensorsAfter - SensorsBefore;
    L.RebalancesInFetch += G.network().rebalanceEvents() - RebalancesBefore;
  }

  /// WorkloadDriver's accounting, plus the per-fetch output checks.
  void resolve(size_t Pos, const FetchResult &R) {
    ++Resolved[Pos];
    WorkloadCounters &C = Out.Stream;
    C.QueueWaitSeconds.push_back(R.QueueSeconds);
    if (R.Succeeded) {
      ++C.Completed;
      if (R.LocalHit)
        ++C.LocalHits;
      C.GoodputBytes += R.FileBytes;
      C.WastedBytes += R.ResentBytes;
      C.SojournSeconds.push_back(R.EndTime - R.StartTime);
      if (std::abs(R.DeliveredBytes - R.FileBytes) > 1e-6 * R.FileBytes + 1.0)
        ++ByteMismatches;
      return;
    }
    if (R.Shed)
      ++C.Shed;
    else if (R.DeadlineExpired)
      ++C.DeadlineExpired;
    else
      ++C.Failed;
    C.WastedBytes += R.DeliveredBytes + R.ResentBytes;
  }

  DataGrid &G;
  Stack &S;
  const FetchOptions &Fetch;
  SpanRecorder &Rec;
  Outcome &Out;
  uint32_t FetchLayer;
  std::vector<uint32_t> Resolved;
  size_t ByteMismatches = 0;
};

void readCounters(DataGrid &G, const Stack &S, LayerCounters &L) {
  L.RankingRebinds = S.Sel->rankingRebinds();
  L.Failovers = S.Mgr->totalFailovers();
  InformationService &Info = G.info();
  L.FactorQueries = Info.factorQueries();
  L.FactorRecomputes = Info.factorRecomputes();
  L.PathSensorsEnd = Info.pathSensorCount();
  L.LogAppends = G.transferLog() ? G.transferLog()->totalAppends() : 0;
  L.GateRejections = Info.gateRejections();
  FlowNetwork &Net = G.network();
  L.Rebalances = Net.rebalanceEvents();
  L.DemandsSolved = Net.rebalanceDemandsSolved();
  L.RoutesComputed = Net.routing().routesComputed();
  L.RouteEvictions = Net.routing().evictions();
  L.EventSlots = G.sim().eventSlotCount();
  TransferManager &T = G.transfers();
  L.GftpCompleted = T.completedTransfers();
  L.GftpFailed = T.failedTransfers();
  L.GftpRestarts = T.totalRestarts();
  L.GftpTimeouts = T.totalTimeouts();
  L.GftpShed = T.totalShed();
  L.FaultsInjected = G.faults() ? G.faults()->counters().totalFaults() : 0;
}

/// A built measured grid with its stack.
struct Built {
  std::unique_ptr<DataGrid> G;
  std::unique_ptr<Stack> S;
};

Built buildMeasured(const WorkloadDef &D, SpanRecorder *Rec) {
  Built B;
  {
    ScopedSpan Span(Rec, Rec ? Rec->layer("grid.build") : 0);
    B.G = DataGrid::buildFrom(D.Spec);
  }
  B.S = std::make_unique<Stack>(D, *B.G, Rec);
  return B;
}

} // namespace

//===----------------------------------------------------------------------===//
// Outcome
//===----------------------------------------------------------------------===//

uint64_t Outcome::decisionsCorrect() const {
  return uint64_t(std::count_if(
      Decisions.begin(), Decisions.end(),
      [](const DecisionRecord &R) { return R.Chosen == R.Fastest; }));
}

uint64_t Outcome::decisionsUnreachable() const {
  return uint64_t(
      std::count_if(Decisions.begin(), Decisions.end(),
                    [](const DecisionRecord &R) { return !R.Reachable; }));
}

uint64_t Outcome::attempted() const {
  return Stream.Arrivals + Decisions.size();
}

uint64_t Outcome::failed() const {
  return Stream.Failed + Stream.Shed + Stream.DeadlineExpired +
         decisionsUnreachable();
}

uint64_t Outcome::digest() const {
  Digest H;
  H.add(Events);
  H.add(Stream.Arrivals);
  H.add(Stream.Completed);
  H.add(Stream.Failed);
  H.add(Stream.Shed);
  H.add(Stream.DeadlineExpired);
  H.add(Stream.LocalHits);
  H.add(Stream.GoodputBytes);
  H.add(Stream.WastedBytes);
  H.add(uint64_t(Stream.SojournSeconds.size()));
  for (double S : Stream.SojournSeconds)
    H.add(S);
  for (double Q : Stream.QueueWaitSeconds)
    H.add(Q);
  for (const DecisionRecord &R : Decisions) {
    H.add(uint64_t(R.Chosen));
    H.add(uint64_t(R.Fastest));
    H.add(R.FastestSeconds);
  }
  return H.value();
}

//===----------------------------------------------------------------------===//
// Workload
//===----------------------------------------------------------------------===//

const std::vector<std::string> &dgbench::workloadNames() {
  static const std::vector<std::string> Names = {
      "tier1024-probe", "testbed-oracle"};
  return Names;
}

Workload::Workload(std::unique_ptr<WorkloadDef> D) : D(std::move(D)) {}
Workload::~Workload() = default;

std::unique_ptr<Workload> Workload::make(const std::string &Name,
                                         uint64_t Seed) {
  WorkloadDef (*Make)(uint64_t) = nullptr;
  if (Name == "tier1024-probe")
    Make = tier1024Probe;
  else if (Name == "testbed-oracle")
    Make = testbedOracle;
  else
    return nullptr;
  return std::unique_ptr<Workload>(
      new Workload(std::make_unique<WorkloadDef>(Make(Seed))));
}

double Workload::setupOnce() const {
  auto T0 = Clock::now();
  Built B = buildMeasured(*D, nullptr);
  WorkloadDriver Driver(*B.G, *B.S->Mgr);
  Driver.start(0, D->Fetch);
  return secondsSince(T0);
}

Outcome Workload::run(SpanRecorder *Rec) const {
  Outcome Out;
  const uint64_t Sbo0 = InlineFunctionStats::heapFallbacks();
  const uint64_t Pool0 = PoolStats::growths();
  const uint32_t RunLayer = Rec ? Rec->layer("sim.run") : 0;
  const uint32_t EvalLayer = Rec ? Rec->layer("grid.oracle_evaluate") : 0;
  const uint32_t DecisionLayer = Rec ? Rec->layer("oracle.decision") : 0;

  auto T0 = Clock::now();
  Built B = buildMeasured(*D, Rec);
  DataGrid &G = *B.G;
  std::unique_ptr<WorkloadDriver> Driver;
  std::unique_ptr<TracedStream> Traced;
  if (Rec) {
    Traced = std::make_unique<TracedStream>(G, *B.S, D->Fetch, *Rec, Out);
    Traced->start();
  } else {
    Driver = std::make_unique<WorkloadDriver>(G, *B.S->Mgr);
    Driver->start(0, D->Fetch);
  }
  Out.SetupS = secondsSince(T0);
  Out.SegmentS.push_back(Out.SetupS);
  Out.ArrivalsOffered = G.workloadArrivals(0).size();

  auto RunSim = [&](SimTime Until) {
    ScopedSpan Span(Rec, RunLayer);
    auto R0 = Clock::now();
    if (std::isfinite(Until))
      G.sim().runUntil(Until);
    else
      G.sim().run();
    Out.RunSegments.push_back(Out.SegmentS.size());
    Out.SegmentS.push_back(secondsSince(R0));
  };
  if (D->RunSlice > 0.0)
    for (size_t I = 1; double(I) * D->RunSlice < D->Spec.Workloads[0].Duration;
         ++I)
      RunSim(double(I) * D->RunSlice);

  // Oracle replays rebuild the world per holder and re-apply the same
  // foreground and replica stack.  SelectionOracle owns each replay grid
  // and destroys it before building the next, so the stack of the
  // previous replay is released here, after its grid is gone.
  auto Replay = std::make_shared<std::unique_ptr<ReplayStack>>();
  std::optional<SelectionOracle> Oracle;
  if (!D->Decisions.empty()) {
    const WorkloadDef &Def = *D;
    Oracle.emplace(D->Spec, [&Def, Replay](DataGrid &RG) {
      Replay->reset();
      *Replay = std::make_unique<ReplayStack>(Def, RG);
    });
  }

  for (size_t K = 0; K != D->Decisions.size(); ++K) {
    const OracleProbe &P = D->Decisions[K];
    RunSim(P.DecisionTime);
    ScopedSpan Span(Rec, DecisionLayer, 0x100000000ull + K);
    auto D0 = Clock::now();
    Host *Client = G.findHost(P.ClientHost);
    B.S->Sel->setTransferHintStreams(P.Streams);
    Host *Chosen = B.S->Sel->selectRef(Client->node(), P.Lfn).Chosen;
    const std::vector<Host *> &Holders = G.catalog().locateRef(P.Lfn);
    DecisionRecord R;
    R.Chosen = size_t(std::find(Holders.begin(), Holders.end(), Chosen) -
                      Holders.begin());
    OracleVerdict V;
    {
      ScopedSpan Eval(Rec, EvalLayer);
      V = Oracle->evaluate(P);
    }
    Out.SegmentS.push_back(secondsSince(D0));
    R.Fastest = V.FastestIndex;
    R.FastestSeconds = V.FastestSeconds;
    R.Reachable = V.fastestReachable();
    if (V.Candidates.size() != Holders.size())
      Out.Problems.push_back("oracle verdict " + std::to_string(K) +
                             " lists " + std::to_string(V.Candidates.size()) +
                             " holders, catalog has " +
                             std::to_string(Holders.size()));
    Out.Decisions.push_back(R);
  }
  RunSim(std::numeric_limits<double>::infinity());
  Out.WallS = secondsSince(T0);
  Replay->reset();

  if (Driver)
    Out.Stream = Driver->counters();
  Out.Events = G.sim().eventsExecuted();
  readCounters(G, *B.S, Out.Layers);
  Out.Layers.OracleReplays = Oracle ? Oracle->replaysBuilt() : 0;
  Out.Layers.SboHeapFallbacks = InlineFunctionStats::heapFallbacks() - Sbo0;
  Out.Layers.PoolGrowths = PoolStats::growths() - Pool0;

  // Output checks.
  const WorkloadCounters &C = Out.Stream;
  auto Problem = [&Out](std::string M) { Out.Problems.push_back(M); };
  if (C.Arrivals != Out.ArrivalsOffered)
    Problem(std::to_string(C.Arrivals) + " of " +
            std::to_string(Out.ArrivalsOffered) + " offered arrivals ran");
  if (C.resolved() != C.Arrivals)
    Problem(std::to_string(C.resolved()) + " resolutions for " +
            std::to_string(C.Arrivals) + " arrivals");
  if (C.SojournSeconds.size() != C.Completed)
    Problem("sojourn samples do not match completions");
  if (C.Arrivals == 0 ||
      double(C.Completed) < MinCompletion * double(C.Arrivals))
    Problem("only " + std::to_string(C.Completed) + " of " +
            std::to_string(C.Arrivals) + " fetches completed");
  if (Traced) {
    if (size_t N = Traced->misresolved())
      Problem(std::to_string(N) + " arrivals did not resolve exactly once");
    if (size_t N = Traced->byteMismatches())
      Problem(std::to_string(N) +
              " successful fetches delivered other than the file's bytes");
  }
  return Out;
}
