//===- bench/bench_micro_kernel.cpp -------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks of the simulator's hot kernels: event
/// queue throughput, the max-min fair-share solver, routing, and the NWS
/// forecaster battery.  These bound how large a grid the ablation benches
/// can simulate in reasonable wall-clock time.
///
//===----------------------------------------------------------------------===//

#include "exp/ExperimentRunner.h"
#include "exp/MetricSink.h"
#include "exp/Scenario.h"
#include "host/Host.h"
#include "monitor/Forecaster.h"
#include "monitor/InformationService.h"
#include "net/FairShare.h"
#include "net/FlowNetwork.h"
#include "net/Routing.h"
#include "net/Topology.h"
#include "replica/CostModel.h"
#include "replica/ReplicaCatalog.h"
#include "replica/ReplicaSelector.h"
#include "replica/SelectionPolicy.h"
#include "sim/Simulator.h"
#include "support/Random.h"
#include "support/StringInterner.h"
#include "support/Units.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

using namespace dgsim;

static void BM_EventScheduleAndRun(benchmark::State &State) {
  const size_t N = State.range(0);
  for (auto _ : State) {
    Simulator Sim;
    RandomEngine Rng(1);
    size_t Fired = 0;
    for (size_t I = 0; I < N; ++I)
      Sim.schedule(Rng.uniform(0, 1000), [&Fired] { ++Fired; });
    Sim.run();
    benchmark::DoNotOptimize(Fired);
  }
  State.SetItemsProcessed(State.iterations() * N);
}
BENCHMARK(BM_EventScheduleAndRun)->Arg(1000)->Arg(10000)->Arg(100000);

static void BM_FairShareSolve(benchmark::State &State) {
  const size_t Flows = State.range(0);
  const size_t Resources = 64;
  RandomEngine Rng(2);
  std::vector<double> Cap(Resources);
  for (auto &C : Cap)
    C = Rng.uniform(10, 1000);
  std::vector<FairShareDemand> Demands(Flows);
  for (auto &D : Demands) {
    size_t Hops = 1 + Rng.uniformInt(4);
    for (size_t I = 0; I < Hops; ++I)
      D.Resources.push_back(Rng.uniformInt(Resources));
    D.Cap = Rng.uniform(1, 500);
    D.Weight = 1.0 + Rng.uniformInt(16);
  }
  for (auto _ : State) {
    auto R = solveMaxMinFairShare(Cap, Demands);
    benchmark::DoNotOptimize(R);
  }
  State.SetItemsProcessed(State.iterations() * Flows);
}
BENCHMARK(BM_FairShareSolve)->Arg(16)->Arg(64)->Arg(256);

static void BM_RoutingColdPaths(benchmark::State &State) {
  const size_t Sites = State.range(0);
  Topology Topo;
  NodeId Core = Topo.addNode("core");
  std::vector<NodeId> Leaves;
  RandomEngine Rng(3);
  for (size_t I = 0; I < Sites; ++I) {
    NodeId N = Topo.addNode("n" + std::to_string(I));
    Topo.addLink(N, Core, 1e9, Rng.uniform(0.001, 0.01));
    Leaves.push_back(N);
  }
  for (auto _ : State) {
    Routing Router(Topo); // Cold cache each iteration.
    double Acc = 0.0;
    for (size_t I = 1; I < Leaves.size(); ++I)
      Acc += Router.pathRef(Leaves[0], Leaves[I])->Rtt;
    benchmark::DoNotOptimize(Acc);
  }
  State.SetItemsProcessed(State.iterations() * (Sites - 1));
}
BENCHMARK(BM_RoutingColdPaths)->Arg(16)->Arg(64)->Arg(256);

namespace {

/// Flow-churn harness: \p Pairs isolated source->sink pairs (one dedicated
/// link each) or, when \p SharedCore is set, a star where every pair routes
/// through one core node, so all flows meet on the access links.  \p Flows
/// long-lived transfers are spread round-robin across the pairs; churn then
/// replaces one flow per step.  This is the event pattern of a large grid
/// ablation: arrivals and departures against a big standing flow set.
struct ChurnFixture {
  Simulator Sim{11};
  Topology Topo;
  std::unique_ptr<Routing> Router;
  std::unique_ptr<FlowNetwork> Net;
  std::vector<NodeId> Src, Dst;
  std::vector<FlowId> Ids;
  RandomEngine Rng{17};
  size_t Pairs;

  ChurnFixture(size_t Pairs, size_t Flows, bool SharedCore) : Pairs(Pairs) {
    NodeId Core = SharedCore ? Topo.addNode("core") : InvalidNodeId;
    for (size_t I = 0; I < Pairs; ++I) {
      Src.push_back(Topo.addNode("s" + std::to_string(I)));
      Dst.push_back(Topo.addNode("d" + std::to_string(I)));
      if (SharedCore) {
        Topo.addLink(Src[I], Core, 1e9, 0.002, 1e-4);
        Topo.addLink(Core, Dst[I], 1e9, 0.002, 1e-4);
      } else {
        Topo.addLink(Src[I], Dst[I], 1e9, 0.005, 1e-4);
      }
    }
    Router = std::make_unique<Routing>(Topo);
    Net = std::make_unique<FlowNetwork>(Sim, Topo, *Router);
    for (size_t I = 0; I < Flows; ++I)
      Ids.push_back(startOne(I % Pairs));
  }

  FlowId startOne(size_t Pair) {
    FlowOptions Opt;
    Opt.Streams = 1 + static_cast<unsigned>(Rng.uniformInt(4));
    Opt.EndpointCap = Rng.uniform(1e6, 5e7);
    Opt.Background = true; // Pure churn; nothing keeps run() alive.
    // Volumes far beyond what the bench moves: no completions interfere.
    return Net->startFlow(Src[Pair], Dst[Pair], 1e15, Opt, nullptr);
  }
};

} // namespace

/// One churn step = cancel one standing flow + start a replacement: two
/// rebalance events against range(0) concurrent flows on disjoint pairs.
static void BM_FlowChurn(benchmark::State &State) {
  ChurnFixture F(128, State.range(0), /*SharedCore=*/false);
  size_t Cursor = 0;
  for (auto _ : State) {
    F.Net->cancelFlow(F.Ids[Cursor]);
    F.Ids[Cursor] = F.startOne(Cursor % F.Pairs);
    Cursor = (Cursor + 1) % F.Ids.size();
  }
  State.SetItemsProcessed(State.iterations() * 2); // Two events per step.
}
BENCHMARK(BM_FlowChurn)->Arg(1000)->Arg(10000)->Unit(benchmark::kMicrosecond);

/// Adversarial variant: every flow crosses the shared star, so each event's
/// affected component is large and the win must come from the solver itself.
static void BM_FlowChurnSharedCore(benchmark::State &State) {
  ChurnFixture F(64, State.range(0), /*SharedCore=*/true);
  size_t Cursor = 0;
  for (auto _ : State) {
    F.Net->cancelFlow(F.Ids[Cursor]);
    F.Ids[Cursor] = F.startOne(Cursor % F.Pairs);
    Cursor = (Cursor + 1) % F.Ids.size();
  }
  State.SetItemsProcessed(State.iterations() * 2);
}
BENCHMARK(BM_FlowChurnSharedCore)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

/// A single cap-change event against a standing flow set: the cost of one
/// rebalance when only one flow's constraint moved.
static void BM_IncrementalRebalance(benchmark::State &State) {
  ChurnFixture F(128, State.range(0), /*SharedCore=*/false);
  FlowId Target = F.Ids[0];
  const double Caps[2] = {2e7, 3e7};
  size_t K = 0;
  for (auto _ : State)
    F.Net->setEndpointCap(Target, Caps[K ^= 1]);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_IncrementalRebalance)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

//===----------------------------------------------------------------------===//
// Selection: filter the holders, query each candidate, rank
//===----------------------------------------------------------------------===//

namespace {

/// A star grid sized for selection benchmarking: \p Sites replica holders
/// behind one core, \p Files logical files with \p Replicas holders each,
/// and one client issuing every select.  Sensors are warmed before
/// measurement so selects pay the steady-state pipeline cost, not
/// cold-start artifacts.
struct SelectFixture {
  Simulator Sim{21};
  Topology Topo;
  std::unique_ptr<Routing> Router;
  std::unique_ptr<FlowNetwork> Net;
  std::unique_ptr<InformationService> Info;
  std::vector<std::unique_ptr<Host>> Hosts;
  ReplicaCatalog Cat;
  CostModelPolicy Policy;
  std::unique_ptr<ReplicaSelector> Sel;
  NodeId ClientNode;
  std::vector<std::string> Lfns;

  SelectFixture(size_t Sites, size_t Files, size_t Replicas) {
    using namespace dgsim::units;
    RandomEngine Rng(9);
    NodeId Core = Topo.addNode("core");
    ClientNode = Topo.addNode("client");
    Topo.addLink(ClientNode, Core, gbps(1), 0.002);
    std::vector<NodeId> Nodes;
    for (size_t I = 0; I < Sites; ++I) {
      NodeId N = Topo.addNode("site" + std::to_string(I));
      Topo.addLink(N, Core, Rng.uniform(mbps(100), gbps(1)),
                   Rng.uniform(0.001, 0.02));
      Nodes.push_back(N);
    }
    Router = std::make_unique<Routing>(Topo);
    Net = std::make_unique<FlowNetwork>(Sim, Topo, *Router);
    for (size_t I = 0; I < Sites; ++I) {
      HostConfig HC;
      HC.Name = "site" + std::to_string(I);
      HC.NicRate = gbps(1);
      HC.Cpu.MeanLoad = Rng.uniform(0.0, 0.8);
      HC.DiskCfg.ReadRate = mbps(400);
      HC.DiskCfg.WriteRate = mbps(400);
      HC.DiskCfg.Background.MeanLoad = Rng.uniform(0.0, 0.6);
      Hosts.push_back(std::make_unique<Host>(Sim, HC, Nodes[I]));
    }
    Info = std::make_unique<InformationService>(Sim, *Net);
    for (auto &H : Hosts)
      Info->registerHost(*H);
    for (size_t F = 0; F < Files; ++F) {
      std::string Lfn = "dataset/file" + std::to_string(F);
      Cat.registerFile(Lfn, megabytes(64));
      for (size_t R = 0; R < Replicas; ++R)
        Cat.addReplica(Lfn, *Hosts[(F * 7 + R * 13) % Sites]);
      Lfns.push_back(std::move(Lfn));
    }
    Sel = std::make_unique<ReplicaSelector>(Cat, *Info, Policy);
    Sim.runUntil(30.0); // Warm every sensor past its first samples.
  }
};

} // namespace

/// One replica selection per iteration over a rotating file set: the
/// cost model queries every holder's current factors and ranks them.
static void BM_SelectReplica(benchmark::State &State) {
  SelectFixture F(64, 128, 4);
  size_t I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(F.Sel->selectRef(F.ClientNode, F.Lfns[I]));
    I = (I + 1) % F.Lfns.size();
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_SelectReplica);

static void BM_NwsForecasterObserve(benchmark::State &State) {
  RandomEngine Rng(4);
  std::vector<double> Series(4096);
  for (auto &X : Series)
    X = Rng.uniform(0, 100);
  for (auto _ : State) {
    NwsForecaster F;
    for (double X : Series) {
      F.observe(X);
      benchmark::DoNotOptimize(F.predict());
    }
  }
  State.SetItemsProcessed(State.iterations() * Series.size());
}
BENCHMARK(BM_NwsForecasterObserve);

//===----------------------------------------------------------------------===//
// Event-kernel microbenches: the indexed heap, periodic re-arming, and the
// interned string maps these kernels feed.
//===----------------------------------------------------------------------===//

/// Windowed cancel+reschedule churn: a standing ring of pending events where
/// every step cancels one and schedules a replacement.  This is the pattern
/// timeouts and watchdogs produce, and it exercises O(log n) in-place heap
/// removal — under the old lazy-deletion scheme each cancel left a tombstone
/// the pop loop had to skip later.
static void BM_EventChurn(benchmark::State &State) {
  const size_t Window = State.range(0);
  Simulator Sim;
  RandomEngine Rng(5);
  std::vector<EventId> Ring(Window);
  // Far-future events: nothing fires, the heap stays at window size.
  for (EventId &Id : Ring)
    Id = Sim.schedule(1e6 + Rng.uniform(0, 1000), [] {});
  size_t Cursor = 0;
  for (auto _ : State) {
    Sim.cancel(Ring[Cursor]);
    Ring[Cursor] = Sim.schedule(1e6 + Rng.uniform(0, 1000), [] {});
    Cursor = (Cursor + 1) % Window;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_EventChurn)->Arg(1000)->Arg(10000)->Arg(100000);

/// K standing periodics with staggered phases; each iteration advances the
/// clock one period, so K ticks re-arm without re-allocating their closures.
static void BM_PeriodicTick(benchmark::State &State) {
  const size_t K = State.range(0);
  Simulator Sim;
  uint64_t Ticks = 0;
  for (size_t I = 0; I < K; ++I)
    Sim.schedulePeriodic(1.0, [&Ticks] { ++Ticks; },
                         double(I + 1) / double(K));
  for (auto _ : State)
    Sim.runUntil(Sim.now() + 1.0);
  benchmark::DoNotOptimize(Ticks);
  State.SetItemsProcessed(State.iterations() * K);
}
BENCHMARK(BM_PeriodicTick)->Arg(100)->Arg(1000);

namespace {

/// Shared key set for the lookup benches: grid-flavoured logical file
/// names with common prefixes, the worst case for string compares.
std::vector<std::string> lookupKeys(size_t N) {
  std::vector<std::string> Keys;
  Keys.reserve(N);
  for (size_t I = 0; I < N; ++I)
    Keys.push_back("site" + std::to_string(I % 37) + "/dataset/file" +
                   std::to_string(I));
  return Keys;
}

} // namespace

/// Hot-path name resolution through the StringInterner (one hash of the
/// name, no tree walk, no per-node compares).
static void BM_InternedLookup(benchmark::State &State) {
  const size_t N = State.range(0);
  std::vector<std::string> Keys = lookupKeys(N);
  StringInterner In;
  for (const std::string &K : Keys)
    In.intern(K);
  size_t I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(In.find(Keys[I]));
    I = (I + 1) % N;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_InternedLookup)->Arg(1000)->Arg(100000);

/// The ordered-map lookup the interner replaced, kept as the comparison
/// baseline (O(log n) string compares per query).
static void BM_OrderedMapLookup(benchmark::State &State) {
  const size_t N = State.range(0);
  std::vector<std::string> Keys = lookupKeys(N);
  std::map<std::string, uint32_t> M;
  for (size_t I = 0; I < N; ++I)
    M.emplace(Keys[I], static_cast<uint32_t>(I));
  size_t I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(M.find(Keys[I]));
    I = (I + 1) % N;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_OrderedMapLookup)->Arg(1000)->Arg(100000);

//===----------------------------------------------------------------------===//
// --kernel-json=PATH: fixed-size kernel workloads through the experiment
// runner, so the sweep benches and this microbench emit the same BENCH_*.json
// schema and commits can be compared with the same tooling.
//===----------------------------------------------------------------------===//

namespace {

dgsim::exp::TrialResult runKernelTrial(const dgsim::exp::TrialPoint &P) {
  namespace exp = dgsim::exp;
  const std::string &Workload = P.param("workload");
  exp::TrialResult R;
  auto T0 = std::chrono::steady_clock::now();
  double Ops = 0.0;
  uint64_t Events = 0;
  if (Workload == "event-churn") {
    constexpr size_t Window = 10000, Steps = 200000;
    Simulator Sim(P.Seed);
    RandomEngine Rng(P.Seed);
    std::vector<EventId> Ring(Window);
    for (EventId &Id : Ring)
      Id = Sim.schedule(1e6 + Rng.uniform(0, 1000), [] {});
    size_t Cursor = 0;
    for (size_t I = 0; I < Steps; ++I) {
      Sim.cancel(Ring[Cursor]);
      Ring[Cursor] = Sim.schedule(1e6 + Rng.uniform(0, 1000), [] {});
      Cursor = (Cursor + 1) % Window;
    }
    Ops = double(Steps);
    Events = Sim.eventsExecuted();
  } else if (Workload == "periodic-tick") {
    constexpr size_t K = 1000;
    constexpr double Windows = 100.0;
    Simulator Sim(P.Seed);
    uint64_t Ticks = 0;
    for (size_t I = 0; I < K; ++I)
      Sim.schedulePeriodic(1.0, [&Ticks] { ++Ticks; },
                           double(I + 1) / double(K));
    Sim.runUntil(Windows);
    Ops = double(Ticks);
    Events = Sim.eventsExecuted();
  } else if (Workload == "select") {
    constexpr size_t Selects = 100000;
    SelectFixture F(64, 128, 4);
    size_t I = 0;
    for (size_t K = 0; K < Selects; ++K) {
      benchmark::DoNotOptimize(F.Sel->selectRef(F.ClientNode, F.Lfns[I]));
      I = (I + 1) % F.Lfns.size();
    }
    Ops = double(Selects);
    Events = F.Sim.eventsExecuted();
  } else if (Workload == "heap-dispatch") {
    constexpr size_t N = 200000;
    Simulator Sim(P.Seed);
    RandomEngine Rng(P.Seed);
    size_t Fired = 0;
    for (size_t I = 0; I < N; ++I)
      Sim.schedule(Rng.uniform(0, 1000), [&Fired] { ++Fired; });
    Sim.run();
    benchmark::DoNotOptimize(Fired);
    Ops = double(N);
    Events = Sim.eventsExecuted();
  } else { // interned-lookup
    constexpr size_t N = 20000, Lookups = 2000000;
    std::vector<std::string> Keys = lookupKeys(N);
    StringInterner In;
    for (const std::string &K : Keys)
      In.intern(K);
    uint64_t Acc = 0;
    for (size_t I = 0; I < Lookups; ++I)
      Acc += In.find(Keys[I % N]);
    benchmark::DoNotOptimize(Acc);
    Ops = double(Lookups);
  }
  double Wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
  R.set("ops_per_sec", Wall > 0.0 ? Ops / Wall : 0.0);
  R.set("events_per_sec", Wall > 0.0 ? double(Events) / Wall : 0.0);
  R.set("wall_seconds", Wall);
  return R;
}

int writeKernelReport(const std::string &Path) {
  namespace exp = dgsim::exp;
  exp::Scenario S;
  S.Id = "kernel";
  S.Title = "Event-kernel microbench workloads";
  S.Axes = {{"workload",
             {"event-churn", "periodic-tick", "interned-lookup",
              "select", "heap-dispatch"}}};
  S.Seeds = {1};
  S.Metrics = {"ops_per_sec", "events_per_sec", "wall_seconds"};
  S.Run = runKernelTrial;
  exp::JsonSink Sink(Path);
  exp::RunnerOptions Options;
  Options.Sinks.push_back(&Sink);
  exp::ExperimentRunner Runner;
  Runner.run(S, Options);
  std::printf("kernel report -> %s\n", Path.c_str());
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  // google-benchmark rejects flags it does not know, so the sink flag is
  // stripped before Initialize sees the argument vector.
  std::string KernelJson;
  std::vector<char *> Args;
  Args.push_back(argv[0]);
  for (int I = 1; I < argc; ++I) {
    std::string_view Arg = argv[I];
    constexpr std::string_view Prefix = "--kernel-json=";
    if (Arg.substr(0, std::min(Arg.size(), Prefix.size())) == Prefix) {
      KernelJson = std::string(Arg.substr(Prefix.size()));
      continue;
    }
    Args.push_back(argv[I]);
  }
  int Argc = static_cast<int>(Args.size());
  benchmark::Initialize(&Argc, Args.data());
  if (benchmark::ReportUnrecognizedArguments(Argc, Args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!KernelJson.empty())
    return writeKernelReport(KernelJson);
  return 0;
}
