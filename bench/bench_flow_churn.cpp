//===- bench/bench_flow_churn.cpp -----------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Macro run: network-substrate flow churn at production scale.
///
/// Keeps 1k / 10k concurrent flows alive while starting, cancelling and
/// re-capping flows under a running clock, on two topologies:
///
///   * isolated-pairs — many independent bottlenecks, the geometry
///     incremental rebalancing exploits (events re-solve one small
///     component, not the world);
///   * shared-core — a star where saturated access channels chain most
///     flows into one component, the adversarial case where only the
///     event-driven solver (not incrementality) can help.
///
/// Reports the mean re-solved component size and the final divergence
/// from a full from-scratch solve, which must stay within the 1e-9
/// check-mode tolerance, on stdout, so `--quick` stdout can be pinned.
/// End-to-end churn throughput (steps/s and committed rebalances/s over
/// the churn window) is host time and prints to stderr.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "exp/Options.h"
#include "net/FlowNetwork.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

using namespace dgsim;
using namespace dgsim::units;

namespace {

struct ChurnResult {
  double StepsPerSec = 0.0;
  /// Committed rebalances per wall second over the churn window.  Churn
  /// rebalances synchronously inside each operation and the flows are too
  /// large to complete within the window, so kernel events/s would read
  /// ~0 here; rebalances are the work the window measures.
  double RebalancesPerSec = 0.0;
  double MeanComponent = 0.0;
  double MaxError = 0.0;
  /// Wall seconds of the churn window (host-side; provenance only).
  double WallSeconds = 0.0;
  /// Committed rebalances during the window (deterministic).
  uint64_t Rebalances = 0;
};

/// Builds the topology, ramps up to \p NumFlows concurrent flows, then runs
/// \p Steps churn operations with the clock advancing so completions and
/// stale heap entries are exercised too.
ChurnResult runChurn(size_t NumFlows, bool SharedCore, size_t Steps,
                     uint64_t Seed) {
  Simulator Sim(Seed);
  Topology Topo;
  constexpr size_t NumSites = 128;
  std::vector<NodeId> Src(NumSites), Dst(NumSites);
  if (SharedCore) {
    NodeId Core = Topo.addNode("core");
    for (size_t I = 0; I < NumSites; ++I) {
      Src[I] = Topo.addNode("site" + std::to_string(I));
      Topo.addLink(Src[I], Core, gbps(1), 0.002);
      Dst[I] = Src[I]; // Flows run site -> site through the core.
    }
  } else {
    for (size_t I = 0; I < NumSites; ++I) {
      Src[I] = Topo.addNode("src" + std::to_string(I));
      Dst[I] = Topo.addNode("dst" + std::to_string(I));
      Topo.addLink(Src[I], Dst[I], gbps(1), 0.002);
    }
  }
  Routing Router(Topo);
  FlowNetwork Net(Sim, Topo, Router);

  RandomEngine Rng(Seed * 48271 + NumFlows);
  auto pickPair = [&](NodeId &S, NodeId &D) {
    size_t A = size_t(Rng.uniform() * NumSites) % NumSites;
    if (SharedCore) {
      size_t B = (A + 1 + size_t(Rng.uniform() * (NumSites - 1))) % NumSites;
      S = Src[A];
      D = Src[B];
    } else {
      S = Src[A];
      D = Dst[A];
    }
  };
  // With DeferredCap set the flow starts at cap 0 (it binds no channel, so
  // its start solves only itself) and its drawn cap goes to *DeferredCap.
  // The draws are the same either way.
  auto start = [&](BitRate *DeferredCap = nullptr) {
    NodeId S, D;
    pickPair(S, D);
    FlowOptions Options;
    Options.Streams = 1 + unsigned(Rng.uniform() * 4.0);
    Options.EndpointCap = Rng.uniform(mbps(1), mbps(50));
    Options.Background = true;
    if (DeferredCap) {
      *DeferredCap = Options.EndpointCap;
      Options.EndpointCap = 0.0;
    }
    // Large enough that churn, not completion, dominates; finite so the
    // completion machinery still fires under the advancing clock.
    return Net.startFlow(S, D, gigabytes(Rng.uniform(1.0, 64.0)), Options,
                         nullptr);
  };

  // The untimed ramp pays one solve of the whole flow set.  Starting each
  // flow at its cap would re-solve a component that grows to every flow on
  // each start, which costs more than the timed churn window.
  std::vector<FlowId> LiveIds(NumFlows);
  std::vector<BitRate> Caps(NumFlows);
  for (size_t I = 0; I < NumFlows; ++I)
    LiveIds[I] = start(&Caps[I]);
  for (size_t I = 0; I < NumFlows; ++I)
    Net.updateEndpointCap(LiveIds[I], Caps[I]);
  Net.commitEndpointCaps();

  uint64_t Events0 = Net.rebalanceEvents();
  uint64_t Demands0 = Net.rebalanceDemandsSolved();
  auto Wall0 = std::chrono::steady_clock::now();
  for (size_t I = 0; I < Steps; ++I) {
    // Drop flows that completed while the clock advanced.
    while (!LiveIds.empty() && Net.remainingBytes(LiveIds.back()) == 0.0)
      LiveIds.pop_back();
    double Op = Rng.uniform();
    if (Op < 0.40 && !LiveIds.empty()) {
      size_t Pick = size_t(Rng.uniform() * LiveIds.size()) % LiveIds.size();
      Net.cancelFlow(LiveIds[Pick]);
      LiveIds[Pick] = LiveIds.back();
      LiveIds.pop_back();
      LiveIds.push_back(start());
    } else if (Op < 0.80 || LiveIds.empty()) {
      LiveIds.push_back(start());
      if (LiveIds.size() > NumFlows) {
        Net.cancelFlow(LiveIds.front());
        LiveIds.front() = LiveIds.back();
        LiveIds.pop_back();
      }
    } else {
      size_t Pick = size_t(Rng.uniform() * LiveIds.size()) % LiveIds.size();
      Net.setEndpointCap(LiveIds[Pick], Rng.uniform(mbps(1), mbps(50)));
    }
    if (I % 64 == 63)
      Sim.runUntil(Sim.now() + 0.1);
  }
  auto Wall1 = std::chrono::steady_clock::now();

  ChurnResult R;
  double Seconds = std::chrono::duration<double>(Wall1 - Wall0).count();
  R.WallSeconds = Seconds;
  R.StepsPerSec = Seconds > 0.0 ? double(Steps) / Seconds : 0.0;
  uint64_t Events = Net.rebalanceEvents() - Events0;
  uint64_t Demands = Net.rebalanceDemandsSolved() - Demands0;
  R.Rebalances = Events;
  R.RebalancesPerSec = Seconds > 0.0 ? double(Events) / Seconds : 0.0;
  R.MeanComponent = Events > 0 ? double(Demands) / double(Events) : 0.0;
  R.MaxError = Net.maxRebalanceError();
  return R;
}

} // namespace

int main(int argc, char **argv) {
  exp::BenchOptions Opt =
      exp::parseBenchOptions(argc, argv, "flow_churn", /*BaseSeed=*/7);
  const uint64_t Seed = Opt.BaseSeed;
  const size_t Div = Opt.Quick ? 4 : 1;
  bench::banner("Network substrate: flow churn at scale",
                "perf harness for incremental rebalancing (events re-solve "
                "one component, not every concurrent flow)");

  // Deterministic columns on stdout, host rates on stderr.
  Table T, Host;
  T.setHeader({"flows", "topology", "mean component", "max err"});
  Host.setHeader({"flows", "topology", "steps/s", "rebalances/s"});
  ChurnResult Pairs1k = runChurn(1000, false, 2000 / Div, Seed);
  ChurnResult Pairs10k = runChurn(10000, false, 2000 / Div, Seed);
  ChurnResult Core1k = runChurn(1000, true, 1000 / Div, Seed);
  ChurnResult Core10k = runChurn(10000, true, 200 / Div, Seed);
  auto Row = [&](size_t Flows, const char *Topo, const ChurnResult &R) {
    T.beginRow();
    T.add(static_cast<long long>(Flows));
    T.add(Topo);
    T.add(R.MeanComponent, 1);
    T.add(R.MaxError, 12);
    Host.beginRow();
    Host.add(static_cast<long long>(Flows));
    Host.add(Topo);
    Host.add(R.StepsPerSec, 0);
    Host.add(R.RebalancesPerSec, 0);
  };
  Row(1000, "isolated-pairs", Pairs1k);
  Row(10000, "isolated-pairs", Pairs10k);
  Row(1000, "shared-core", Core1k);
  Row(10000, "shared-core", Core10k);
  T.print(stdout);
  std::printf("\n");
  std::fflush(stdout);
  std::fprintf(stderr, "host:\n");
  Host.print(stderr);

  double WorstErr =
      std::max(std::max(Pairs1k.MaxError, Pairs10k.MaxError),
               std::max(Core1k.MaxError, Core10k.MaxError));
  bool Exact = WorstErr <= 1e-9;
  // 10x the flows must not mean 10x the work per event where bottlenecks
  // are independent: the component stays the bottleneck's flow set.
  bool Incremental = Pairs10k.MeanComponent <= double(10000) / 10.0;
  // At 1k flows the pair links are unsaturated (components of ~1 demand);
  // at 10k they saturate (~80 demands), so steps/s legitimately drops.
  // What must hold is the demand-solve rate: 10x the flows must not make
  // each solved demand materially more expensive.
  auto DemandsPerSec = [](const ChurnResult &R) {
    return R.StepsPerSec * std::max(R.MeanComponent, 1.0);
  };
  bool Scales = DemandsPerSec(Pairs10k) >= DemandsPerSec(Pairs1k) / 5.0;
  bench::shapeCheck(Exact,
                    "incremental rates match a full solve to 1e-9 after "
                    "thousands of churn events");
  bench::shapeCheck(Incremental,
                    "mean re-solved component stays small on independent "
                    "bottlenecks (10k flows)");
  bench::shapeCheck(Scales,
                    "churn throughput degrades sublinearly from 1k to 10k "
                    "concurrent flows");

  std::string JsonPath = Opt.jsonPath();
  if (!JsonPath.empty()) {
    json::JsonWriter W;
    W.beginObject();
    W.member("schema", "dgsim-flow-churn-v2");
    W.member("id", Opt.Id);
    W.member("git", exp::gitDescribe());
    W.member("seed", Seed);
    W.key("configs");
    W.beginArray();
    auto Emit = [&W](size_t Flows, const char *Topo, const ChurnResult &R) {
      W.beginObject();
      W.member("flows", uint64_t(Flows));
      W.member("topology", Topo);
      W.member("steps_per_s", R.StepsPerSec);
      W.member("rebalances_per_s", R.RebalancesPerSec);
      W.member("mean_component", R.MeanComponent);
      W.member("max_err", R.MaxError);
      W.member("rebalances", R.Rebalances);
      W.member("wall_s", R.WallSeconds);
      W.endObject();
    };
    Emit(1000, "isolated-pairs", Pairs1k);
    Emit(10000, "isolated-pairs", Pairs10k);
    Emit(1000, "shared-core", Core1k);
    Emit(10000, "shared-core", Core10k);
    W.endArray();
    W.endObject();
    exp::writeBenchJson(JsonPath, W.take());
    std::printf("json -> %s\n", JsonPath.c_str());
  }
  return bench::exitCode();
}
