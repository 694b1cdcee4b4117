//===- bench/bench_ablation_scale.cpp -----------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation: replica selection at larger site counts.
///
/// The paper's last future-work item: "extend our Data Grid testbed for
/// analyzing the performance of replica selection in a dynamic and larger
/// number of sites environment."  This bench synthesises grids of 4 to 32
/// sites (heterogeneous access links behind one backbone, one host per
/// site plus a client site), replicates one large file onto a third of the
/// sites, and compares the cost-model policy against random selection as
/// the grid grows.
///
/// The showcase sweep for the parallel runner: sites x policy x seeds are
/// fully independent trials, so `--seeds 8 --jobs 8` scales near-linearly
/// on a multi-core host while staying bit-identical to `--jobs 1`.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "exp/Options.h"
#include "grid/DataGrid.h"
#include "replica/ReplicaSelector.h"

#include <chrono>
#include <cstdlib>
#include <memory>

using namespace dgsim;
using namespace dgsim::units;

namespace {

/// Builds a synthetic star grid with \p NumSites server sites and returns
/// the mean fetch time of a 512 MB file over \p Trials selections under
/// the given policy, plus the grid's spec hash.  Each trial re-selects on
/// the live (dynamic) grid and fetches sequentially.
exp::TrialResult runScale(size_t NumSites, const std::string &Which,
                          uint64_t Seed) {
  GridSpec Spec;
  Spec.Seed = Seed;
  RandomEngine Topology(Seed * 7919 + NumSites);

  SiteConfig Client;
  Client.Name = "client-site";
  Client.Hosts.resize(1);
  Client.Hosts[0].Name = "client";
  Spec.Sites.push_back(Client);

  for (size_t I = 0; I < NumSites; ++I) {
    SiteConfig S;
    S.Name = "site" + std::to_string(I);
    S.Hosts.resize(1);
    SiteHostSpec &H = S.Hosts[0];
    H.Name = "server" + std::to_string(I);
    H.CpuSpeed = Topology.uniform(0.3, 1.2);
    H.CpuMeanLoad = Topology.uniform(0.05, 0.6);
    H.IoMeanLoad = Topology.uniform(0.05, 0.4);
    Spec.Sites.push_back(S);
  }

  Spec.Backbones.push_back("core");
  Spec.Links.push_back({"client-site", "core", gbps(1), 0.002, 1e-5});
  for (size_t I = 0; I < NumSites; ++I) {
    // Heterogeneous access links: a few fast, many mediocre, some awful.
    double Tier = Topology.uniform();
    BitRate Cap = Tier > 0.7 ? gbps(1) : Tier > 0.3 ? mbps(100) : mbps(20);
    SimTime Delay = Topology.uniform(0.002, 0.02);
    double Loss = Topology.uniform(1e-5, 3e-3);
    Spec.Links.push_back({"site" + std::to_string(I), "core", Cap, Delay,
                          Loss});
  }
  std::unique_ptr<DataGrid> G = DataGrid::buildFrom(Spec);

  G->catalog().registerFile("big-file", megabytes(512));
  size_t Replicas = std::max<size_t>(2, NumSites / 3);
  for (size_t I = 0; I < Replicas; ++I) {
    size_t Pick = (I * NumSites) / Replicas;
    G->catalog().addReplica("big-file",
                            *G->findHost("server" + std::to_string(Pick)));
  }

  std::unique_ptr<SelectionPolicy> Policy;
  if (Which == "cost-model")
    Policy = std::make_unique<CostModelPolicy>();
  else
    Policy = std::make_unique<RandomPolicy>(RandomEngine(Seed + 1));
  ReplicaSelector Sel(G->catalog(), G->info(), *Policy);

  Host *ClientHost = G->findHost("client");
  G->sim().runUntil(bench::WarmupSeconds);

  double TotalSeconds = 0.0;
  constexpr int Trials = 5;
  for (int Trial = 0; Trial < Trials; ++Trial) {
    SelectionResult R = Sel.select(ClientHost->node(), "big-file");
    TransferSpec Fetch;
    Fetch.Source = R.Chosen;
    Fetch.Destination = ClientHost;
    Fetch.FileBytes = megabytes(512);
    Fetch.Protocol = TransferProtocol::GridFtpModeE;
    Fetch.Streams = 8;
    double Seconds = 0.0;
    G->transfers().submit(
        Fetch, [&](const TransferResult &T) { Seconds = T.totalSeconds(); });
    G->sim().run();
    TotalSeconds += Seconds;
  }
  exp::TrialResult Result;
  Result.set("mean_fetch_s", TotalSeconds / Trials);
  Result.SpecHash = G->spec().hash();
  Result.EventsExecuted = G->sim().eventsExecuted();
  return Result;
}

} // namespace

int main(int argc, char **argv) {
  exp::BenchOptions Opt =
      exp::parseBenchOptions(argc, argv, "abl-scale", /*BaseSeed=*/99);
  bench::banner("Ablation: larger number of sites",
                "paper future work: replica selection in dynamic, larger "
                "grids (4-32 sites)");

  exp::Scenario S;
  S.Id = Opt.Id;
  S.Title = "Cost model vs random selection as the grid grows";
  std::vector<std::string> Sites = {"4", "8", "16", "32"};
  if (Opt.Quick)
    Sites = {"4", "8"};
  S.Axes = {{"sites", Sites}, {"policy", {"cost-model", "random"}}};
  S.Seeds = Opt.seeds();
  S.Metrics = {"mean_fetch_s"};
  S.Run = [](const exp::TrialPoint &P) {
    return runScale(std::strtoull(P.param("sites").c_str(), nullptr, 10),
                    P.param("policy"), P.Seed);
  };
  auto T0 = std::chrono::steady_clock::now();
  std::vector<exp::TrialRecord> Records = exp::runScenario(S, Opt);
  double SweepWall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();

  Table T;
  T.setHeader({"sites", "cost-model (s)", "random (s)", "speedup"});
  std::vector<double> Speedups;
  auto At = [&](const std::string &N, const char *Policy) {
    double Sum = 0.0;
    size_t Count = 0;
    for (const exp::TrialRecord &R : Records)
      if (R.Point.param("sites") == N && R.Point.param("policy") == Policy) {
        Sum += R.Result.get("mean_fetch_s");
        ++Count;
      }
    return Sum / static_cast<double>(Count);
  };
  for (const std::string &N : Sites) {
    double Cost = At(N, "cost-model");
    double Rand = At(N, "random");
    Speedups.push_back(Rand / Cost);
    T.beginRow();
    T.add(static_cast<long long>(std::strtoll(N.c_str(), nullptr, 10)));
    T.add(Cost, 1);
    T.add(Rand, 1);
    T.add(Speedups.back(), 2);
  }
  T.print(stdout);
  std::printf("\n");

  bool AlwaysWins = true;
  for (double Sp : Speedups)
    AlwaysWins &= Sp > 1.0;
  bench::shapeCheck(AlwaysWins,
                    "cost model beats random selection at every scale");
  // The growth claim needs the full 4-32 span; the quick matrix stops at 8.
  if (!Opt.Quick) {
    bool GrowsOrHolds = Speedups.back() >= Speedups.front() * 0.8;
    bench::shapeCheck(GrowsOrHolds,
                      "the advantage persists as the grid grows (more "
                      "heterogeneity to exploit)");
  }
  uint64_t Events = 0;
  for (const exp::TrialRecord &R : Records)
    Events += R.Result.EventsExecuted;
  bench::printRunFooter(Events, SweepWall);
  return bench::exitCode();
}
