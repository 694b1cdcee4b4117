//===- bench/bench_ablation_staleness.cpp ---------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation: how stale monitoring data degrades replica selection.
///
/// The paper leans on its information server being "update[d]
/// continuously" (§1) and cites a performance study of monitoring systems
/// (Zhang, Freschl & Schopf) precisely because staleness is the known
/// failure mode.  In the paper's own testbed the path hierarchy decides
/// everything, so staleness is harmless there; this bench constructs the
/// case where it is not.  Two replica servers sit behind *identical*
/// gigabit paths, but their disks suffer bursty background I/O (backup
/// jobs) that cuts deliverable bandwidth by ~3x for minutes at a time.
/// Fresh sensors steer fetches away from the server that is currently
/// busy; sensors refreshed every 10 minutes cannot.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "exp/Options.h"
#include "grid/DataGrid.h"
#include "replica/ReplicaSelector.h"
#include "support/Statistics.h"

#include <algorithm>
#include <cstdlib>
#include <memory>

using namespace dgsim;
using namespace dgsim::units;

namespace {

exp::TrialResult run(SimTime Period, uint64_t Seed) {
  GridSpec Spec;
  Spec.Seed = Seed;
  Spec.Info.BandwidthPeriod = Period;
  Spec.Info.HostPeriod = Period;

  SiteConfig Client;
  Client.Name = "client-site";
  Client.Hosts.resize(1);
  Client.Hosts[0].Name = "client";
  Client.Hosts[0].DiskWriteRate = mbps(400);
  Spec.Sites.push_back(Client);

  for (const char *Name : {"mirror-a", "mirror-b"}) {
    SiteConfig S;
    S.Name = Name;
    S.Hosts.resize(1);
    SiteHostSpec &H = S.Hosts[0];
    H.Name = std::string(Name) + "-srv";
    H.DiskReadRate = mbps(400);
    H.IoMeanLoad = 0.05;
    Spec.Sites.push_back(S);
  }
  Spec.Backbones.push_back("core");
  for (const char *Name : {"client-site", "mirror-a", "mirror-b"})
    Spec.Links.push_back({Name, "core", gbps(1), 0.003, 1e-5});
  std::unique_ptr<DataGrid> G = DataGrid::buildFrom(Spec);

  // Backup-job bursts pin each mirror's disk at ~80% busy for minutes.
  Host *MirrorA = G->findHost("mirror-a-srv");
  Host *MirrorB = G->findHost("mirror-b-srv");
  Host *ClientHost = G->findHost("client");
  RandomEngine Bursts = G->sim().forkRng();
  // Alternating busy phases: every ~240 s one mirror starts a ~150 s
  // backup that consumes 300 Mb/s of its disk.
  for (int Phase = 0; Phase < 40; ++Phase) {
    Host *Victim = (Phase % 2 == 0) ? MirrorA : MirrorB;
    SimTime Start = 60.0 + 240.0 * Phase + Bursts.uniform(0, 30);
    SimTime Duration = 120.0 + Bursts.uniform(0, 60);
    // Daemon events: the burst schedule must not keep run() alive.
    G->sim().scheduleDaemonAt(Start, [Victim] {
      Victim->disk().addLocalLoad(mbps(300));
    });
    G->sim().scheduleDaemonAt(Start + Duration, [Victim] {
      Victim->disk().removeLocalLoad(mbps(300));
    });
  }

  G->catalog().registerFile("mirrored", megabytes(512));
  G->catalog().addReplica("mirrored", *MirrorA);
  G->catalog().addReplica("mirrored", *MirrorB);

  CostModelPolicy Policy; // Paper weights; the I/O term breaks the tie.
  ReplicaSelector Sel(G->catalog(), G->info(), Policy);

  // Serial fetches every 240 s; oracle = busy-ness at decision time.
  size_t Wrong = 0;
  RunningStats Times;
  constexpr int Fetches = 30;
  for (int I = 0; I < Fetches; ++I) {
    G->sim().runUntil(120.0 + 240.0 * I);
    SelectionResult R = Sel.select(ClientHost->node(), "mirrored");
    Host *Oracle =
        MirrorA->disk().busyFraction() <= MirrorB->disk().busyFraction()
            ? MirrorA
            : MirrorB;
    if (R.Chosen != Oracle)
      ++Wrong;
    TransferSpec Fetch;
    Fetch.Source = R.Chosen;
    Fetch.Destination = ClientHost;
    Fetch.FileBytes = megabytes(512);
    Fetch.Streams = 8;
    double Seconds = 0.0;
    G->transfers().submit(
        Fetch, [&](const TransferResult &T) { Seconds = T.totalSeconds(); });
    G->sim().run();
    Times.add(Seconds);
  }
  exp::TrialResult Result;
  Result.set("wrong_rate", static_cast<double>(Wrong) / Fetches);
  Result.set("mean_transfer_s", Times.mean());
  Result.SpecHash = G->spec().hash();
  return Result;
}

} // namespace

int main(int argc, char **argv) {
  exp::BenchOptions Opt =
      exp::parseBenchOptions(argc, argv, "abl-staleness", /*BaseSeed=*/404);
  bench::banner("Ablation: monitoring staleness",
                "sensor refresh period vs selection quality when bursty "
                "server I/O decides the better mirror");

  exp::Scenario S;
  S.Id = Opt.Id;
  S.Title = "Sensor refresh period vs selection quality";
  S.Axes = {{"period_s", {"5", "60", "600"}}};
  S.Seeds = Opt.seeds();
  S.Metrics = {"wrong_rate", "mean_transfer_s"};
  S.Run = [](const exp::TrialPoint &P) {
    return run(std::atof(P.param("period_s").c_str()), P.Seed);
  };
  std::vector<exp::TrialRecord> Records = exp::runScenario(S, Opt);

  Table T;
  T.setHeader({"refresh period", "wrong-choice rate", "mean transfer (s)"});
  auto Mean = [&](const char *Period, const char *Metric) {
    return exp::meanMetric(Records, "period_s", Period, Metric);
  };
  for (const std::string &Period : S.Axes[0].Values) {
    T.beginRow();
    T.add(Period + " s");
    T.add(Mean(Period.c_str(), "wrong_rate"), 2);
    T.add(Mean(Period.c_str(), "mean_transfer_s"), 1);
  }
  T.print(stdout);
  std::printf("\n");

  bool FreshTracksBursts = Mean("5", "wrong_rate") <= 0.2;
  bool StaleMisRanks =
      Mean("600", "wrong_rate") > Mean("5", "wrong_rate") + 0.1;
  bool StaleCostsTime =
      Mean("600", "mean_transfer_s") > Mean("5", "mean_transfer_s") * 1.1;
  bench::shapeCheck(FreshTracksBursts,
                    "5 s sensors route around busy disks (<20% wrong)");
  bench::shapeCheck(StaleMisRanks,
                    "10-minute-old data mis-ranks mirrors far more often");
  bench::shapeCheck(StaleCostsTime,
                    "stale data costs real transfer time (>10%)");
  return bench::exitCode();
}
