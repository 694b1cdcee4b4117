//===- bench/bench_scale.cpp ---------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tiered-grid scale-out: 1k+ sites, a million open-loop transfers, one
/// core.
///
/// The paper's last future-work item asks for "a dynamic and larger
/// number of sites environment"; this bench builds one the MONARC way — a
/// tier-0 core, regional tier-1 backbones, campus tier-2 sites with
/// heterogeneous access links — from a declarative HierarchySpec, then
/// drives an open-loop Poisson fetch stream through the full replica
/// stack (NWS monitoring, cost-model selection, GridFTP transfers) at a
/// scale where the O(sites)/O(flows) walls would dominate without the
/// scale-mode machinery: batched phase-staggered sensors, TTL-evicted
/// path monitors, the bounded LCA routing cache, batched endpoint-cap
/// refresh, and two-choice replica sampling (at thousands of selections
/// per forecast period, plain arg-max herds onto stale winners).
///
/// Reports events/s, transfers/s and peak RSS on stderr, so stdout (the
/// usual shape checks and deterministic counts) can be pinned; an RSS
/// probe at the workload midpoint checks that memory is flat after
/// warm-up (sublinear in transfer count).  --baseline PATH
/// gates the run against a committed capture of the same configuration
/// (see main()).
///
/// Default: 1024 sites, ~1M transfers, one seed.  --quick: 64 sites,
/// ~10k transfers (the CI smoke configuration).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "exp/Options.h"
#include "grid/DataGrid.h"
#include "grid/Hierarchy.h"
#include "replica/ReplicaManager.h"
#include "replica/ReplicaSelector.h"
#include "support/Resource.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

using namespace dgsim;
using namespace dgsim::units;

namespace {

/// Host-side RSS probes, one per trial (midpoint and end of the
/// workload).  Never feeds metrics or the JSON document — purely for the
/// flatness shape check, which only runs single-job (concurrent trials
/// share the process RSS, so per-trial probes would be meaningless).
struct RssProbe {
  uint64_t MidBytes = 0;
  uint64_t EndBytes = 0;
};
std::mutex RssMutex;
std::vector<RssProbe> RssProbes;

/// The network's solver work in one trial: monitoring probe solves,
/// committed rebalances, the flow demands those rebalances solved and the
/// fill events all those solves created.
struct SolveCounts {
  uint64_t ProbeSolves = 0;
  uint64_t Rebalances = 0;
  uint64_t DemandsSolved = 0;
  uint64_t FillEvents = 0;

  bool operator==(const SolveCounts &) const = default;
};

/// Builds the tiered grid for \p Sites sites and runs the open-loop
/// stream of roughly \p Transfers fetches through it.  \p Solves
/// receives the network's solver counts, which the perf footer records
/// beside the event count.
exp::TrialResult runTier(size_t Sites, uint64_t Transfers, uint64_t Seed,
                         SolveCounts &Solves) {
  GridSpec Spec;
  Spec.Seed = Seed;
  // Scale-mode monitoring: shared batch ticks instead of one heap event
  // per sensor, phase-staggered so samples spread over the period, and
  // idle path monitors evicted instead of accumulating one pair forever.
  Spec.Info.BandwidthPeriod = 30.0;
  Spec.Info.HostPeriod = 15.0;
  Spec.Info.BatchSensors = true;
  Spec.Info.BatchHostLoads = true;
  Spec.Info.StaggerGroups = Sites >= 512 ? 64 : 16;
  // Scaled to the run: the quick matrix simulates ~40 s, so a 90 s TTL
  // would never evict (and RSS would grow for the whole run).
  Spec.Info.PathSensorTtl = Sites >= 512 ? 90.0 : 20.0;

  HierarchySpec H;
  H.Seed = Seed * 9176 + Sites;
  H.Regions = unsigned(Sites) / 32 < 2 ? 2 : unsigned(Sites) / 32;
  H.SitesPerRegion = unsigned(Sites) / H.Regions;
  H.HostsPerSite = 1;
  H.RootLink = LinkClassSpec{40e9, 0.008, 0.0, 1.0};
  // Heterogeneous but uniformly *stable* access: clients are drawn
  // uniformly, so every class must carry its share of the offered load
  // with slack — a class slower than per-client demand would backlog
  // without bound (open loop) and RSS would grow with the backlog.
  H.AccessClasses = {
      {10e9, 0.002, 0.0, 0.25},
      {1e9, 0.005, 0.0, 0.75},
  };
  // Storage-server class disks: the 2005 single-IDE default (~320 Mb/s
  // writes) sits *below* per-client ingest at these rates, and an
  // open-loop stream into an overloaded disk backlogs without bound.
  H.DiskReadRate = 4e9;
  H.DiskWriteRate = 3.2e9;
  H.FileCount = Sites >= 512 ? 256 : 64;
  H.FileSizeMin = megabytes(1);
  H.FileSizeMax = megabytes(4);
  // Replication degree is a stability knob, not a flavour knob: under
  // Zipf popularity the hottest file concentrates ~9% of the offered
  // load on its holders, and with too few replicas their access links
  // run past saturation — the open-loop backlog then grows without
  // bound.  Eight holders keep the hottest file's holders below ~60%
  // link load (the paper's own case for replicating popular files).
  H.ReplicasPerFile = Sites >= 512 ? 8 : 4;
  HierarchyLayout Layout;
  std::vector<std::string> Problems = appendHierarchy(Spec, H, &Layout);
  assert(Problems.empty() && "hierarchy spec must be well-formed");
  (void)Problems;

  WorkloadSpec Load;
  Load.Name = "scale-load";
  Load.Start = 0.0;
  Load.ArrivalsPerSecond = Sites >= 512 ? 2500.0 : 250.0;
  Load.Duration = double(Transfers) / Load.ArrivalsPerSecond;
  // A strided subset of hosts fetches: plenty of distinct (client,
  // holder) monitor pairs without every host pair existing at once, and
  // enough clients that the slowest access class stays under ~40% load.
  for (size_t I = 0; I < Layout.Hosts.size(); I += (Sites >= 512 ? 8 : 4))
    Load.Clients.push_back(Layout.Hosts[I]);
  Load.Lfns = Layout.Lfns;
  Load.ZipfExponent = 0.8;
  Spec.Workloads.push_back(Load);

  std::unique_ptr<DataGrid> G = DataGrid::buildFrom(Spec);

  CostModelPolicy Cost;
  // Two-choice sampling over the cost model: at 2500 selections/s
  // against 30 s NWS forecasts, plain arg-max herds every request for a
  // hot file onto the same holder until the next measurement (and the
  // open-loop backlog diverges).  Ranking a random pair keeps the cost
  // model's preference while spreading the herd.
  TwoChoicePolicy Policy(Cost, RandomEngine(Seed * 7919 + 13).fork());
  ReplicaSelector Sel(G->catalog(), G->info(), Policy);
  ReplicaManager Mgr(G->catalog(), Sel, G->transfers());
  // Scale-mode cap refresh: one network rebalance per refresh tick
  // instead of one per live stripe (the grid couples into one component
  // through the core, so per-stripe solves are O(flows^2) per tick).
  G->transfers().setBatchedRefresh(true);
  WorkloadDriver Driver(*G, Mgr);
  Driver.setSampleCap(1 << 16);

  FetchOptions FO;
  // 8 parallel streams: on 64 KiB windows and ~50 ms cross-region RTTs
  // one stream moves ~10 Mb/s (the paper's fig. 4 premise), so parallel
  // streams are what keeps sojourns short and flow concurrency bounded.
  FO.Streams = 8;
  FO.MaxFailovers = 2;
  FO.Register = false; // Keep the catalog (and selection cost) fixed.
  Driver.start(0, FO);

  RssProbe Probe;
  G->sim().scheduleDaemonAt(Load.Start + Load.Duration / 2.0,
                            [&Probe] { Probe.MidBytes = currentRssBytes(); });
  G->sim().run();
  Probe.EndBytes = currentRssBytes();
  {
    std::lock_guard<std::mutex> Lock(RssMutex);
    RssProbes.push_back(Probe);
  }

  const WorkloadCounters &C = Driver.counters();
  exp::TrialResult Result;
  Result.set("arrivals", double(C.Arrivals));
  Result.set("completed", double(C.Completed));
  Result.set("failed", double(C.Failed + C.Shed + C.DeadlineExpired));
  Result.set("local_hits", double(C.LocalHits));
  Result.set("goodput_gb", C.GoodputBytes / 1e9);
  double SojournSum = 0.0;
  for (double S : C.SojournSeconds)
    SojournSum += S;
  Result.set("mean_sojourn_s",
             C.SojournSeconds.empty()
                 ? 0.0
                 : SojournSum / double(C.SojournSeconds.size()));
  Result.SpecHash = G->spec().hash();
  Result.EventsExecuted = G->sim().eventsExecuted();
  Solves.ProbeSolves = G->network().probeSolves();
  Solves.Rebalances = G->network().rebalanceEvents();
  Solves.DemandsSolved = G->network().rebalanceDemandsSolved();
  Solves.FillEvents = G->network().fillEvents();
  return Result;
}

/// Timed repeats of every trial in a --baseline run.  Load from other
/// processes only ever adds wall time, so the fastest repeat tracks the
/// code rather than the host, the way dgbench takes each step's fastest
/// time over rounds.
constexpr int BaselineRepeats = 5;

/// Floor on events/s relative to the committed baseline.  Timed as the
/// fastest of BaselineRepeats, twenty back-to-back quick runs on a 4-core
/// x86-64 host spread from 0.93x to 1.17x of their median, runs inside
/// ctest -j4 read 1.04x-1.56x, and runs beside three busy cores 0.78x at
/// worst, so the floor sits below all of them (EXPERIMENTS.md).
constexpr double EventsPerSFloor = 0.6;

/// Whether host time is comparable with the committed capture, which was
/// taken in an optimized build.  Rebalance check mode, sanitizers and
/// unoptimized builds run several times slower by design, so they gate
/// on the exact counters alone (bench/CMakeLists.txt).
#ifdef DGSIM_INSTRUMENTED_BUILD
constexpr bool TimedBuild = false;
#else
constexpr bool TimedBuild = true;
#endif

/// The run-level figures the JSON footer's "perf" object records and a
/// --baseline run is gated on.
struct PerfFigures {
  double EventsExecuted = 0.0;
  double ProbeSolves = 0.0;
  double Rebalances = 0.0;
  double DemandsSolved = 0.0;
  double FillEvents = 0.0;
  double EventsPerS = 0.0;
  double CallbackHeapFallbacks = 0.0;
};

/// Reads the "perf" figures, and every trial's "spec_hash" comma-separated
/// in trial order, out of a committed document.  Hand-rolled scan: the
/// repo carries a JSON writer, not a parser, and an eight-key probe does
/// not justify growing one.  \returns false, after saying why, when the
/// file or any key is missing.
bool readBaseline(const std::string &Path, PerfFigures &Out,
                  std::string &SpecHashes) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    std::fprintf(stderr, "baseline: cannot open %s\n", Path.c_str());
    return false;
  }
  std::string Doc;
  char Buf[4096];
  for (size_t N; (N = std::fread(Buf, 1, sizeof(Buf), F)) > 0;)
    Doc.append(Buf, N);
  std::fclose(F);
  size_t Perf = Doc.find("\"perf\":");
  auto Read = [&](std::string_view Name, double &V) {
    std::string Key = "\"" + std::string(Name) + "\":";
    size_t At = Perf == std::string::npos ? Perf : Doc.find(Key, Perf);
    if (At == std::string::npos) {
      std::fprintf(stderr, "baseline: no perf.%s in %s\n",
                   std::string(Name).c_str(), Path.c_str());
      return false;
    }
    V = std::strtod(Doc.c_str() + At + Key.size(), nullptr);
    return true;
  };
  bool Ok = Read("events_executed", Out.EventsExecuted);
  Ok = Read("probe_solves", Out.ProbeSolves) && Ok;
  Ok = Read("rebalances", Out.Rebalances) && Ok;
  Ok = Read("demands_solved", Out.DemandsSolved) && Ok;
  Ok = Read("fill_events", Out.FillEvents) && Ok;
  Ok = Read("events_per_s", Out.EventsPerS) && Ok;
  Ok = Read("callback_heap_fallbacks", Out.CallbackHeapFallbacks) && Ok;
  const std::string HashKey = "\"spec_hash\":\"";
  for (size_t At = Doc.find(HashKey); At != std::string::npos;
       At = Doc.find(HashKey, At + 1)) {
    size_t Begin = At + HashKey.size();
    SpecHashes += (SpecHashes.empty() ? "" : ",") +
                  Doc.substr(Begin, Doc.find('"', Begin) - Begin);
  }
  if (SpecHashes.empty()) {
    std::fprintf(stderr, "baseline: no trial spec_hash in %s\n",
                 Path.c_str());
    Ok = false;
  }
  return Ok && Out.EventsPerS > 0.0;
}

/// The run's trial spec hashes, comma-separated in trial order, formatted
/// as the JSON document writes them.
std::string joinSpecHashes(const std::vector<exp::TrialRecord> &Records) {
  std::string Out;
  for (const exp::TrialRecord &R : Records) {
    char Buf[17];
    std::snprintf(Buf, sizeof(Buf), "%016llx",
                  static_cast<unsigned long long>(R.Result.SpecHash));
    Out += (Out.empty() ? "" : ",") + std::string(Buf);
  }
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  // --baseline PATH gates this run against a committed capture; stripped
  // here because the shared option parser rejects flags it does not know.
  std::string BaselinePath;
  std::vector<char *> Args;
  Args.push_back(argv[0]);
  for (int I = 1; I < argc; ++I) {
    if (std::string_view(argv[I]) == "--baseline" && I + 1 < argc) {
      BaselinePath = argv[++I];
      continue;
    }
    Args.push_back(argv[I]);
  }
  int Argc = static_cast<int>(Args.size());
  exp::BenchOptions Opt =
      exp::parseBenchOptions(Argc, Args.data(), "scale", /*BaseSeed=*/7);
  bench::banner("Tiered-grid scale-out",
                "paper future work: replica selection in a dynamic, larger "
                "number of sites environment (MONARC-style tiers)");

  const size_t Sites = Opt.Quick ? 64 : 1024;
  const uint64_t Transfers = Opt.Quick ? 10000 : 1000000;

  // Host-side figures for the footer and the baseline gate, summed over
  // trials; a trial's wall time is its fastest repeat.  The heap-fallback
  // counter is process-wide, so it is read around the whole sweep, every
  // repeat included.
  const int Repeats = BaselinePath.empty() ? 1 : BaselineRepeats;
  std::mutex PerfMutex;
  double TrialWall = 0.0;
  uint64_t TrialEvents = 0;
  SolveCounts TrialSolves;
  bool RepeatsAgree = true;
  const uint64_t Sbo0 = InlineFunctionStats::heapFallbacks();
  auto CurrentPerf = [&] {
    PerfFigures P;
    P.EventsExecuted = double(TrialEvents);
    P.ProbeSolves = double(TrialSolves.ProbeSolves);
    P.Rebalances = double(TrialSolves.Rebalances);
    P.DemandsSolved = double(TrialSolves.DemandsSolved);
    P.FillEvents = double(TrialSolves.FillEvents);
    P.EventsPerS = TrialWall > 0.0 ? double(TrialEvents) / TrialWall : 0.0;
    P.CallbackHeapFallbacks =
        double(InlineFunctionStats::heapFallbacks() - Sbo0);
    return P;
  };

  exp::Scenario S;
  S.Id = Opt.Id;
  S.Title = "Open-loop fetch stream over a tiered grid";
  S.Axes = {{"sites", {std::to_string(Sites)}}};
  S.Seeds = Opt.seeds();
  S.Metrics = {"arrivals",   "completed",  "failed",
               "local_hits", "goodput_gb", "mean_sojourn_s"};
  S.Run = [Transfers, Repeats, &PerfMutex, &TrialWall, &TrialEvents,
           &TrialSolves, &RepeatsAgree](const exp::TrialPoint &P) {
    const size_t Sites = std::strtoull(P.param("sites").c_str(), nullptr, 10);
    exp::TrialResult R;
    SolveCounts Solves;
    double Wall = 0.0;
    bool Agree = true;
    for (int Rep = 0; Rep != Repeats; ++Rep) {
      auto A0 = std::chrono::steady_clock::now();
      SolveCounts RepSolves;
      exp::TrialResult RepResult =
          runTier(Sites, Transfers, P.Seed, RepSolves);
      double RepWall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - A0)
              .count();
      if (Rep == 0) {
        R = std::move(RepResult);
        Solves = RepSolves;
        Wall = RepWall;
        continue;
      }
      Agree = Agree && RepResult.EventsExecuted == R.EventsExecuted &&
              RepSolves == Solves;
      Wall = std::min(Wall, RepWall);
    }
    std::lock_guard<std::mutex> Lock(PerfMutex);
    TrialWall += Wall;
    TrialEvents += R.EventsExecuted;
    TrialSolves.ProbeSolves += Solves.ProbeSolves;
    TrialSolves.Rebalances += Solves.Rebalances;
    TrialSolves.DemandsSolved += Solves.DemandsSolved;
    TrialSolves.FillEvents += Solves.FillEvents;
    RepeatsAgree = RepeatsAgree && Agree;
    return R;
  };
  auto Footer = [&](json::JsonWriter &W) {
    PerfFigures P = CurrentPerf();
    W.key("perf");
    W.beginObject();
    W.member("events_executed", uint64_t(P.EventsExecuted));
    W.member("probe_solves", uint64_t(P.ProbeSolves));
    W.member("rebalances", uint64_t(P.Rebalances));
    W.member("demands_solved", uint64_t(P.DemandsSolved));
    W.member("fill_events", uint64_t(P.FillEvents));
    W.member("events_per_s", P.EventsPerS);
    W.member("callback_heap_fallbacks", uint64_t(P.CallbackHeapFallbacks));
    W.endObject();
  };
  auto T0 = std::chrono::steady_clock::now();
  std::vector<exp::TrialRecord> Records = exp::runScenario(S, Opt, Footer);
  double SweepWall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
  const PerfFigures Perf = CurrentPerf();

  double Arrivals = 0.0, Completed = 0.0;
  uint64_t Events = 0;
  double SlowestTrial = 0.0;
  for (const exp::TrialRecord &R : Records) {
    Arrivals += R.Result.get("arrivals");
    Completed += R.Result.get("completed");
    Events += R.Result.EventsExecuted;
    if (R.WallSeconds > SlowestTrial)
      SlowestTrial = R.WallSeconds;
  }

  bench::shapeCheckGe(Arrivals, 0.9 * double(Transfers) * Records.size(),
                      "arrivals", "the stream offers the declared load");
  bench::shapeCheckGe(Completed / Arrivals, 0.98, "completion_ratio",
                      "virtually every fetch completes (no deadline, "
                      "healthy grid)");
  // The headline scale criterion: a 1k-site, 1M-transfer trial finishes
  // in minutes on one core (the quick matrix gets a proportional bound).
  bench::shapeCheckLe(SlowestTrial, Opt.Quick ? 60.0 : 300.0,
                      "slowest_trial_s",
                      "a full trial fits the single-core time budget");
  if (!BaselinePath.empty()) {
    // The perf-regression gate.  Work counters repeat exactly for a fixed
    // configuration, so they are gated tightly: a run may not execute more
    // kernel events, probe solves, committed rebalances, solved demands or
    // solver fill events, or spill more callbacks to the heap, than the
    // capture.
    // Events/s is host time and noisy: each trial is timed over
    // BaselineRepeats repeats and counts its fastest, and the floor sits
    // below the spread of such runs (EXPERIMENTS.md), so only a real
    // hot-path regression trips it.  The repeats must reproduce the
    // trial's work counters exactly, or their timings measure different
    // work.
    bench::shapeCheck(RepeatsAgree, "every timed repeat of a trial "
                                    "reproduces its work counters exactly");
    PerfFigures Base;
    std::string BaseHashes;
    bool Readable = readBaseline(BaselinePath, Base, BaseHashes);
    bench::shapeCheck(Readable, "the committed baseline is readable and "
                                "names every gated figure");
    if (Readable) {
      // Counters captured on another grid say nothing about this one: a
      // changed GridSpec (or seed list) must come with a re-capture.
      std::string RunHashes = joinSpecHashes(Records);
      std::printf("baseline: spec_hash %s vs %s committed\n",
                  RunHashes.c_str(), BaseHashes.c_str());
      bench::shapeCheck(RunHashes == BaseHashes,
                        "the committed baseline was captured on this run's "
                        "grid (same spec_hash)");
      std::printf("baseline: %.0f events, %.0f probe solves, %.0f "
                  "rebalances, %.0f demands solved, %.0f fill events, "
                  "%.0f callback heap fallbacks, %.0f events/s (fastest of "
                  "%d repeats) vs %.0f, %.0f, %.0f, %.0f, %.0f, %.0f, %.0f "
                  "committed (%.2fx)\n",
                  Perf.EventsExecuted, Perf.ProbeSolves, Perf.Rebalances,
                  Perf.DemandsSolved, Perf.FillEvents,
                  Perf.CallbackHeapFallbacks, Perf.EventsPerS, Repeats,
                  Base.EventsExecuted, Base.ProbeSolves, Base.Rebalances,
                  Base.DemandsSolved, Base.FillEvents,
                  Base.CallbackHeapFallbacks, Base.EventsPerS,
                  Perf.EventsPerS / Base.EventsPerS);
      bench::shapeCheckLe(Perf.EventsExecuted, Base.EventsExecuted,
                          "events_executed",
                          "the run executes no more kernel events than the "
                          "committed baseline");
      bench::shapeCheckLe(Perf.ProbeSolves, Base.ProbeSolves, "probe_solves",
                          "the run's monitors probe the network no more "
                          "often than in the committed baseline");
      bench::shapeCheckLe(Perf.Rebalances, Base.Rebalances, "rebalances",
                          "the run commits no more network rebalances than "
                          "the committed baseline");
      bench::shapeCheckLe(Perf.DemandsSolved, Base.DemandsSolved,
                          "demands_solved",
                          "the run's rebalances solve no more flow demands "
                          "than in the committed baseline");
      bench::shapeCheckLe(Perf.FillEvents, Base.FillEvents, "fill_events",
                          "the run's solves create no more fill events "
                          "than in the committed baseline");
      bench::shapeCheckLe(Perf.CallbackHeapFallbacks,
                          Base.CallbackHeapFallbacks,
                          "callback_heap_fallbacks",
                          "no more callbacks spill to the heap than in the "
                          "committed baseline");
      if (TimedBuild)
        bench::shapeCheckGe(Perf.EventsPerS / Base.EventsPerS,
                            EventsPerSFloor, "events_per_s_vs_baseline",
                            "event throughput holds against the committed "
                            "baseline");
      else
        std::printf("baseline: events/s not gated in a check-mode, "
                    "sanitizer or debug build\n");
    }
  }
  if (Opt.Jobs == 1) {
    // Memory must be flat once the sensor population is warm: the probes
    // bracket the second half of the workload, where transfer count
    // doubles but the monitored-pair population has reached steady state.
    double WorstGrowth = 0.0;
    for (const RssProbe &P : RssProbes)
      if (P.MidBytes != 0)
        WorstGrowth = std::max(WorstGrowth,
                               double(P.EndBytes) / double(P.MidBytes));
    bench::shapeCheckLe(WorstGrowth, 1.5, "rss_end_over_mid",
                        "peak RSS is flat after warm-up (sublinear in "
                        "transfer count)");
  }

  std::printf("\ntransfers: %.0f completed\n", Completed);
  std::fflush(stdout);
  std::fprintf(stderr, "host: %.0f transfers/s\n",
               SweepWall > 0.0 ? Completed / SweepWall : 0.0);
  // Solver work per solve, on stderr beside the host figures so the
  // pinned stdout stays as it was.
  const double Solves = Perf.ProbeSolves + Perf.Rebalances;
  std::fprintf(stderr,
               "solver: %.0f fill events over %.0f probe solves and "
               "rebalances (%.1f per solve), %.1f demands per rebalance\n",
               Perf.FillEvents, Solves,
               Solves > 0.0 ? Perf.FillEvents / Solves : 0.0,
               Perf.Rebalances > 0.0 ? Perf.DemandsSolved / Perf.Rebalances
                                     : 0.0);
  bench::printRunFooter(Events, SweepWall);
  return bench::exitCode();
}
