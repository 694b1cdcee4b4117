//===- dgbench/src/main.cpp - The dgsim benchmark program -----------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// dgbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out P]
///
/// --seed N expands into SubSeeds sub-seeds (1000N, 1000N+1, ...); one
/// round runs the workload once per sub-seed.
///
/// --trace 0 runs rounds, untraced, until S seconds have passed (a warm-up
/// round plus at least MinTimedRounds), checks every run's outputs and that
/// every round reproduced round 0's simulated digests, and reports the
/// end-to-end metrics.  A run of one seed is a fixed sequence of steps
/// (set-up, kernel slices, graded decisions); the host-time figures sum,
/// over steps, the fastest time any timed round took for the step, which
/// keeps co-tenant slowdowns of a few seconds out of them.  Set-up time is
/// the median of many builds.  The simulated figures are round 0's, pooled
/// over the sub-seeds.
///
/// --trace 1 runs the first sub-seed once untraced and once traced, checks
/// that both produced the same simulated outputs, writes the traced run's
/// spans as Chrome trace-event JSON, and reports the per-layer metrics and
/// the tracing overhead.
///
/// The last line of standard output is one JSON object: correct,
/// attempted, failed and metrics ({"name": {"value": v, "unit": u}}).
///
//===----------------------------------------------------------------------===//

#include "Spans.h"
#include "Stats.h"
#include "Workloads.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

using namespace dgbench;

namespace {

/// Each run pools this many sub-seeds derived from --seed, so one run's
/// simulated figures rest on independent streams.  Two, not more: each
/// sub-seed costs a share of the timed rounds, and the fewer rounds a run
/// has, the more host noise its fastest step times keep.
constexpr size_t SubSeeds = 2;
/// Timed rounds follow one warm-up round.
constexpr size_t MinTimedRounds = 2;
constexpr size_t MaxRounds = 64;

/// After each round, set-up is sampled at least MinSetupSamples times and
/// for at least SetupSecondsPerRound.
constexpr size_t MinSetupSamples = 1;
constexpr double SetupSecondsPerRound = 0.4;

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string TraceOut;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return false;
    const char *V = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = V;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(V, &End, 10);
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(V, &End);
    } else if (Flag == "--trace") {
      A.Trace = std::strtol(V, &End, 10) != 0;
    } else if (Flag == "--trace-out") {
      A.TraceOut = V;
    } else {
      return false;
    }
    if (End && *End != '\0')
      return false;
  }
  return HaveWorkload && A.Seconds > 0.0;
}

/// The process's peak resident set, from VmHWM.  getrusage's ru_maxrss
/// would do, but it survives execve, so under a larger parent (run.py's
/// Python) it reports the parent's peak.
double peakRssMb() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0.0;
  char Line[256];
  double Kb = 0.0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::strncmp(Line, "VmHWM:", 6) == 0)
      Kb = std::strtod(Line + 6, nullptr);
  std::fclose(F);
  return Kb / 1024.0;
}

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              Correct ? "true" : "false", Attempted, Failed);
  for (size_t I = 0; I != Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].Name.c_str(), Metrics[I].Value,
                Metrics[I].Unit.c_str());
  std::printf("}}\n");
}

void printProblems(const char *Run, const std::vector<std::string> &P) {
  for (const std::string &M : P)
    std::printf("check FAILED (%s): %s\n", Run, M.c_str());
}

double ratio(double Num, double Den) { return Den > 0.0 ? Num / Den : 0.0; }

/// One row of the human-readable end-to-end table.
void row(const char *Name, const char *Kind, const char *Unit, double V,
         const std::string &Note) {
  std::printf("  %-16s %-9s %-6s %14.6g  %s\n", Name, Kind, Unit, V,
              Note.c_str());
}

void rowNa(const char *Name, const char *Kind, const std::string &Why) {
  std::printf("  %-16s %-9s %-6s %14s  %s\n", Name, Kind, "", "n/a",
              Why.c_str());
}

int runEndToEnd(const std::vector<std::unique_ptr<Workload>> &Subs,
                const Args &A) {
  auto Start = std::chrono::steady_clock::now();
  auto Elapsed = [&Start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Start)
        .count();
  };

  // Round 0 warms up: it supplies the simulated figures and the digests
  // later rounds must reproduce exactly, but no host time.  Each timed
  // round lowers Best, the fastest time seen for each step of each
  // sub-seed's run.
  std::vector<Outcome> First;
  std::vector<std::vector<double>> Best(Subs.size());
  std::vector<double> Setup;
  bool Correct = true;
  size_t Rounds = 0;
  while (Rounds < MaxRounds &&
         (Rounds < 1 + MinTimedRounds || Elapsed() < A.Seconds)) {
    double RoundWall = 0.0;
    for (size_t K = 0; K != Subs.size(); ++K) {
      Outcome O = Subs[K]->run(nullptr);
      printProblems("repetition", O.Problems);
      Correct = Correct && O.Problems.empty();
      RoundWall += O.WallS;
      if (Rounds == 0) {
        Best[K] = O.SegmentS;
        First.push_back(std::move(O));
        continue;
      }
      Setup.push_back(O.SetupS);
      if (O.digest() != First[K].digest() ||
          O.SegmentS.size() != Best[K].size()) {
        std::printf("check FAILED: sub-seed %zu's simulated digest %016" PRIx64
                    " in round %zu differs from round 0's %016" PRIx64 "\n",
                    K, O.digest(), Rounds, First[K].digest());
        Correct = false;
        continue;
      }
      for (size_t S = 0; S != Best[K].size(); ++S)
        Best[K][S] = Rounds == 1 ? O.SegmentS[S]
                                 : std::min(Best[K][S], O.SegmentS[S]);
    }
    // Extra set-up samples, spread over the run like the rounds are, so
    // cheap builds reach a measurable stretch.
    auto S0 = std::chrono::steady_clock::now();
    for (size_t I = 0;
         I < MinSetupSamples ||
         std::chrono::duration<double>(std::chrono::steady_clock::now() - S0)
                 .count() < SetupSecondsPerRound;
         ++I)
      Setup.push_back(Subs[I % Subs.size()]->setupOnce());
    std::printf("round %zu%s: wall %.4f s\n", Rounds,
                Rounds ? "" : " (warm-up)", RoundWall);
    ++Rounds;
  }

  // Host figures: the sums of the fastest times seen per step.
  double BestWall = 0.0, BestRun = 0.0;
  for (size_t K = 0; K != Subs.size(); ++K) {
    for (double S : Best[K])
      BestWall += S;
    for (size_t S : First[K].RunSegments)
      BestRun += Best[K][S];
  }

  // Simulated figures, pooled over the sub-seeds.
  std::vector<double> Sojourns;
  uint64_t Attempted = 0, Failed = 0, EventsSim = 0, Completed = 0,
           DecisionCount = 0, DecisionsRight = 0;
  Digest All;
  for (const Outcome &O : First) {
    Sojourns.insert(Sojourns.end(), O.Stream.SojournSeconds.begin(),
                    O.Stream.SojournSeconds.end());
    Attempted += O.attempted();
    Failed += O.failed();
    EventsSim += O.Events;
    Completed += O.Stream.Completed;
    DecisionCount += O.Decisions.size();
    DecisionsRight += O.decisionsCorrect();
    All.add(O.digest());
  }
  TailSummary Sojourn = summarize(std::move(Sojourns));
  std::optional<double> P99 = Sojourn.at(99.0);
  if (!P99) {
    std::printf("check FAILED: %zu sojourn samples cannot support a p99\n",
                Sojourn.Count);
    Correct = false;
  }
  const double RssMb = peakRssMb();

  std::printf("dgbench: workload %s, seed %" PRIu64 ", %zu sub-seeds x %zu "
              "rounds in %.1f s, simulated digest %016" PRIx64 "\n",
              A.Workload.c_str(), A.Seed, Subs.size(), Rounds, Elapsed(),
              All.value());
  std::printf("end-to-end metrics (host: what dgsim costs to run, fastest "
              "time per step over %zu timed rounds, summed; simulated: what "
              "the modelled grid did, pooled over sub-seeds)\n",
              Rounds - 1);
  row("setup_s", "host", "s", median(Setup),
      "median of " + std::to_string(Setup.size()) +
          " builds (buildFrom + replica stack wiring)");
  row("wall_s", "host", "s", BestWall,
      "build + run + decisions, summed over sub-seeds");
  row("events_per_s", "host", "1/s", ratio(double(EventsSim), BestRun),
      std::to_string(EventsSim) + " events inside Simulator::run");
  row("fetches_per_s", "host", "1/s", ratio(double(Completed), BestRun),
      std::to_string(Completed) + " completed fetches per run second");
  if (DecisionCount == 0)
    rowNa("decisions_per_s", "host", "no oracle-graded decisions here");
  else
    row("decisions_per_s", "host", "1/s",
        ratio(double(DecisionCount), BestWall),
        std::to_string(DecisionCount) + " decisions per wall second");
  row("peak_rss_mb", "host", "MB", RssMb, "VmHWM, whole process");
  row("fail_ratio", "simulated", "ratio", ratio(double(Failed), Attempted),
      std::to_string(Failed) + " of " + std::to_string(Attempted) +
          " operations (fetches failed/shed/expired, unreachable decisions)");
  row("completion_ratio", "simulated", "ratio",
      1.0 - ratio(double(Failed), Attempted), "1 - fail_ratio");
  row("sojourn_p50_s", "simulated", "s", Sojourn.P50,
      "n=" + std::to_string(Sojourn.Count) + ", from scheduled arrival");
  if (P99)
    row("sojourn_p99_s", "simulated", "s", *P99,
        std::to_string(samplesBeyond(99.0, Sojourn.Count)) +
            " samples beyond p99");
  else
    rowNa("sojourn_p99_s", "simulated", "fewer than 10 samples beyond p99");
  if (DecisionCount == 0)
    rowNa("rank1_accuracy", "simulated", "no oracle-graded decisions here");
  else
    row("rank1_accuracy", "simulated", "ratio",
        ratio(double(DecisionsRight), double(DecisionCount)),
        std::to_string(DecisionsRight) + " of " +
            std::to_string(DecisionCount) +
            " choices were the oracle's fastest holder");

  printResult(Correct, Attempted, Failed,
              {{"setup_s", median(Setup), "s"},
               {"wall_s", BestWall, "s"},
               {"events_per_s", ratio(double(EventsSim), BestRun), "1/s"},
               {"fetches_per_s", ratio(double(Completed), BestRun), "1/s"},
               {"peak_rss_mb", RssMb, "MB"},
               {"completion_ratio", 1.0 - ratio(double(Failed), Attempted),
                "ratio"},
               {"sojourn_p50_s", Sojourn.P50, "s"}});
  return Correct ? 0 : 1;
}

int runTraced(const Workload &W, const Args &A) {
  Outcome U = W.run(nullptr);
  SpanRecorder Rec;
  Outcome T = W.run(&Rec);
  printProblems("untraced", U.Problems);
  printProblems("traced", T.Problems);
  bool Correct = U.Problems.empty() && T.Problems.empty();
  if (U.digest() != T.digest()) {
    std::printf("check FAILED: traced digest %016" PRIx64
                " differs from untraced %016" PRIx64
                " (events %" PRIu64 " vs %" PRIu64 ", completed %" PRIu64
                " vs %" PRIu64 ")\n",
                T.digest(), U.digest(), T.Events, U.Events,
                T.Stream.Completed, U.Stream.Completed);
    Correct = false;
  }

  std::string Path = A.TraceOut;
  if (Path.empty())
    Path = ".bench_out/dgbench-" + A.Workload + "-" + std::to_string(A.Seed) +
           ".trace.json";
  std::error_code Ec;
  std::filesystem::path Dir = std::filesystem::path(Path).parent_path();
  if (!Dir.empty())
    std::filesystem::create_directories(Dir, Ec);
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  bool Wrote = Out && Rec.writeChromeTrace(Out);
  if (Out)
    Wrote = std::fclose(Out) == 0 && Wrote;
  if (!Wrote) {
    std::printf("check FAILED: cannot write the trace to %s\n",
                Path.c_str());
    Correct = false;
  }

  // Per-layer table: self time is span time minus child spans.
  std::vector<LayerTotals> Layers = Rec.totals();
  auto Layer = [&Layers](const char *Name) {
    for (const LayerTotals &L : Layers)
      if (L.Name == Name)
        return L;
    return LayerTotals();
  };
  auto TotalS = [&Layer](const char *Name) {
    return double(Layer(Name).TotalNs) / 1e9;
  };
  std::printf("dgbench: workload %s, seed %" PRIu64
              ", traced wall %.3f s, untraced wall %.3f s, spans %zu -> %s\n",
              A.Workload.c_str(), A.Seed, T.WallS, U.WallS,
              Rec.spans().size(), Path.c_str());
  std::printf("  %-22s %10s %10s %10s %8s %12s\n", "layer", "calls",
              "total_s", "self_s", "self%", "ns/call");
  int64_t SelfSum = 0;
  for (const LayerTotals &L : Layers) {
    SelfSum += L.SelfNs;
    std::printf("  %-22s %10" PRIu64 " %10.4f %10.4f %7.2f%% %12.0f\n",
                L.Name.c_str(), L.Calls, double(L.TotalNs) / 1e9,
                double(L.SelfNs) / 1e9,
                100.0 * ratio(double(L.SelfNs) / 1e9, T.WallS),
                ratio(double(L.TotalNs), double(L.Calls)));
  }
  std::printf("  %-22s %10s %10s %10.4f %7.2f%%\n", "(outside spans)", "",
              "", T.WallS - double(SelfSum) / 1e9,
              100.0 * ratio(T.WallS - double(SelfSum) / 1e9, T.WallS));

  const LayerCounters &L = T.Layers;
  TailSummary FetchUs = summarize(L.FetchUs);
  const double RunS = TotalS("sim.run");
  const double Overhead = ratio(T.WallS, U.WallS);
  std::printf("  monitor.factor_hit_ratio: %" PRIu64 " hits of %" PRIu64
              " queries\n",
              L.FactorQueries - L.FactorRecomputes, L.FactorQueries);
  std::printf("  replica.fetch_us: p50 %.2f, p%g %.2f over %zu calls\n",
              FetchUs.P50, FetchUs.TailPercentile.value_or(50.0),
              FetchUs.TailValue, FetchUs.Count);
  std::printf("  tracing overhead: %.3fx (traced wall over untraced wall)\n",
              Overhead);

  printResult(
      Correct, T.attempted(), T.failed(),
      {{"grid.build_s", TotalS("grid.build"), "s"},
       {"grid.builds", double(Layer("grid.build").Calls + L.OracleReplays),
        "count"},
       {"grid.oracle_evaluate_s", TotalS("grid.oracle_evaluate"), "s"},
       {"grid.oracle_replays", double(L.OracleReplays), "count"},
       {"grid.replay_ms",
        1e3 * ratio(TotalS("grid.oracle_evaluate"), double(L.OracleReplays)),
        "ms"},
       {"replica.fetch_calls", double(L.FetchCalls), "count"},
       {"replica.fetch_s", TotalS("replica.fetch"), "s"},
       {"replica.fetch_us_p50", FetchUs.P50, "us"},
       {"replica.fetch_us_p99", FetchUs.at(99.0).value_or(FetchUs.TailValue),
        "us"},
       {"replica.choose_calls", double(Layer("replica.choose").Calls),
        "count"},
       {"replica.choose_s", TotalS("replica.choose"), "s"},
       {"replica.ranking_rebinds", double(L.RankingRebinds), "count"},
       {"replica.failovers", double(L.Failovers), "count"},
       {"monitor.factor_queries", double(L.FactorQueries), "count"},
       {"monitor.factor_recomputes", double(L.FactorRecomputes), "count"},
       {"monitor.factor_hit_ratio",
        1.0 - ratio(double(L.FactorRecomputes), double(L.FactorQueries)),
        "ratio"},
       {"monitor.path_sensors_created_in_fetch",
        double(L.PathSensorsCreatedInFetch), "count"},
       {"monitor.path_sensors_end", double(L.PathSensorsEnd), "count"},
       {"monitor.log_appends", double(L.LogAppends), "count"},
       {"monitor.gate_rejections", double(L.GateRejections), "count"},
       {"net.rebalances", double(L.Rebalances), "count"},
       {"net.demands_solved", double(L.DemandsSolved), "count"},
       {"net.demands_per_rebalance",
        ratio(double(L.DemandsSolved), double(L.Rebalances)), "ratio"},
       {"net.rebalances_in_fetch", double(L.RebalancesInFetch), "count"},
       {"net.routes_computed", double(L.RoutesComputed), "count"},
       {"net.route_evictions", double(L.RouteEvictions), "count"},
       {"sim.run_s", RunS, "s"},
       {"sim.events", double(T.Events), "count"},
       {"sim.ns_per_event", 1e9 * ratio(RunS, double(T.Events)), "ns"},
       {"sim.event_slots", double(L.EventSlots), "count"},
       {"sim.residual_s", double(Layer("sim.run").SelfNs) / 1e9, "s"},
       {"gridftp.completed", double(L.GftpCompleted), "count"},
       {"gridftp.failed", double(L.GftpFailed), "count"},
       {"gridftp.restarts", double(L.GftpRestarts), "count"},
       {"gridftp.timeouts", double(L.GftpTimeouts), "count"},
       {"gridftp.shed", double(L.GftpShed), "count"},
       {"fault.injected", double(L.FaultsInjected), "count"},
       // The shipping WorkloadDriver's allocation profile: the untraced
       // run is the one that drives through it.
       {"support.sbo_heap_fallbacks", double(U.Layers.SboHeapFallbacks),
        "count"},
       {"support.pool_growths", double(U.Layers.PoolGrowths), "count"},
       {"oracle.decisions", double(T.Decisions.size()), "count"},
       {"oracle.rank1_accuracy",
        ratio(double(T.decisionsCorrect()), double(T.Decisions.size())),
        "ratio"},
       {"trace.overhead", Overhead, "ratio"}});
  return Correct ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: dgbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out PATH]\n");
    return 2;
  }
  std::vector<std::unique_ptr<Workload>> Subs;
  for (size_t K = 0; K != SubSeeds; ++K)
    Subs.push_back(Workload::make(A.Workload, A.Seed * 1000 + K));
  if (!Subs[0]) {
    std::fprintf(stderr, "dgbench: unknown workload '%s'; known:",
                 A.Workload.c_str());
    for (const std::string &N : workloadNames())
      std::fprintf(stderr, " %s", N.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  return A.Trace ? runTraced(*Subs[0], A) : runEndToEnd(Subs, A);
}
