//===- bench/bench_ablation_telemetry.cpp ---------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation: Byzantine telemetry vs the robust estimation pipeline.
///
/// The paper assumes the information service tells the truth.  This bench
/// corrupts the measurements — never the world — and asks how much replica
/// selection quality survives, with and without the robust pipeline
/// (median/MAD plausibility gates on sensor samples and on transfer-log
/// appends; DESIGN.md §15).
///
/// The scenario is the endpoint-skew arm of bench_ablation_prediction: a
/// client at THU ranks hit0/hit1 (fast twins, hit0's disk contended) and
/// lz02 (the slow decoy), graded against a brute-force SelectionOracle.
/// Telemetry fault windows then attack the measurement plane:
///
///   * bias       -- the decoy's path sensor inflates its readings, so a
///                   gullible ranker fetches from the slowest holder;
///   * stuck      -- every sensor freezes its last value (data looks
///                   fresh, tracks nothing);
///   * noise      -- heavy-tailed multiplicative noise on every sensor;
///   * dropout    -- every sensor goes silent, ages grow;
///   * clock-skew -- reported sample times drift, staleness ages lie;
///   * log-corrupt -- completed-transfer records are poisoned before the
///                   regression arms train on (and are scored against!)
///                   them.
///
/// Because telemetry faults are data-plane-invisible, the oracle verdicts
/// are a pure function of the seed — one set of counterfactual replays
/// grades every (regime x pipeline) arm, shared through a verdict cache.
///
/// Reported per arm: rank-1 accuracy of the factors the service actually
/// serves, and the achieved-vs-optimal fetch-time stretch of the chosen
/// holder.  The headline shape checks pin the tentpole claim: under every
/// corruption regime the robust pipeline is no less accurate (and no more
/// stretched) than the naive one.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "exp/Options.h"
#include "grid/Oracle.h"
#include "monitor/TransferLog.h"
#include "replica/CostModel.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>

using namespace dgsim;
using namespace dgsim::units;

namespace {

/// The fetch being planned at every decision (mirrors the prediction
/// ablation so the two benches grade the same class of transfer).
constexpr unsigned DecisionStreams = 8;
constexpr SimTime DecisionStart = 150.0;
constexpr SimTime DecisionPeriod = 30.0;

/// Deterministic training foreground: round-robin fetches cycling four
/// file sizes, so the log-trained arms see x-variation.
constexpr SimTime TrainStart = 36.0;
constexpr SimTime TrainPeriod = 12.0;
const char *const TrainSources[3] = {"hit0", "hit1", "lz02"};

/// Background readers pinned to hit0 (the endpoint skew probes miss).
constexpr Bytes PumpBytes = 96.0 * 1024.0 * 1024.0;

/// Corruption begins after the gates have trained on honest samples and
/// stays in force through the last decision.
constexpr SimTime FaultStart = 170.0;

constexpr SimTime OracleFetchBudget = 600.0;

/// One telemetry-corruption regime: which kind, how hard.
struct Regime {
  const char *Name;
  /// Adds this regime's windows to \p P ([Start, Start + Dur)).
  void (*Add)(FaultPlan &P, SimTime Start, SimTime Dur);
};

const Regime Regimes[] = {
    {"none", [](FaultPlan &, SimTime, SimTime) {}},
    {"bias",
     [](FaultPlan &P, SimTime S, SimTime D) {
       P.sensorBias("lz02", "alpha1", S, D, 3.0);
     }},
    {"bias-hard",
     [](FaultPlan &P, SimTime S, SimTime D) {
       P.sensorBias("lz02", "alpha1", S, D, 8.0);
     }},
    {"stuck",
     [](FaultPlan &P, SimTime S, SimTime D) { P.sensorStuck("", "", S, D); }},
    {"noise",
     [](FaultPlan &P, SimTime S, SimTime D) {
       P.sensorNoise("", "", S, D, 0.8);
     }},
    {"noise-hard",
     [](FaultPlan &P, SimTime S, SimTime D) {
       P.sensorNoise("", "", S, D, 2.0);
     }},
    {"dropout",
     [](FaultPlan &P, SimTime S, SimTime D) {
       P.sensorDropout("", "", S, D);
     }},
    {"clock-skew",
     [](FaultPlan &P, SimTime S, SimTime D) {
       P.clockSkew("", "", S, D, -900.0);
     }},
    {"log-corrupt",
     [](FaultPlan &P, SimTime S, SimTime D) {
       P.logCorrupt("", "", S, D, 1.5);
     }},
    {"log-corrupt-hard",
     [](FaultPlan &P, SimTime S, SimTime D) {
       P.logCorrupt("", "", S, D, 3.0);
     }},
};

const Regime &regimeByName(const std::string &Name) {
  for (const Regime &R : Regimes)
    if (Name == R.Name)
      return R;
  std::fprintf(stderr, "unknown regime %s\n", Name.c_str());
  std::abort();
}

/// Telemetry faults never touch the data plane, so the oracle's verdict
/// for decision K of seed S is shared by every (regime x pipeline) arm.
/// The mutex serialises verdict computation under --jobs; determinism is
/// unaffected (a verdict is a pure function of its key).
std::mutex &oracleMutex() {
  static std::mutex M;
  return M;
}
std::map<std::pair<uint64_t, size_t>, OracleVerdict> &verdictCache() {
  static std::map<std::pair<uint64_t, size_t>, OracleVerdict> C;
  return C;
}

void pump(DataGrid &G, const char *Src, const char *Dst, SimTime Until) {
  TransferSpec TS;
  TS.Source = G.findHost(Src);
  TS.Destination = G.findHost(Dst);
  TS.FileBytes = PumpBytes;
  TS.Protocol = TransferProtocol::GridFtpModeE;
  TS.Streams = 4;
  G.transfers().submit(TS, [&G, Src, Dst, Until](const TransferResult &) {
    if (G.sim().now() < Until)
      pump(G, Src, Dst, Until);
  });
}

void submitTraining(DataGrid &G, const char *Src, Bytes FileBytes) {
  TransferSpec TS;
  TS.Source = G.findHost(Src);
  TS.Destination = G.findHost("alpha1");
  TS.FileBytes = FileBytes;
  TS.Protocol = TransferProtocol::GridFtpModeE;
  TS.Streams = DecisionStreams;
  G.transfers().submit(TS, [](const TransferResult &) {});
}

exp::TrialResult runTelemetry(const std::string &RegimeName,
                              const std::string &Pipeline, uint64_t Seed,
                              bool Quick) {
  const bool Robust = Pipeline == "robust";
  const size_t DecisionCount = Quick ? 5 : 10;
  const SimTime LastDecision =
      DecisionStart + double(DecisionCount - 1) * DecisionPeriod;
  const SimTime FaultDuration = LastDecision - FaultStart + 10.0;

  PaperTestbedOptions O;
  O.Seed = Seed;
  O.DynamicLoad = true;
  GridSpec Spec = PaperTestbed::spec(O);

  std::vector<std::string> Lfns;
  for (int I = 0; I < 4; ++I) {
    std::string Lfn = "tele-" + std::to_string(I);
    Lfns.push_back(Lfn);
    Spec.Files.push_back({Lfn, (16.0 + 16.0 * I) * 1024.0 * 1024.0,
                          {"hit0", "hit1", "lz02"}});
  }

  // The oracle replays the *clean* spec: ground truth is the physical
  // world, which telemetry corruption never touches.
  GridSpec CleanSpec = Spec;
  regimeByName(RegimeName).Add(Spec.Faults, FaultStart, FaultDuration);

  auto Prepare = [LastDecision](DataGrid &G) {
    const char *const PumpDests[2] = {"alpha2", "alpha3"};
    for (const char *Dst : PumpDests)
      G.sim().scheduleAt(2.0, [&G, Dst, LastDecision]() {
        pump(G, "hit0", Dst, LastDecision);
      });
    for (int K = 0;; ++K) {
      SimTime T = TrainStart + double(K) * TrainPeriod;
      if (T > LastDecision)
        break;
      const char *Src = TrainSources[K % 3];
      Bytes B = (16.0 + 16.0 * double(K % 4)) * 1024.0 * 1024.0;
      G.sim().scheduleAt(T, [&G, Src, B]() { submitTraining(G, Src, B); });
    }
  };

  std::unique_ptr<DataGrid> G = DataGrid::buildFrom(Spec);
  Prepare(*G);
  TransferLog &Log = G->enableTransferLog();
  InformationService &Info = G->info();

  if (Robust) {
    // The robust pipeline: sensor gates and append gates.  The log gate
    // arms earlier than the default (per-path appends are sparse in this
    // foreground).
    Log.gateConfig().MinSamples = 4;
    Info.setSensorGate(true);
    Log.setAppendGate(true);
  }

  Host *Client = G->findHost("alpha1");
  const NodeId ClientNode = Client->node();
  const std::vector<Host *> &Holders = G->catalog().locateRef(Lfns[0]);
  for (Host *H : Holders)
    Info.watchPath(ClientNode, H->node());

  SelectionOracle Oracle(CleanSpec, Prepare);

  CostModel Model; // The paper's 80/10/10.

  size_t Correct = 0;
  size_t Graded = 0;
  double StretchSum = 0.0;

  for (size_t K = 0; K < DecisionCount; ++K) {
    SimTime T = DecisionStart + double(K) * DecisionPeriod;
    G->sim().runUntil(T);

    const std::string &Lfn = Lfns[K % Lfns.size()];
    Bytes FileBytes = G->catalog().fileSize(Lfn);
    Info.setQueryHint(FileBytes);

    size_t Best = 0;
    double BestScore = -std::numeric_limits<double>::infinity();
    for (size_t H = 0; H < Holders.size(); ++H) {
      double S = Model.score(Info.query(ClientNode, *Holders[H]));
      if (S > BestScore) { // Strict >: ties keep the lowest index.
        BestScore = S;
        Best = H;
      }
    }

    OracleVerdict V;
    {
      std::lock_guard<std::mutex> Lock(oracleMutex());
      auto [It, Missing] = verdictCache().try_emplace({Seed, K});
      if (Missing) {
        OracleProbe Probe;
        Probe.Lfn = Lfn;
        Probe.ClientHost = "alpha1";
        Probe.DecisionTime = T;
        Probe.Streams = DecisionStreams;
        Probe.MaxFetchSeconds = OracleFetchBudget;
        It->second = Oracle.evaluate(Probe);
      }
      V = It->second;
    }

    ++Graded;
    if (Best == V.FastestIndex)
      ++Correct;
    double Chosen = V.Candidates[Best].FetchSeconds;
    if (!std::isfinite(Chosen))
      Chosen = OracleFetchBudget;
    StretchSum += Chosen / std::max(V.FastestSeconds, 1e-9);
  }

  exp::TrialResult Result;
  Result.set("acc", Graded ? double(Correct) / double(Graded) : 0.0);
  Result.set("stretch", Graded ? StretchSum / double(Graded) : 0.0);
  Result.set("decisions", double(Graded));
  Result.set("log_appends", double(Log.totalAppends()));
  FaultCounters FC;
  if (G->faults())
    FC = G->faults()->counters();
  Result.set("fault_telemetry", double(FC.telemetryFaults()));
  Result.set("gate_rejections", double(Info.gateRejections()));
  Result.set("dropped_samples", double(Info.droppedSamples()));
  Result.set("rejected_appends", double(Log.rejectedAppends()));
  Result.set("corrupted_appends", double(Log.corruptedAppends()));
  Result.SpecHash = Spec.hash();
  return Result;
}

} // namespace

int main(int argc, char **argv) {
  exp::BenchOptions Opt =
      exp::parseBenchOptions(argc, argv, "abl-telemetry", /*BaseSeed=*/91);
  bench::banner(
      "Ablation: Byzantine telemetry vs the robust estimation pipeline",
      "Corrupt the measurements, never the world: rank-1 accuracy and "
      "fetch-time stretch with the robust pipeline off and on");

  std::vector<std::string> RegimeNames;
  if (Opt.Quick)
    RegimeNames = {"none", "bias-hard", "stuck", "noise-hard",
                   "log-corrupt-hard"};
  else
    for (const Regime &R : Regimes)
      RegimeNames.push_back(R.Name);

  exp::Scenario S;
  S.Id = Opt.Id;
  S.Title = "Selection quality under telemetry corruption";
  S.Axes = {{"regime", RegimeNames}, {"pipeline", {"naive", "robust"}}};
  S.Seeds = Opt.seeds();
  S.Metrics = {"acc",
               "stretch",
               "decisions",
               "gate_rejections",
               "rejected_appends",
               "corrupted_appends",
               "fault_telemetry"};
  bool Quick = Opt.Quick;
  S.Run = [Quick](const exp::TrialPoint &P) {
    return runTelemetry(P.param("regime"), P.param("pipeline"), P.Seed,
                        Quick);
  };
  std::vector<exp::TrialRecord> Records = exp::runScenario(S, Opt);

  auto Mean = [&](const std::string &RegimeName, const std::string &Pipeline,
                  const std::string &Metric) {
    double Sum = 0.0;
    size_t N = 0;
    for (const exp::TrialRecord &R : Records)
      if ((RegimeName.empty() || R.Point.param("regime") == RegimeName) &&
          (Pipeline.empty() || R.Point.param("pipeline") == Pipeline)) {
        Sum += R.Result.getOr(Metric, 0.0);
        ++N;
      }
    return N ? Sum / double(N) : 0.0;
  };

  Table T;
  T.setHeader({"regime", "acc naive", "acc robust", "stretch naive",
               "stretch robust", "rejects"});
  for (const std::string &R : RegimeNames) {
    T.beginRow();
    T.add(R);
    T.add(Mean(R, "naive", "acc"), 3);
    T.add(Mean(R, "robust", "acc"), 3);
    T.add(Mean(R, "naive", "stretch"), 2);
    T.add(Mean(R, "robust", "stretch"), 2);
    T.add(Mean(R, "robust", "gate_rejections") +
              Mean(R, "robust", "rejected_appends"),
          1);
  }
  T.print(stdout);
  std::printf("\n");

  // Per-regime: the robust pipeline never loses more than one decision of
  // rank-1 accuracy to the naive one (ties are expected where a regime
  // cannot move the ranking; the tolerance absorbs a single flip).
  const double AccEps = 1.0 / double(Quick ? 5 : 10) + 1e-9;
  for (const std::string &R : RegimeNames)
    if (R != "none")
      bench::shapeCheckGe(
          Mean(R, "robust", "acc"), Mean(R, "naive", "acc") - AccEps, "acc",
          (std::string("robust >= naive rank-1 accuracy under ") + R)
              .c_str());

  // Headline, pooled over every corrupting regime: the robust pipeline is
  // at least as accurate and no more stretched.
  double PoolAccN = 0.0, PoolAccR = 0.0, PoolStrN = 0.0, PoolStrR = 0.0;
  size_t Pooled = 0;
  for (const std::string &R : RegimeNames) {
    if (R == "none")
      continue;
    PoolAccN += Mean(R, "naive", "acc");
    PoolAccR += Mean(R, "robust", "acc");
    PoolStrN += Mean(R, "naive", "stretch");
    PoolStrR += Mean(R, "robust", "stretch");
    ++Pooled;
  }
  if (Pooled) {
    PoolAccN /= double(Pooled);
    PoolAccR /= double(Pooled);
    PoolStrN /= double(Pooled);
    PoolStrR /= double(Pooled);
  }
  bench::shapeCheckGe(PoolAccR, PoolAccN - 1e-9, "acc_pooled",
                      "pooled over corruption regimes, the robust "
                      "pipeline's rank-1 accuracy >= the naive one's");
  bench::shapeCheckLe(PoolStrR, PoolStrN + 1e-9, "stretch_pooled",
                      "pooled over corruption regimes, the robust "
                      "pipeline's fetch-time stretch <= the naive one's");

  // Counter/trace consistency.
  bench::shapeCheckEq(Mean("none", "", "fault_telemetry"), 0.0,
                      "fault_telemetry",
                      "the clean regime injects no telemetry faults");
  bench::shapeCheckGe(Mean("bias-hard", "", "fault_telemetry"), 1.0,
                      "fault_telemetry",
                      "corrupting regimes count their windows");
  bench::shapeCheckGe(Mean("log-corrupt-hard", "", "corrupted_appends"), 1.0,
                      "corrupted_appends",
                      "log corruption actually poisoned appends");
  bench::shapeCheckGe(Mean("bias-hard", "robust", "gate_rejections"), 1.0,
                      "gate_rejections",
                      "the sensor gate rejected hard-biased readings");
  bench::shapeCheckEq(Mean("", "naive", "gate_rejections") +
                          Mean("", "naive", "rejected_appends"),
                      0.0, "naive_counters",
                      "with the pipeline off, nothing is gated");
  return bench::exitCode();
}
