//===- bench/bench_ablation_policies.cpp --------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation: replica selection policy comparison under a dynamic workload.
///
/// The paper validates its cost model on a single three-replica lookup
/// (Table 1); its future work asks for "the performance of replica
/// selection in a dynamic and larger number of sites environment".  This
/// bench runs an identical Poisson/Zipf job mix under every selection
/// policy — the paper's cost model, NWS-greedy bandwidth-only (Vazhkudai
/// et al.), least-loaded-CPU, round-robin and random — each on a fresh,
/// identically seeded testbed, and reports mean/95th-percentile transfer
/// time and job completion time.
///
/// Runs on the ExperimentRunner: `--seeds N --jobs M` sweeps N testbed
/// seeds per policy in parallel; the summary table averages over seeds.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "exp/Options.h"
#include "grid/Experiment.h"
#include "support/Statistics.h"

#include <memory>

using namespace dgsim;
using namespace dgsim::units;

namespace {

exp::TrialResult runPolicy(const std::string &Which, uint64_t Seed) {
  PaperTestbedOptions O;
  O.Seed = Seed;
  PaperTestbed T(O); // Dynamic load + cross traffic.
  // A small catalogue of large files spread over the grid.
  struct FileSpec {
    const char *Lfn;
    double SizeMB;
    const char *Holders[2];
  };
  const FileSpec Files[] = {
      {"genome-db", 1024, {"alpha4", "hit0"}},
      {"event-set", 512, {"hit1", "lz02"}},
      {"survey-img", 768, {"alpha3", "hit2"}},
      {"archive-03", 256, {"lz01", "hit0"}},
  };
  for (const FileSpec &F : Files) {
    CatalogFileSpec C;
    C.Lfn = F.Lfn;
    C.SizeBytes = megabytes(F.SizeMB);
    C.ReplicaHosts = {F.Holders[0], F.Holders[1]};
    T.grid().registerCatalogFile(C);
  }

  std::unique_ptr<SelectionPolicy> Policy;
  if (Which == "cost-model")
    Policy = std::make_unique<CostModelPolicy>();
  else if (Which == "bandwidth-only")
    Policy = std::make_unique<BandwidthOnlyPolicy>();
  else if (Which == "least-loaded-cpu")
    Policy = std::make_unique<LeastLoadedCpuPolicy>();
  else if (Which == "round-robin")
    Policy = std::make_unique<RoundRobinPolicy>();
  else
    Policy = std::make_unique<RandomPolicy>(RandomEngine(12345));

  ReplicaSelector Sel(T.grid().catalog(), T.grid().info(), *Policy);
  WorkloadConfig W;
  W.JobCount = 40;
  W.MeanInterarrival = 45.0;
  W.ZipfExponent = 0.8;
  W.App.Streams = 8;
  Workload Load(T.grid(), Sel,
                {&T.alpha(1), &T.alpha(2), &T.hit(3), &T.lz(3)}, W);
  T.sim().runUntil(bench::WarmupSeconds);
  Load.start();
  T.sim().run();

  const ExperimentStats &S = Load.stats();
  std::vector<double> Transfers;
  for (const JobRecord &R : S.Records)
    if (!R.Fetch.LocalHit)
      Transfers.push_back(R.transferSeconds());

  exp::TrialResult Result;
  Result.set("mean_transfer_s", S.TransferSeconds.mean());
  Result.set("p95_transfer_s", stats::percentile(Transfers, 0.95));
  Result.set("mean_job_s", S.TotalSeconds.mean());
  Result.SpecHash = T.grid().spec().hash();
  return Result;
}

} // namespace

int main(int argc, char **argv) {
  exp::BenchOptions Opt =
      exp::parseBenchOptions(argc, argv, "abl-policies", /*BaseSeed=*/2005);
  bench::banner("Ablation: selection policy comparison",
                "extends Table 1 to a dynamic Poisson/Zipf workload "
                "(paper future work: dynamic environments)");

  exp::Scenario S;
  S.Id = Opt.Id;
  S.Title = "Replica selection policy comparison, dynamic workload";
  S.Axes = {{"policy",
             {"cost-model", "bandwidth-only", "least-loaded-cpu",
              "round-robin", "random"}}};
  S.Seeds = Opt.seeds();
  S.Metrics = {"mean_transfer_s", "p95_transfer_s", "mean_job_s"};
  S.Run = [](const exp::TrialPoint &P) {
    return runPolicy(P.param("policy"), P.Seed);
  };

  std::vector<exp::TrialRecord> Records = exp::runScenario(S, Opt);

  Table T;
  T.setHeader({"policy", "mean transfer (s)", "p95 transfer (s)",
               "mean job time (s)"});
  auto Mean = [&](const std::string &Policy, const char *Metric) {
    return exp::meanMetric(Records, "policy", Policy, Metric);
  };
  for (const std::string &P : S.Axes[0].Values) {
    T.beginRow();
    T.add(P);
    T.add(Mean(P, "mean_transfer_s"), 1);
    T.add(Mean(P, "p95_transfer_s"), 1);
    T.add(Mean(P, "mean_job_s"), 1);
  }
  T.print(stdout);
  std::printf("\n");

  double CostModel = Mean("cost-model", "mean_transfer_s");
  bool BeatsBlind = CostModel < Mean("random", "mean_transfer_s") &&
                    CostModel < Mean("round-robin", "mean_transfer_s") &&
                    CostModel < Mean("least-loaded-cpu", "mean_transfer_s");
  bool NearBandwidthOnly =
      CostModel < Mean("bandwidth-only", "mean_transfer_s") * 1.10;
  bench::shapeCheck(BeatsBlind,
                    "cost model beats random, round-robin and CPU-greedy "
                    "on mean transfer time");
  bench::shapeCheck(NearBandwidthOnly,
                    "cost model within 10% of bandwidth-only (bandwidth "
                    "dominates, as the 80/10/10 weights assume)");
  return bench::exitCode();
}
