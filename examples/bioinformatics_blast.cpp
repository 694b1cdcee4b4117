//===- examples/bioinformatics_blast.cpp --------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's own motivating scenario (§3.2): "we can treat a biological
/// database as a replica of Data Grid ... To determine the best database
/// from many of same replications is a significant problem."
///
/// A BLAST-style campaign runs on the paper's three-cluster testbed:
/// sequence databases of different sizes are replicated across the sites,
/// and analysts at every site submit query jobs that must first stage the
/// database locally (Fig 1 loop) and then run a CPU-heavy search.  We run
/// the same campaign under the paper's cost model and under random
/// selection and compare turnaround times.
///
//===----------------------------------------------------------------------===//

#include "grid/Experiment.h"
#include "grid/Testbed.h"
#include "support/Table.h"
#include "support/Units.h"

#include <cstdio>

using namespace dgsim;
using namespace dgsim::units;

namespace {

ExperimentStats runCampaign(bool UseCostModel) {
  PaperTestbed T; // Dynamic load, live cross traffic.
  ReplicaCatalog &Cat = T.grid().catalog();

  // The databases of a 2005 bioinformatics service, scattered where the
  // curators produced them.
  struct Db {
    const char *Name;
    double SizeMB;
    const char *Holders[2];
  };
  const Db Databases[] = {
      {"nr-protein", 1400, {"alpha4", "hit0"}},
      {"est-human", 900, {"hit2", "lz02"}},
      {"swissprot", 350, {"alpha3", "lz01"}},
      {"pdb-structures", 180, {"hit1", "alpha2"}},
  };
  for (const Db &D : Databases) {
    Cat.registerFile(D.Name, megabytes(D.SizeMB));
    for (const char *H : D.Holders)
      Cat.addReplica(D.Name, *T.grid().findHost(H));
  }

  static CostModelPolicy Cost;
  static RandomPolicy Rand{RandomEngine(7)};
  SelectionPolicy &Policy =
      UseCostModel ? static_cast<SelectionPolicy &>(Cost)
                   : static_cast<SelectionPolicy &>(Rand);
  ReplicaSelector Selector(Cat, T.grid().info(), Policy);

  WorkloadConfig W;
  W.JobCount = 30;
  W.MeanInterarrival = 60.0;
  W.ZipfExponent = 1.0;       // nr-protein dominates, as in real BLAST load.
  W.App.Streams = 8;
  W.App.ComputeSecondsPerGB = 40.0; // BLAST is CPU-hungry.
  Workload Load(T.grid(), Selector,
                {&T.alpha(1), &T.alpha(2), &T.hit(3), &T.lz(4)}, W);
  T.sim().runUntil(30.0);
  Load.start();
  T.sim().run();
  return Load.stats();
}

} // namespace

int main() {
  std::printf("== BLAST campaign on the THU / Li-Zen / HIT grid ==\n");
  std::printf("30 query jobs, Zipf-popular databases, staged via GridFTP\n\n");

  ExperimentStats Cost = runCampaign(/*UseCostModel=*/true);
  ExperimentStats Rand = runCampaign(/*UseCostModel=*/false);

  Table T;
  T.setHeader({"selection", "mean stage-in (s)", "mean turnaround (s)",
               "slowest job (s)"});
  for (auto &[Name, S] :
       {std::pair<const char *, ExperimentStats &>{"cost-model", Cost},
        {"random", Rand}}) {
    T.beginRow();
    T.add(std::string(Name));
    T.add(S.TransferSeconds.mean(), 1);
    T.add(S.TotalSeconds.mean(), 1);
    T.add(S.TotalSeconds.max(), 1);
  }
  T.print(stdout);

  std::printf("\nper-database staging under the cost model:\n");
  Table D;
  D.setHeader({"database", "jobs", "mean stage-in (s)"});
  for (const char *Name :
       {"nr-protein", "est-human", "swissprot", "pdb-structures"}) {
    RunningStats S;
    for (const JobRecord &R : Cost.Records)
      if (R.Fetch.Lfn == Name && !R.Fetch.LocalHit)
        S.add(R.transferSeconds());
    D.beginRow();
    D.add(std::string(Name));
    D.add(static_cast<long long>(S.count()));
    D.add(S.mean(), 1);
  }
  D.print(stdout);

  double Gain = Rand.TotalSeconds.mean() / Cost.TotalSeconds.mean();
  std::printf("\ncost-model selection cut mean turnaround by %.1f%%\n",
              (1.0 - 1.0 / Gain) * 100.0);
  return 0;
}
