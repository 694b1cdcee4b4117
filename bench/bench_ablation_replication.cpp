//===- bench/bench_ablation_replication.cpp -----------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation: replica selection alone vs selection + dynamic replication.
///
/// The paper's replica management background covers "creation,
/// registration, location and management of data replicas"; its
/// experiments exercise only selection over a fixed replica set.  This
/// bench closes the loop: the same Zipf workload runs (a) with selection
/// only, and (b) with a threshold-based dynamic replicator that copies
/// hot files toward the sites that keep fetching them.  Replication pays
/// its WAN cost once and converts subsequent wide-area fetches into
/// campus-LAN fetches.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "grid/DynamicReplicator.h"
#include "grid/Experiment.h"

using namespace dgsim;
using namespace dgsim::units;

namespace {

struct RunResult {
  double MeanTransferFirstHalf = 0.0;
  double MeanTransferSecondHalf = 0.0;
  double MeanTransferAll = 0.0;
  uint64_t Replications = 0;
};

RunResult run(bool Replicate) {
  PaperTestbed T; // Dynamic load + cross traffic.
  ReplicaCatalog &Cat = T.grid().catalog();
  // Popular data initially lives only at HIT (the producer site).
  Cat.registerFile("hot-a", megabytes(512));
  Cat.addReplica("hot-a", T.hit(0));
  Cat.registerFile("hot-b", megabytes(256));
  Cat.addReplica("hot-b", T.hit(1));
  Cat.registerFile("cold-c", megabytes(256));
  Cat.addReplica("cold-c", T.hit(2));

  CostModelPolicy Policy;
  ReplicaSelector Sel(Cat, T.grid().info(), Policy);
  ReplicaManager Manager(Cat, Sel, T.grid().transfers());
  DynamicReplicationConfig C;
  C.AccessThreshold = 2;
  C.Window = 3600.0;
  DynamicReplicator Rep(T.grid(), Manager, C);
  Rep.setStorageHost("thu", T.alpha(4));
  Rep.setStorageHost("lizen", T.lz(1));

  WorkloadConfig W;
  W.JobCount = 36;
  W.MeanInterarrival = 120.0;
  W.ZipfExponent = 1.2; // hot-a dominates.
  W.App.Streams = 8;
  // Clients sit behind heterogeneous access links; the Li-Zen ones gain
  // the most once a campus replica appears.
  Workload Load(T.grid(), Sel,
                {&T.lz(2), &T.lz(3), &T.lz(4), &T.alpha(2)}, W);
  if (Replicate)
    Load.setJobObserver([&Rep](const JobRecord &R) { Rep.onJob(R); });
  T.sim().runUntil(bench::WarmupSeconds);
  Load.start();
  T.sim().run();

  RunResult Out;
  const auto &Records = Load.stats().Records;
  RunningStats First, Second, All;
  for (size_t I = 0; I < Records.size(); ++I) {
    if (Records[I].Fetch.LocalHit)
      continue;
    double S = Records[I].transferSeconds();
    All.add(S);
    (I < Records.size() / 2 ? First : Second).add(S);
  }
  Out.MeanTransferFirstHalf = First.mean();
  Out.MeanTransferSecondHalf = Second.mean();
  Out.MeanTransferAll = All.mean();
  Out.Replications = Rep.replicationsCompleted();
  return Out;
}

} // namespace

int main() {
  bench::banner("Ablation: dynamic replication",
                "selection-only vs selection + threshold replication on a "
                "Zipf workload produced at one site");

  RunResult Off = run(false);
  RunResult On = run(true);

  Table T;
  T.setHeader({"configuration", "mean transfer (s)", "first half (s)",
               "second half (s)", "replications"});
  for (auto &[Name, R] :
       {std::pair<const char *, RunResult &>{"selection only", Off},
        {"selection + replication", On}}) {
    T.beginRow();
    T.add(std::string(Name));
    T.add(R.MeanTransferAll, 1);
    T.add(R.MeanTransferFirstHalf, 1);
    T.add(R.MeanTransferSecondHalf, 1);
    T.add(static_cast<long long>(R.Replications));
  }
  T.print(stdout);
  std::printf("\n");

  bool Replicated = On.Replications >= 1;
  bool Faster = On.MeanTransferAll < Off.MeanTransferAll * 0.85;
  bool Converges =
      On.MeanTransferSecondHalf < On.MeanTransferFirstHalf * 0.8;
  bench::shapeCheck(Replicated, "the replicator fired at least once");
  bench::shapeCheck(Faster,
                    "dynamic replication cuts mean transfer time >15%");
  bench::shapeCheck(Converges,
                    "second-half fetches are faster than first-half "
                    "(replicas arrived where the demand is)");
  return bench::exitCode();
}
