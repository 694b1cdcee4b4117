//===- grid/Experiment.h - Workloads and experiment statistics --------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The experiment harness: a Poisson/Zipf workload generator over a grid's
/// file catalogue, aggregate statistics, and a runner that executes the
/// same workload under a given selection policy — the machinery behind the
/// policy-comparison, weight-sensitivity and scalability ablations.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_GRID_EXPERIMENT_H
#define DGSIM_GRID_EXPERIMENT_H

#include "grid/Application.h"
#include "support/Random.h"
#include "support/Statistics.h"

#include <memory>
#include <string>
#include <vector>

namespace dgsim {

/// Aggregated results of a batch of jobs.
struct ExperimentStats {
  std::vector<JobRecord> Records;
  RunningStats TransferSeconds; // Remote fetches only.
  RunningStats TotalSeconds;    // All jobs, submit to finish.
  size_t LocalHits = 0;

  size_t jobCount() const { return Records.size(); }
  double localHitRate() const {
    return Records.empty()
               ? 0.0
               : static_cast<double>(LocalHits) / Records.size();
  }

  void add(const JobRecord &R);
};

/// Workload shape.
struct WorkloadConfig {
  /// Mean seconds between job arrivals (exponential).
  SimTime MeanInterarrival = 30.0;
  /// Total jobs to submit.
  size_t JobCount = 50;
  /// Zipf exponent over the catalogue's files (0 = uniform popularity).
  double ZipfExponent = 0.8;
  /// Popularity-ordered file list (most popular first).  Empty means
  /// "all catalogue files, name order" — use an explicit list to model
  /// popularity shifts (e.g. a new data release taking over).
  std::vector<std::string> Files;
  ApplicationConfig App;
};

/// Generates jobs against a grid from a set of client hosts.
class Workload {
public:
  /// Clients must be non-empty; jobs pick a client uniformly and a file by
  /// Zipf rank over the catalogue (registration-name order).
  Workload(DataGrid &Grid, ReplicaSelector &Selector,
           std::vector<Host *> Clients, WorkloadConfig Config);

  /// Submits the arrival process; run the simulator afterwards.
  void start();

  /// Registers a callback fired after every completed job (e.g. a
  /// DynamicReplicator's onJob).  Must be set before start().
  void setJobObserver(std::function<void(const JobRecord &)> Observer);

  /// \returns aggregated results (valid once the simulator drained).
  const ExperimentStats &stats() const { return Stats; }

  /// \returns true when every submitted job has finished.
  bool finished() const { return Stats.jobCount() == Config.JobCount; }

private:
  void scheduleNextArrival();

  DataGrid &Grid;
  Application App;
  std::vector<Host *> Clients;
  WorkloadConfig Config;
  RandomEngine Rng;
  std::vector<std::string> Files;
  ZipfTable Popularity; // Over Files, built once.
  size_t Submitted = 0;
  ExperimentStats Stats;
  std::function<void(const JobRecord &)> Observer;
};

} // namespace dgsim

#endif // DGSIM_GRID_EXPERIMENT_H
