//===- dgbench/src/Workloads.h - The benchmark's workloads ----------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The named workloads and one run of each.
///
///   * tier1024-probe  -- 1024-site MONARC hierarchy, open-loop Poisson
///     stream of ~2500 fetches/s over 256 files with 8 replicas each,
///     two-choice cost-model selection, healthy grid: on-demand path
///     monitors dominate.
///   * testbed-oracle  -- the paper's 3-site testbed with dynamic load and
///     cross traffic, per-sensor NWS monitoring, transfer-log feedback, a
///     training fetch stream with retries and a deadline, and cost-model
///     decisions graded by SelectionOracle.
///
/// The seed drives every simulated random stream (arrivals, load, cross
/// traffic, two-choice sampling); topology and catalog are fixed per
/// workload.
///
/// An untraced run drives arrivals through the shipping WorkloadDriver.
/// A traced run replays the same workloadArrivals() through
/// ReplicaManager::fetch itself, scheduling exactly as WorkloadDriver
/// does, so every fetch and policy choice can be timed from outside.
///
//===----------------------------------------------------------------------===//

#ifndef DGBENCH_WORKLOADS_H
#define DGBENCH_WORKLOADS_H

#include "Spans.h"

#include "grid/Workload.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace dgbench {

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string> &workloadNames();

/// Counters read from dgsim's public accessors, before and after the
/// benchmark's calls.  The per-fetch fields are filled by traced runs only.
struct LayerCounters {
  // Per fetch() call (traced runs).
  uint64_t FetchCalls = 0;
  std::vector<double> FetchUs;
  uint64_t PathSensorsCreatedInFetch = 0;
  uint64_t RebalancesInFetch = 0;
  // Read once the run has ended.
  uint64_t RankingRebinds = 0;
  uint64_t Failovers = 0;
  uint64_t FactorQueries = 0;
  uint64_t FactorRecomputes = 0;
  uint64_t PathSensorsEnd = 0;
  uint64_t LogAppends = 0;
  uint64_t GateRejections = 0;
  uint64_t Rebalances = 0;
  uint64_t DemandsSolved = 0;
  uint64_t RoutesComputed = 0;
  uint64_t RouteEvictions = 0;
  uint64_t EventSlots = 0;
  uint64_t GftpCompleted = 0;
  uint64_t GftpFailed = 0;
  uint64_t GftpRestarts = 0;
  uint64_t GftpTimeouts = 0;
  uint64_t GftpShed = 0;
  uint64_t FaultsInjected = 0;
  uint64_t OracleReplays = 0;
  // Process-wide counters, as deltas over the run.
  uint64_t SboHeapFallbacks = 0;
  uint64_t PoolGrowths = 0;
};

/// One graded selection decision.
struct DecisionRecord {
  size_t Chosen = 0;
  size_t Fastest = 0;
  double FastestSeconds = 0.0;
  bool Reachable = false;
};

/// Everything one run reports.
struct Outcome {
  // Simulated.
  dgsim::WorkloadCounters Stream;
  uint64_t ArrivalsOffered = 0;
  uint64_t Events = 0;
  std::vector<DecisionRecord> Decisions;
  // Host time, seconds.
  double SetupS = 0.0; ///< buildFrom plus selector/manager wiring.
  double WallS = 0.0;
  /// Host seconds of each step of the run, in order: set-up, then every
  /// Simulator::runUntil / run call and every graded decision (selection
  /// plus SelectionOracle::evaluate).  Every run of one seed takes the
  /// same steps, so runs compare step by step.
  std::vector<double> SegmentS;
  /// Indices into SegmentS of the Simulator steps.
  std::vector<size_t> RunSegments;
  LayerCounters Layers;
  /// Failed output checks, one message each.
  std::vector<std::string> Problems;

  uint64_t decisionsCorrect() const;
  uint64_t decisionsUnreachable() const;
  /// Operations attempted: arrivals plus graded decisions.
  uint64_t attempted() const;
  /// Failed, shed or expired fetches plus decisions with no reachable
  /// holder.
  uint64_t failed() const;
  /// FNV-1a over the simulated outputs: events, stream counters, every
  /// sojourn sample and every decision with its verdict.
  uint64_t digest() const;
};

struct WorkloadDef;

/// A workload instantiated at one seed.
class Workload {
public:
  /// \returns nullptr for an unknown name.
  static std::unique_ptr<Workload> make(const std::string &Name,
                                        uint64_t Seed);
  ~Workload();

  /// Builds, wires, runs and checks the workload once.  With \p Rec set
  /// the run is traced: spans go to \p Rec and the per-fetch counters
  /// are collected.
  Outcome run(SpanRecorder *Rec) const;

  /// Builds and wires the grid once, discards it, and \returns the
  /// seconds it took (a set-up time sample).
  double setupOnce() const;

private:
  explicit Workload(std::unique_ptr<WorkloadDef> D);
  std::unique_ptr<WorkloadDef> D;
};

} // namespace dgbench

#endif // DGBENCH_WORKLOADS_H
