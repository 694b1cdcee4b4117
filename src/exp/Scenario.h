//===- exp/Scenario.h - Declarative experiment descriptions ----------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Scenario describes one experiment: named parameter axes, a seed list,
/// declared metrics, and a trial function.  runTrials() expands
/// axes × seeds into TrialPoints (odometer order: first axis slowest,
/// seeds innermost) and calls the trial function once per point.
///
/// Trial functions MUST be self-contained: build a fresh DataGrid (usually
/// from a GridSpec) seeded from the TrialPoint, run it, and return metric
/// values.  They may run on worker threads concurrently with other trials,
/// so they must not touch shared mutable state — no printing, no globals.
/// This is what makes a parallel sweep bit-identical to a serial one.
/// Trials are the only unit of parallelism: each simulator runs on one
/// thread (DESIGN.md §12).
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_EXP_SCENARIO_H
#define DGSIM_EXP_SCENARIO_H

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace dgsim {
namespace exp {

/// One named parameter dimension of a sweep.
struct Axis {
  std::string Name;
  std::vector<std::string> Values;
};

/// One expanded trial: a combination of axis values plus a seed.
struct TrialPoint {
  /// Position in the deterministic expansion order; records come back in
  /// this order regardless of completion order.
  size_t Index = 0;
  uint64_t Seed = 0;
  /// Position of Seed in the scenario's seed list.
  size_t SeedOrdinal = 0;
  /// Axis name -> chosen value, in axis declaration order.
  std::vector<std::pair<std::string, std::string>> Params;

  /// \returns the value chosen for axis \p Name (asserts it exists).
  const std::string &param(const std::string &Name) const;
};

/// Metric values produced by one trial.
struct TrialResult {
  /// Name -> value, in insertion order (kept stable for serialization).
  std::vector<std::pair<std::string, double>> Metrics;
  /// Hash of the GridSpec the trial ran on (0 when not applicable).
  uint64_t SpecHash = 0;
  /// Kernel events the trial executed (Simulator::eventsExecuted(); 0 when
  /// not recorded).  Deterministic — same seed, same count — so the JSON
  /// document carries it unconditionally, and throughput readers can
  /// divide by wall time without re-running the trial.
  uint64_t EventsExecuted = 0;

  void set(const std::string &Name, double Value);
  /// \returns the metric named \p Name (asserts it exists).
  double get(const std::string &Name) const;
  /// True when the trial recorded a metric named \p Name.
  bool has(const std::string &Name) const;
  /// \returns the metric named \p Name, or \p Fallback when absent.  For
  /// scenarios whose arms report disjoint metric sets (e.g. a predictor
  /// only scored on some axes).
  double getOr(const std::string &Name, double Fallback) const;
};

/// A completed trial.
struct TrialRecord {
  TrialPoint Point;
  TrialResult Result;
  /// Host wall-clock seconds the trial took (provenance only; never part
  /// of determinism comparisons).
  double WallSeconds = 0.0;
};

/// The experiment description.
struct Scenario {
  /// Stable identifier; names the output file (BENCH_<Id>.json).
  std::string Id;
  std::string Title;
  std::vector<Axis> Axes;
  /// Seeds to repeat every axis combination under.  Must be non-empty.
  std::vector<uint64_t> Seeds;
  /// Declared metric names (the JSON schema lists them; trial results may
  /// add more, but these are the promised ones).
  std::vector<std::string> Metrics;
  /// The trial function.  Called concurrently from worker threads.
  std::function<TrialResult(const TrialPoint &)> Run;

  /// Expands axes × seeds into trial points in deterministic order.
  std::vector<TrialPoint> expand() const;

  /// Number of trials expand() will produce.
  size_t trialCount() const;
};

/// Runs every trial of \p S and \returns the records in expansion order.
/// With \p Jobs <= 1 the trials run serially on the calling thread;
/// otherwise up to \p Jobs threads claim trial indexes from one counter,
/// each writing only the records it claimed.  Every trial owns its whole
/// world, so the records are identical for any \p Jobs.
std::vector<TrialRecord> runTrials(const Scenario &S, unsigned Jobs);

/// Mean of \p Metric over all records whose axis \p AxisName has value
/// \p Value (all records when AxisName is empty).  Asserts at least one
/// record matches.  The standard way ported benches aggregate multi-seed
/// sweeps back into their single-number tables.
double meanMetric(const std::vector<TrialRecord> &Records,
                  const std::string &AxisName, const std::string &Value,
                  const std::string &Metric);

} // namespace exp
} // namespace dgsim

#endif // DGSIM_EXP_SCENARIO_H
