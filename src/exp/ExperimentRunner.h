//===- exp/ExperimentRunner.h - Parallel multi-seed trial execution --------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Expands a Scenario into trials and executes them, optionally on a
/// worker-thread pool.  Each trial is fully independent (its own DataGrid,
/// its own RNG tree), so:
///
///   * results are bit-identical between `Jobs=1` and `Jobs=N`;
///   * sinks observe trials in expansion order regardless of completion
///     order (an ordered-emission buffer holds out-of-order finishers);
///   * wall-clock scales with min(Jobs, hardware threads) because trials
///     never share state.
///
/// Trials are the only unit of parallelism: each simulator runs on one
/// thread (DESIGN.md §12).
///
/// The runner is the execution layer under every sweep-shaped bench; the
/// benches only describe scenarios and aggregate the returned records.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_EXP_EXPERIMENTRUNNER_H
#define DGSIM_EXP_EXPERIMENTRUNNER_H

#include "exp/MetricSink.h"
#include "exp/Scenario.h"

#include <vector>

namespace dgsim {
namespace exp {

/// \returns the `git describe` string baked in at configure time, or
/// "unknown" outside a git checkout.
const char *gitDescribe();

/// Execution knobs for one run.
struct RunnerOptions {
  /// Worker threads; 1 = run serially on the calling thread.
  unsigned Jobs = 1;
  /// Sinks to stream results into (not owned; may be empty).
  std::vector<MetricSink *> Sinks;
};

/// Executes scenarios.
class ExperimentRunner {
public:
  /// Runs every trial of \p S and returns the records in expansion order.
  /// Sinks in \p Options receive begin/trial.../end around the run.
  std::vector<TrialRecord> run(const Scenario &S,
                               const RunnerOptions &Options = {});
};

} // namespace exp
} // namespace dgsim

#endif // DGSIM_EXP_EXPERIMENTRUNNER_H
