//===- exp/BenchJson.h - The BENCH_<id>.json document ----------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders a finished run as the machine-readable BENCH_<id>.json
/// document: per-trial provenance (seed, params, spec hash, wall time)
/// and the `git describe` of the build.  Benches print their own
/// paper-style tables from the records; the document is built once,
/// after the last trial, from the records in expansion order.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_EXP_BENCHJSON_H
#define DGSIM_EXP_BENCHJSON_H

#include "exp/Scenario.h"
#include "support/Json.h"

#include <functional>
#include <string>
#include <vector>

namespace dgsim {
namespace exp {

/// \returns the `git describe` string baked in at configure time, or
/// "unknown" outside a git checkout.
const char *gitDescribe();

/// The run-level inputs of a document.
struct JsonRun {
  /// Worker threads the trials ran on.
  unsigned Jobs = 1;
  /// Host wall-clock seconds of the whole run.
  double WallSeconds = 0.0;
  /// Off omits every host-side field that legitimately varies between
  /// runs (wall times, job count, peak RSS, allocation counters), so
  /// serial and parallel runs of one scenario produce byte-identical
  /// documents — the determinism suite relies on it.
  bool IncludeTimings = true;
  /// Writes extra top-level members after the trials array.  Benches use
  /// it for run-level derived data (e.g. events/s and solver counters)
  /// computed from state their Run closures accumulated during the sweep.
  std::function<void(json::JsonWriter &)> Footer;
};

/// \returns the document for \p Records, the trials of \p S in expansion
/// order.
std::string benchJson(const Scenario &S,
                      const std::vector<TrialRecord> &Records,
                      const JsonRun &Run);

/// Writes \p Doc and a newline to \p Path.  A bad path is a user error (a
/// typo'd --json), not a programming error: it prints a diagnostic and
/// exits 2.
void writeBenchJson(const std::string &Path, const std::string &Doc);

} // namespace exp
} // namespace dgsim

#endif // DGSIM_EXP_BENCHJSON_H
