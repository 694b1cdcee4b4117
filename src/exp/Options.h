//===- exp/Options.h - Standard sweep CLI for bench binaries ---------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared command line of every runner-based bench:
///
///   --seeds N       run N seeds (BaseSeed .. BaseSeed+N-1) per point
///   --base-seed S   override the bench's default base seed
///   --jobs M        worker threads running trials (results identical
///                   for any M)
///   --json PATH     write results to PATH (default BENCH_<id>.json)
///   --no-json       skip the JSON document
///   --quick         reduced matrix for CI smoke runs (bench-defined)
///
/// parseBenchOptions() handles parsing (and --help); runScenario() runs
/// the trials and writes the JSON document.  Benches keep their bespoke
/// summary tables and paper-shape checks, computed from the returned
/// records.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_EXP_OPTIONS_H
#define DGSIM_EXP_OPTIONS_H

#include "exp/BenchJson.h"

#include <string>
#include <vector>

namespace dgsim {
namespace exp {

/// Parsed standard options.
struct BenchOptions {
  std::string Id;
  uint64_t BaseSeed = 1;
  unsigned SeedCount = 1;
  unsigned Jobs = 1;
  bool Quick = false;
  bool WriteJson = true;
  /// Output path; empty means "BENCH_<Id>.json" in the working directory.
  std::string JsonPath;

  /// The expanded seed list: BaseSeed .. BaseSeed+SeedCount-1.
  std::vector<uint64_t> seeds() const;

  /// The JSON path this run will write (resolving the default), or empty
  /// when JSON is disabled.
  std::string jsonPath() const;
};

/// Parses argv.  On --help prints usage and exits 0; on a bad argument
/// prints a diagnostic and exits 2.  \p Id is the bench's stable id,
/// \p BaseSeed its historical default seed (so a bare run reproduces the
/// pre-runner numbers exactly).
BenchOptions parseBenchOptions(int Argc, char **Argv, std::string Id,
                               uint64_t BaseSeed);

/// Runs \p S on \p Options.Jobs threads, writes its JSON document unless
/// disabled, and returns the records.  Prints a one-line run summary to
/// stdout.  \p JsonFooter, when given, appends run-level members to the
/// document (JsonRun::Footer).
std::vector<TrialRecord>
runScenario(const Scenario &S, const BenchOptions &Options,
            std::function<void(json::JsonWriter &)> JsonFooter = nullptr);

} // namespace exp
} // namespace dgsim

#endif // DGSIM_EXP_OPTIONS_H
