//===- exp/MetricSink.h - Pluggable result sinks ---------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sinks receive trial results as a run progresses.  The runner guarantees
/// trial() is called in TrialPoint::Index order and never concurrently, no
/// matter how trials were scheduled across workers — sinks need no locking
/// and their output is deterministic.
///
/// One implementation ships: a JSON sink writing the machine-readable
/// BENCH_<id>.json document with per-trial provenance (seed, params, spec
/// hash, wall time, git describe).  Benches print their own paper-style
/// tables from the returned records.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_EXP_METRICSINK_H
#define DGSIM_EXP_METRICSINK_H

#include "exp/Scenario.h"
#include "support/Json.h"

#include <functional>
#include <string>

namespace dgsim {
namespace exp {

/// Context handed to sinks at the start of a run.
struct RunInfo {
  const Scenario *Scn = nullptr;
  unsigned Jobs = 1;
  /// `git describe` of the build, or "unknown".
  std::string GitDescribe;
};

/// Receives an ordered stream of trial results.
class MetricSink {
public:
  virtual ~MetricSink();

  virtual void begin(const RunInfo &Info);
  /// Called once per trial, in Index order.
  virtual void trial(const TrialRecord &Record) = 0;
  virtual void end(double TotalWallSeconds);
};

/// Writes the BENCH_<id>.json document.  With IncludeTimings off, all
/// host-side fields that legitimately vary between runs (wall times, job
/// count) are omitted, so serial and parallel sweeps of the same scenario
/// produce byte-identical documents — the determinism suite relies on it.
class JsonSink final : public MetricSink {
public:
  /// Writes the document to \p Path at end().
  explicit JsonSink(std::string Path, bool IncludeTimings = true);
  /// Captures the document into \p Out instead (used by tests).
  explicit JsonSink(std::string *Out, bool IncludeTimings = true);

  void begin(const RunInfo &Info) override;
  void trial(const TrialRecord &Record) override;
  void end(double TotalWallSeconds) override;

  /// Installs a callback writing extra top-level members into the
  /// document footer at end() time (after the trials array, alongside the
  /// wall-time provenance).  Benches use it for run-level derived data —
  /// e.g. events/s and allocation counters — computed from
  /// state their Run closures accumulated during the sweep.  Determinism
  /// comparisons should not install one (footers may legitimately vary
  /// between runs, like the other timing fields).
  void setFooter(std::function<void(json::JsonWriter &)> Fn) {
    Footer = std::move(Fn);
  }

  /// The most recent finished document (valid after end()).
  const std::string &document() const { return Doc; }

private:
  std::string Path;
  std::string *Capture = nullptr;
  bool IncludeTimings;
  std::function<void(json::JsonWriter &)> Footer;
  json::JsonWriter W;
  std::string Doc;
};

} // namespace exp
} // namespace dgsim

#endif // DGSIM_EXP_METRICSINK_H
