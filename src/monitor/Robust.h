//===- monitor/Robust.h - Robust estimation primitives ---------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The robust-estimation layer hardening the monitor pipeline against
/// Byzantine telemetry (DESIGN.md §15): median/MAD plausibility gating of
/// sensor samples and TransferLog appends.
///
/// Everything here follows the monitor determinism discipline: no global
/// state, no RNG, no wall clock; full sorts (never nth_element, whose
/// pivot order is implementation-defined) so medians are bit-identical
/// across standard libraries and runs.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_MONITOR_ROBUST_H
#define DGSIM_MONITOR_ROBUST_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dgsim {

/// Median and median-absolute-deviation of a sample set.
struct RobustStats {
  double Median = 0.0;
  /// Raw MAD (not consistency-scaled): median of |x_i - Median|.
  double Mad = 0.0;
};

/// \returns median/MAD of \p Values (copied and sorted; empty input
/// returns {0, 0}).  Even counts average the two middle elements.
RobustStats robustStats(const double *Values, size_t Count);

/// Configuration of a median/MAD plausibility gate.  Shared by every
/// gated stream of one owner (the InformationService's sensors, the
/// TransferLog's paths), so one knob flips them all.  The band itself
/// (threshold, window, scale floors) is fixed in Robust.cpp.
struct GateConfig {
  /// Accepted samples required before the gate starts judging; everything
  /// before that is admitted on faith (the cold-start guard, mirroring
  /// HealthTracker::MinSamples).
  unsigned MinSamples = 8;
};

/// A median/MAD plausibility gate over one scalar stream.
///
/// admit() judges each candidate against the median of the recent
/// accepted window: implausible samples are rejected (counted, never
/// silently dropped — the owner surfaces the counters) and do not enter
/// the window, so a burst of corrupt values cannot drag the window to
/// itself.  Plain data (pure value type) so TransferLog's per-path state
/// stays copy-cheap.
class PlausibilityGate {
public:
  /// Judges \p Value and, when plausible, admits it into the window.
  /// \returns true when the sample should be ingested downstream.
  bool admit(double Value, const GateConfig &Cfg);

  uint64_t accepted() const { return Accepted; }
  uint64_t rejected() const { return Rejected; }

private:
  std::vector<double> Ring;
  size_t Head = 0;
  uint64_t Accepted = 0;
  uint64_t Rejected = 0;
};

} // namespace dgsim

#endif // DGSIM_MONITOR_ROBUST_H
