//===- monitor/Robust.h - Robust estimation primitives ---------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The robust-estimation layer hardening the monitor pipeline against
/// Byzantine telemetry (DESIGN.md §15): median/MAD plausibility gating of
/// sensor samples and TransferLog appends, and trimmed-mean and Huber
/// M-estimator fits for the regression battery.
///
/// Everything here follows the monitor determinism discipline: no global
/// state, no RNG, no wall clock; full sorts (never nth_element, whose
/// pivot order is implementation-defined) so medians are bit-identical
/// across standard libraries and runs.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_MONITOR_ROBUST_H
#define DGSIM_MONITOR_ROBUST_H

#include "monitor/RegressionForecaster.h"

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

/// \returns the symmetrically trimmed mean of \p Values: the smallest and
/// largest floor(Count * Alpha) elements are discarded.  Falls back to
/// the plain mean when trimming would discard everything; 0 when empty.
double trimmedMean(const double *Values, size_t Count, double Alpha);

/// Linear Huber M-estimator fit of y against x via iteratively reweighted
/// least squares: \p Iterations rounds (fixed, for determinism), residual
/// scale from the MAD of the previous round's residuals, Huber constant
/// 1.345.  Degenerate systems fall back through the same chain as
/// LeastSquaresAccumulator::fit (linear -> mean -> 0).
PolyCoeffs huberLinearFit(const double *X, const double *Y, size_t Count,
                          unsigned Iterations = 3);

/// Configuration of a median/MAD plausibility gate.  Shared by every
/// gated stream of one owner (the InformationService's sensors, the
/// TransferLog's paths), so one knob flips them all.
struct GateConfig {
  /// Reject when |x - median| > Threshold * scale.
  double Threshold = 6.0;
  /// Accepted samples required before the gate starts judging; everything
  /// before that is admitted on faith (the cold-start guard, mirroring
  /// HealthTracker::MinSamples).
  unsigned MinSamples = 8;
  /// Ring of recent *accepted* samples the median/MAD are computed over.
  unsigned Window = 16;
  /// Scale floors: scale = max(1.4826 * MAD, RelFloor * |median|,
  /// AbsFloor), so a degenerate window (MAD 0 after identical samples)
  /// still admits ordinary jitter instead of rejecting everything.
  double RelFloor = 0.05;
  double AbsFloor = 1e-9;
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
  /// Consecutive rejections since the last accepted sample — the
  /// plausibility half of the information service's confidence tag.
  unsigned rejectStreak() const { return RejectStreak; }

private:
  std::vector<double> Ring;
  size_t Head = 0;
  uint64_t Accepted = 0;
  uint64_t Rejected = 0;
  unsigned RejectStreak = 0;
};

} // namespace dgsim

#endif // DGSIM_MONITOR_ROBUST_H
