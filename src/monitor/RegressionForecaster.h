//===- monitor/RegressionForecaster.h - Log-trained transfer predictors ----===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regression predictors trained on completed-transfer observations, after
/// Vazhkudai & Schopf ("Using Regression Techniques to Predict Large Data
/// Transfers"): end-to-end GridFTP throughput is predicted from the log of
/// past transfers on the same path — linear and polynomial least-squares
/// fits of throughput against file size, plus a set-partitioned variant
/// (one fit per file-size class) — and an adaptive minimum-MSE
/// meta-selector chooses between the probe-based NWS forecast and the
/// log-trained battery per path.
///
/// Determinism discipline matches Forecaster.h: no global state, no RNG,
/// no wall clock.  Degenerate fits (singular normal equations: constant x,
/// too few samples, an empty partition bucket) fall back deterministically
/// down the chain quadratic -> linear -> mean -> 0 and never emit NaN/Inf
/// into the MSE tracking; ties in accumulated error resolve to the lowest
/// arm id, so same-seed runs are bit-identical regardless of float
/// equality of errors.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_MONITOR_REGRESSIONFORECASTER_H
#define DGSIM_MONITOR_REGRESSIONFORECASTER_H

#include "support/Units.h"

#include <cstddef>

namespace dgsim {

/// One completed transfer as the log records it.
struct TransferObservation {
  /// Payload bytes requested (the range length for partial fetches).
  Bytes FileBytes = 0.0;
  /// Achieved payload throughput over the data phase, bits/second.
  BitRate Throughput = 0.0;
};

/// Polynomial coefficients of a least-squares fit:
/// value(x) = C0 + C1*x + C2*x^2.  Degree records what was actually
/// solvable — a degenerate request reports the degree it fell back to.
struct PolyCoeffs {
  double C0 = 0.0;
  double C1 = 0.0;
  double C2 = 0.0;
  unsigned Degree = 0;

  double eval(double X) const { return C0 + X * (C1 + X * C2); }
};

/// Running-sum least-squares accumulator for polynomials of degree <= 2.
///
/// add() keeps the power sums (x^0..x^4, y, xy, x^2*y); fit() solves the
/// normal equations by Cramer's rule.  Singularity is detected against a
/// relative scale built from the determinant's own expansion terms, so
/// "constant x" degrades identically whether x is 0 or 1e9: a singular
/// (or under-sampled) system falls back to the next lower degree, ending
/// at the mean (degree 0) and, with no samples at all, at 0.  Every
/// returned coefficient is finite by construction.
class LeastSquaresAccumulator {
public:
  void add(double X, double Y);

  size_t count() const { return N; }

  /// Mean of the observed y values; 0 with no samples.
  double mean() const { return N ? Sy / static_cast<double>(N) : 0.0; }

  /// Least-squares fit of the requested degree (0, 1 or 2), with the
  /// deterministic degenerate fallback chain described above.
  PolyCoeffs fit(unsigned Degree) const;

  /// fit(Degree).eval(X); the common read path.
  double predict(unsigned Degree, double X) const {
    return fit(Degree).eval(X);
  }

private:
  size_t N = 0;
  double Sx = 0.0, Sx2 = 0.0, Sx3 = 0.0, Sx4 = 0.0;
  double Sy = 0.0, Sxy = 0.0, Sx2y = 0.0;
};

/// The minimum-MSE meta-selector over one path's predictor battery.
///
/// Arm 0 is the probe-based forecast (the NWS bandwidth sensor's adaptive
/// prediction, passed in by the caller at observe/predict time — this
/// class holds no sensor reference).  Arms 1..4 are trained on the
/// observation stream itself:
///
///   1  log_mean          mean achieved throughput
///   2  log_lin(mb)       linear fit, throughput vs file size (MB)
///   3  log_quad(mb)      quadratic fit, throughput vs file size (MB)
///   4  log_part(size)    per-size-class fit (power-of-two MB buckets),
///                        empty/degenerate bucket -> global mean
///
/// Like NwsForecaster, each arm is scored on its postcast error *before*
/// the observation is ingested (the first observation trains only), and
/// bestArm() is the strict minimum of mean squared error in arm order —
/// ties go to the lowest arm id, and an arm is only comparable once it
/// has been scored at least once.  A non-finite probe forecast (no sensor
/// yet) skips arm 0's scoring for that observation instead of poisoning
/// its MSE.
class TransferForecaster {
public:
  static constexpr size_t ArmCount = 5;

  /// Scores every arm against \p O, then trains the log arms on it.
  /// \p ProbeForecast is the path's NWS bandwidth forecast at completion
  /// time (NaN when no probe sensor exists).
  void observe(const TransferObservation &O, double ProbeForecast);

  /// The meta-prediction for a prospective transfer: the current best
  /// arm's throughput prediction, clamped non-negative.  Before any arm
  /// has been scored this is \p ProbeForecast (trust the probe until the
  /// log has evidence).
  double predict(Bytes FileBytes, double ProbeForecast) const;

  /// \returns the arm bestArm() currently forwards (0 when unscored).
  size_t bestArm() const;

  /// \returns arm \p I's prediction for a prospective transfer (arm 0
  /// forwards \p ProbeForecast), clamped non-negative.
  double armPredict(size_t I, Bytes FileBytes, double ProbeForecast) const;

  /// \returns a short stable identifier for arm \p I ("log_lin(mb)").
  static const char *armName(size_t I);

  /// \returns arm \p I's mean squared error over the observations it was
  /// scored on (0 before any scoring).
  double armMse(size_t I) const;

  /// \returns how many observations scored arm \p I.
  size_t armScored(size_t I) const;

  /// \returns observations ingested.
  size_t observationCount() const { return Observations; }

private:
  /// Power-of-two MB size classes: bucket 0 holds (0, 1] MB, bucket k
  /// holds (2^(k-1), 2^k] MB.  Everything past 2^15 MB (32 GB) shares the
  /// top bucket so the table stays small.
  static constexpr size_t SizeBuckets = 16;

  static size_t sizeBucket(double Mb);

  LeastSquaresAccumulator Global;
  LeastSquaresAccumulator BySize[SizeBuckets];
  double SquaredError[ArmCount] = {};
  size_t Scored[ArmCount] = {};
  size_t Observations = 0;
};

} // namespace dgsim

#endif // DGSIM_MONITOR_REGRESSIONFORECASTER_H
