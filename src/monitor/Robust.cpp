//===- monitor/Robust.cpp --------------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "monitor/Robust.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace dgsim;

namespace {

/// Median of an already-sorted scratch vector.
double sortedMedian(std::vector<double> &Scratch) {
  size_t N = Scratch.size();
  if (N == 0)
    return 0.0;
  std::sort(Scratch.begin(), Scratch.end());
  return (N & 1) ? Scratch[N / 2]
                 : 0.5 * (Scratch[N / 2 - 1] + Scratch[N / 2]);
}

/// Consistency factor making MAD comparable to a standard deviation for
/// Gaussian data.
constexpr double MadToSigma = 1.4826;

/// The standard Huber tuning constant (95% efficiency at the normal).
constexpr double HuberC = 1.345;

} // namespace

RobustStats dgsim::robustStats(const double *Values, size_t Count) {
  RobustStats S;
  if (Count == 0)
    return S;
  std::vector<double> Scratch(Values, Values + Count);
  S.Median = sortedMedian(Scratch);
  for (size_t I = 0; I != Count; ++I)
    Scratch[I] = std::fabs(Values[I] - S.Median);
  S.Mad = sortedMedian(Scratch);
  return S;
}

double dgsim::trimmedMean(const double *Values, size_t Count, double Alpha) {
  if (Count == 0)
    return 0.0;
  assert(Alpha >= 0.0 && Alpha < 0.5 && "trim fraction must be in [0, 0.5)");
  std::vector<double> Scratch(Values, Values + Count);
  std::sort(Scratch.begin(), Scratch.end());
  size_t Trim = static_cast<size_t>(static_cast<double>(Count) * Alpha);
  if (2 * Trim >= Count)
    Trim = 0;
  double Sum = 0.0;
  for (size_t I = Trim; I != Count - Trim; ++I)
    Sum += Scratch[I];
  return Sum / static_cast<double>(Count - 2 * Trim);
}

PolyCoeffs dgsim::huberLinearFit(const double *X, const double *Y,
                                 size_t Count, unsigned Iterations) {
  // Seed with the ordinary least-squares line; each IRLS round reweights
  // by the Huber psi over MAD-scaled residuals.  A fixed iteration count
  // (no convergence test) keeps the result a pure function of the data.
  LeastSquaresAccumulator Seed;
  for (size_t I = 0; I != Count; ++I)
    Seed.add(X[I], Y[I]);
  PolyCoeffs C = Seed.fit(1);
  if (Count < 3 || C.Degree < 1)
    return C; // Too few points to reweight, or already degenerate.

  std::vector<double> Resid(Count);
  for (unsigned It = 0; It != Iterations; ++It) {
    for (size_t I = 0; I != Count; ++I)
      Resid[I] = std::fabs(Y[I] - C.eval(X[I]));
    RobustStats S = robustStats(Resid.data(), Count);
    double Scale = MadToSigma * S.Mad;
    if (!(Scale > 0.0))
      return C; // Perfect fit (or all-equal residuals): nothing to damp.
    // Weighted normal equations for the line; weights w = min(1, c/|r|/s).
    double Sw = 0.0, Swx = 0.0, Swx2 = 0.0, Swy = 0.0, Swxy = 0.0;
    for (size_t I = 0; I != Count; ++I) {
      double R = Resid[I] / Scale;
      double W = R > HuberC ? HuberC / R : 1.0;
      Sw += W;
      Swx += W * X[I];
      Swx2 += W * X[I] * X[I];
      Swy += W * Y[I];
      Swxy += W * X[I] * Y[I];
    }
    double Det = Sw * Swx2 - Swx * Swx;
    double ScaleDet = std::fabs(Sw * Swx2) + Swx * Swx;
    if (!(std::fabs(Det) > 1e-9 * ScaleDet))
      return C;
    PolyCoeffs Next;
    Next.C0 = (Swy * Swx2 - Swx * Swxy) / Det;
    Next.C1 = (Sw * Swxy - Swx * Swy) / Det;
    Next.Degree = 1;
    if (!std::isfinite(Next.C0) || !std::isfinite(Next.C1))
      return C;
    C = Next;
  }
  return C;
}

//===----------------------------------------------------------------------===//
// PlausibilityGate
//===----------------------------------------------------------------------===//

bool PlausibilityGate::admit(double Value, const GateConfig &Cfg) {
  size_t Window = std::max<unsigned>(Cfg.Window, 4);
  if (Ring.size() > Window) {
    // Config shrank (owner reconfigured the shared GateConfig): keep the
    // newest samples, oldest first, so the ring stays time-ordered.
    std::vector<double> Keep;
    Keep.reserve(Window);
    for (size_t I = Ring.size() - Window; I != Ring.size(); ++I)
      Keep.push_back(Ring[(Head + I) % Ring.size()]);
    Ring = std::move(Keep);
    Head = 0;
  }
  bool Plausible = true;
  if (Accepted >= Cfg.MinSamples && !Ring.empty()) {
    RobustStats S = robustStats(Ring.data(), Ring.size());
    double Scale = std::max({MadToSigma * S.Mad,
                             Cfg.RelFloor * std::fabs(S.Median),
                             Cfg.AbsFloor});
    Plausible = std::fabs(Value - S.Median) <= Cfg.Threshold * Scale;
  }
  if (!Plausible) {
    ++Rejected;
    ++RejectStreak;
    return false;
  }
  ++Accepted;
  RejectStreak = 0;
  if (Ring.size() < Window) {
    Ring.push_back(Value);
  } else {
    Ring[Head] = Value;
    Head = (Head + 1) % Ring.size();
  }
  return true;
}
