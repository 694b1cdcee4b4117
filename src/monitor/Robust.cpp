//===- monitor/Robust.cpp --------------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "monitor/Robust.h"

#include <algorithm>
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

/// The plausibility band: reject when |x - median| > GateThreshold *
/// scale, with scale = max(MadToSigma * MAD, GateRelFloor * |median|,
/// GateAbsFloor) over the GateWindow most recent accepted samples.  The
/// floors keep a degenerate window (MAD 0 after identical samples)
/// admitting ordinary jitter instead of rejecting everything.
constexpr double GateThreshold = 6.0;
constexpr size_t GateWindow = 16;
constexpr double GateRelFloor = 0.05;
constexpr double GateAbsFloor = 1e-9;

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

//===----------------------------------------------------------------------===//
// PlausibilityGate
//===----------------------------------------------------------------------===//

bool PlausibilityGate::admit(double Value, const GateConfig &Cfg) {
  bool Plausible = true;
  if (Accepted >= Cfg.MinSamples && !Ring.empty()) {
    RobustStats S = robustStats(Ring.data(), Ring.size());
    double Scale = std::max({MadToSigma * S.Mad,
                             GateRelFloor * std::fabs(S.Median),
                             GateAbsFloor});
    Plausible = std::fabs(Value - S.Median) <= GateThreshold * Scale;
  }
  if (!Plausible) {
    ++Rejected;
    return false;
  }
  ++Accepted;
  if (Ring.size() < GateWindow) {
    Ring.push_back(Value);
  } else {
    Ring[Head] = Value;
    Head = (Head + 1) % Ring.size();
  }
  return true;
}
