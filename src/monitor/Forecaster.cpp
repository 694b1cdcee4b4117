//===- monitor/Forecaster.cpp ----------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "monitor/Forecaster.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace dgsim;

void SlidingMedianForecaster::add(double Value) {
  Sorted.insert(std::upper_bound(Sorted.begin(), Sorted.end(), Value), Value);
}

void SlidingMedianForecaster::replace(double Expired, double Value) {
  // Replace the expired value with the new one by shifting only the
  // elements between the two positions, one memmove instead of an erase
  // plus an insert.
  double *B = Sorted.data();
  size_t N = Sorted.size();
  size_t Out = std::lower_bound(B, B + N, Expired) - B;
  assert(Out < N && B[Out] == Expired && "sorted window out of sync");
  size_t In = std::upper_bound(B, B + N, Value) - B;
  if (In > Out) {
    // New value sorts after the expired one: close the gap leftwards.
    std::memmove(B + Out, B + Out + 1, (In - 1 - Out) * sizeof(double));
    B[In - 1] = Value;
  } else {
    // New value sorts before (or at) the expired slot: shift rightwards.
    std::memmove(B + In + 1, B + In, (Out - In) * sizeof(double));
    B[In] = Value;
  }
}

double SlidingMedianForecaster::predict() const {
  size_t N = Sorted.size();
  if (N == 0)
    return 0.0;
  if (N % 2 == 1)
    return Sorted[N / 2];
  return (Sorted[N / 2 - 1] + Sorted[N / 2]) / 2.0;
}

ExponentialSmoothingForecaster::ExponentialSmoothingForecaster(double Alpha)
    : Alpha(Alpha) {
  assert(Alpha > 0.0 && Alpha <= 1.0 && "gain outside (0, 1]");
}

void ExponentialSmoothingForecaster::observe(double Value) {
  if (!Seen) {
    Smoothed = Value;
    Seen = true;
    return;
  }
  Smoothed = Alpha * Value + (1.0 - Alpha) * Smoothed;
}

void NwsForecaster::observe(double Value) {
  // Score each member on this observation *before* it sees the value (the
  // postcast error), then feed the value in.
  if (Observations != 0) {
    double *Err = SquaredError;
    auto Score = [&](double Prediction) {
      double E = Prediction - Value;
      *Err++ += E * E;
    };
    Score(Last.predict());
    Score(RunMean.predict());
    for (const SlidingMeanForecaster &M : Means)
      Score(M.predict());
    for (const SlidingMedianForecaster &M : Medians)
      Score(M.predict());
    for (const ExponentialSmoothingForecaster &S : Smooth)
      Score(S.predict());
  }
  Last.observe(Value);
  RunMean.observe(Value);
  // Observation K sits in slot K % MaxWindow, so the value leaving a
  // window of W is the one W slots behind the slot this value takes.
  size_t Slot = Observations % MaxWindow;
  for (size_t K = 0; K != std::size(Windows); ++K) {
    size_t W = Windows[K];
    if (Observations < W) {
      Means[K].add(Value);
      Medians[K].add(Value);
      continue;
    }
    double Expired = Recent[Slot >= W ? Slot - W : Slot + MaxWindow - W];
    Means[K].replace(Expired, Value);
    Medians[K].replace(Expired, Value);
  }
  for (ExponentialSmoothingForecaster &S : Smooth)
    S.observe(Value);
  if (Recent.size() < MaxWindow)
    Recent.push_back(Value);
  else
    Recent[Slot] = Value;
  ++Observations;
}

size_t NwsForecaster::bestIndex() const {
  size_t Best = 0;
  for (size_t I = 1; I != BatterySize; ++I)
    if (SquaredError[I] < SquaredError[Best])
      Best = I;
  return Best;
}

double NwsForecaster::memberMse(size_t I) const {
  assert(I < BatterySize && "member index out of range");
  size_t Scored = Observations > 1 ? Observations - 1 : 0;
  return Scored ? SquaredError[I] / static_cast<double>(Scored) : 0.0;
}

double NwsForecaster::memberPredict(size_t I) const {
  assert(I < BatterySize && "member index out of range");
  // Battery order: last, run_mean, 4 means, 4 medians, 3 smoothers.
  if (I == 0)
    return Last.predict();
  if (I == 1)
    return RunMean.predict();
  if (I < 6)
    return Means[I - 2].predict();
  if (I < 10)
    return Medians[I - 6].predict();
  return Smooth[I - 10].predict();
}

const char *NwsForecaster::memberName(size_t I) {
  static const char *const Names[BatterySize] = {
      "last",           "run_mean",         "sw_mean(5)",
      "sw_mean(10)",    "sw_mean(20)",      "sw_mean(40)",
      "sw_median(5)",   "sw_median(10)",    "sw_median(20)",
      "sw_median(40)",  "exp_smooth(0.05)", "exp_smooth(0.25)",
      "exp_smooth(0.75)"};
  assert(I < BatterySize && "member index out of range");
  return Names[I];
}
