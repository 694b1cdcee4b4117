//===- exp/Scenario.cpp ------------------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "exp/Scenario.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <thread>

using namespace dgsim;
using namespace dgsim::exp;

const std::string &TrialPoint::param(const std::string &Name) const {
  for (const auto &[K, V] : Params)
    if (K == Name)
      return V;
  assert(false && "trial point has no such axis");
  static const std::string Empty;
  return Empty;
}

void TrialResult::set(const std::string &Name, double Value) {
  for (auto &[K, V] : Metrics)
    if (K == Name) {
      V = Value;
      return;
    }
  Metrics.emplace_back(Name, Value);
}

double TrialResult::get(const std::string &Name) const {
  for (const auto &[K, V] : Metrics)
    if (K == Name)
      return V;
  assert(false && "trial result has no such metric");
  return 0.0;
}

bool TrialResult::has(const std::string &Name) const {
  for (const auto &[K, V] : Metrics)
    if (K == Name)
      return true;
  return false;
}

double TrialResult::getOr(const std::string &Name, double Fallback) const {
  for (const auto &[K, V] : Metrics)
    if (K == Name)
      return V;
  return Fallback;
}

size_t Scenario::trialCount() const {
  size_t Count = Seeds.size();
  for (const Axis &A : Axes)
    Count *= A.Values.size();
  return Count;
}

std::vector<TrialPoint> Scenario::expand() const {
  assert(!Seeds.empty() && "a scenario needs at least one seed");
  for (const Axis &A : Axes)
    assert(!A.Values.empty() && "axes need at least one value");

  std::vector<TrialPoint> Points;
  Points.reserve(trialCount());
  // Odometer over the axes: first axis slowest, seeds innermost, so adding
  // seeds appends trials within each combination instead of reshuffling.
  std::vector<size_t> Pick(Axes.size(), 0);
  while (true) {
    for (size_t SeedIdx = 0; SeedIdx < Seeds.size(); ++SeedIdx) {
      TrialPoint P;
      P.Index = Points.size();
      P.Seed = Seeds[SeedIdx];
      P.SeedOrdinal = SeedIdx;
      P.Params.reserve(Axes.size());
      for (size_t A = 0; A < Axes.size(); ++A)
        P.Params.emplace_back(Axes[A].Name, Axes[A].Values[Pick[A]]);
      Points.push_back(std::move(P));
    }
    // Advance the odometer, last axis fastest.
    size_t A = Axes.size();
    while (A > 0) {
      --A;
      if (++Pick[A] < Axes[A].Values.size())
        break;
      Pick[A] = 0;
      if (A == 0)
        return Points;
    }
    if (Axes.empty())
      return Points;
  }
}

std::vector<TrialRecord> exp::runTrials(const Scenario &S, unsigned Jobs) {
  assert(S.Run && "scenario has no trial function");
  std::vector<TrialRecord> Records;
  for (TrialPoint &P : S.expand())
    Records.push_back(TrialRecord{std::move(P), {}, 0.0});

  auto RunOne = [&S](TrialRecord &R) {
    auto Start = std::chrono::steady_clock::now();
    R.Result = S.Run(R.Point);
    R.WallSeconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - Start)
                        .count();
  };
  if (Jobs <= 1) {
    for (TrialRecord &R : Records)
      RunOne(R);
    return Records;
  }
  // Each worker claims the next unrun index; only its claimant writes a
  // record, and the workers join (jthread) before Records is returned.
  std::atomic<size_t> Next{0};
  {
    std::vector<std::jthread> Workers;
    for (size_t T = 0, N = std::min<size_t>(Jobs, Records.size()); T != N;
         ++T)
      Workers.emplace_back([&] {
        for (size_t I = Next++; I < Records.size(); I = Next++)
          RunOne(Records[I]);
      });
  }
  return Records;
}

double exp::meanMetric(const std::vector<TrialRecord> &Records,
                       const std::string &AxisName, const std::string &Value,
                       const std::string &Metric) {
  double Sum = 0.0;
  size_t Count = 0;
  for (const TrialRecord &R : Records) {
    if (!AxisName.empty() && R.Point.param(AxisName) != Value)
      continue;
    Sum += R.Result.get(Metric);
    ++Count;
  }
  assert(Count > 0 && "meanMetric over an empty selection");
  return Sum / static_cast<double>(Count);
}
