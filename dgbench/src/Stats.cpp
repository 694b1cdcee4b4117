//===- dgbench/src/Stats.cpp ----------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include <algorithm>
#include <cmath>
#include <cstring>

using namespace dgbench;

size_t dgbench::samplesBeyond(double P, size_t N) {
  double Rank = std::ceil(double(N) * P / 100.0 - 1e-9);
  size_t Below = Rank <= 0.0 ? 0 : size_t(Rank);
  return Below >= N ? 0 : N - Below;
}

bool dgbench::percentileSupported(double P, size_t N) {
  return samplesBeyond(P, N) >= MinSamplesBeyond;
}

double dgbench::percentileOfSorted(const std::vector<double> &Sorted,
                                   double P) {
  double Pos = P / 100.0 * double(Sorted.size() - 1);
  size_t Lo = size_t(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  double Frac = Pos - double(Lo);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * Frac;
}

double dgbench::median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  return percentileOfSorted(V, 50.0);
}

std::optional<double> TailSummary::at(double P) const {
  if (Sorted.empty() || !percentileSupported(P, Count))
    return std::nullopt;
  return percentileOfSorted(Sorted, P);
}

TailSummary dgbench::summarize(std::vector<double> Samples) {
  TailSummary S;
  S.Count = Samples.size();
  std::sort(Samples.begin(), Samples.end());
  S.Sorted = std::move(Samples);
  if (S.Sorted.empty())
    return S;
  S.P50 = percentileOfSorted(S.Sorted, 50.0);
  for (double P : TailLadder)
    if (percentileSupported(P, S.Count)) {
      S.TailPercentile = P;
      S.TailValue = percentileOfSorted(S.Sorted, P);
    }
  return S;
}

void Digest::add(uint64_t V) {
  for (int I = 0; I < 8; ++I) {
    H ^= (V >> (8 * I)) & 0xff;
    H *= 0x100000001b3ull;
  }
}

void Digest::add(double V) {
  uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  add(Bits);
}
