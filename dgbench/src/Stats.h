//===- dgbench/src/Stats.h - Sample summaries for the benchmark -----------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's reporting rule for a timing distribution: its median,
/// plus the highest percentile of a fixed ladder that still has at least
/// ten samples beyond it, always with the sample count.  A p99 read off
/// 200 samples is two samples' worth of evidence; the rule refuses it.
///
//===----------------------------------------------------------------------===//

#ifndef DGBENCH_STATS_H
#define DGBENCH_STATS_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace dgbench {

/// Samples needed beyond a reported percentile.
inline constexpr size_t MinSamplesBeyond = 10;

/// \returns how many of \p N samples lie beyond percentile \p P (in
/// [0, 100]): N - ceil(N * P / 100).
size_t samplesBeyond(double P, size_t N);

/// \returns true when percentile \p P of \p N samples may be reported.
bool percentileSupported(double P, size_t N);

/// \returns the \p P-th percentile (in [0, 100]) of \p Sorted, ascending,
/// by linear interpolation between closest ranks.  \p Sorted is not empty.
double percentileOfSorted(const std::vector<double> &Sorted, double P);

/// \returns the median of \p V (copied and sorted); 0 when empty.
double median(std::vector<double> V);

/// A distribution summarized by the reporting rule.
struct TailSummary {
  size_t Count = 0;
  double P50 = 0.0;
  /// The highest ladder percentile with MinSamplesBeyond samples beyond
  /// it, and its value; unset when even the lowest rung lacks them.
  std::optional<double> TailPercentile;
  double TailValue = 0.0;

  /// \returns the value at percentile \p P when the sample count
  /// supports it, otherwise nothing.
  std::optional<double> at(double P) const;

  std::vector<double> Sorted;
};

/// The percentile ladder, ascending.  p99 is the top rung: the end-to-end
/// metrics name it, and going higher would trade stability for reach.
inline constexpr double TailLadder[] = {75.0, 90.0, 99.0};

/// Summarizes \p Samples by the reporting rule.
TailSummary summarize(std::vector<double> Samples);

/// 64-bit FNV-1a, extended one value at a time: the simulated-output
/// digest that two runs of one seed must agree on.
class Digest {
public:
  void add(uint64_t V);
  void add(double V);
  uint64_t value() const { return H; }

private:
  uint64_t H = 0xcbf29ce484222325ull;
};

} // namespace dgbench

#endif // DGBENCH_STATS_H
