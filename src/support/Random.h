//===- support/Random.h - Deterministic PRNG and distributions -----------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A seedable, splittable pseudo-random number source.
///
/// Every stochastic process in the simulator (CPU load, cross traffic, loss,
/// workload arrivals) draws from a RandomEngine owned by the component, forked
/// from a single root seed.  Reruns with the same seed are bit-identical; the
/// property tests depend on this.
///
/// The generator is xoshiro256** (Blackman & Vigna) seeded via SplitMix64,
/// which is the recommended seeding procedure for the xoshiro family.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_SUPPORT_RANDOM_H
#define DGSIM_SUPPORT_RANDOM_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dgsim {

/// Deterministic random engine with the distribution helpers the simulator
/// needs.  Cheap to copy; copies continue independent but identical streams,
/// so prefer fork() when independence is required.
class RandomEngine {
public:
  /// Creates an engine from a 64-bit seed.  Any seed (including 0) is valid.
  explicit RandomEngine(uint64_t Seed = 0x9E3779B97F4A7C15ULL);

  /// Derives an independent child stream.  Children forked in the same order
  /// from the same parent are reproducible.
  RandomEngine fork();

  /// \returns the next raw 64-bit value.
  uint64_t next();

  /// \returns a double uniformly distributed in [0, 1).
  double uniform();

  /// \returns a double uniformly distributed in [\p Lo, \p Hi).
  double uniform(double Lo, double Hi);

  /// \returns an integer uniformly distributed in [0, \p Bound).
  /// \p Bound must be positive.  Uses rejection to avoid modulo bias.
  uint64_t uniformInt(uint64_t Bound);

  /// \returns true with probability \p P (clamped to [0, 1]).
  bool bernoulli(double P);

  /// \returns an exponential variate with the given \p Mean (> 0).
  double exponential(double Mean);

  /// \returns a normal variate (Box-Muller; one value per call).
  double normal(double Mean, double StdDev);

  /// \returns a log-normal variate parameterised by the underlying normal.
  double logNormal(double Mu, double Sigma);

  /// \returns a Pareto variate with scale \p Xm (> 0) and shape \p Alpha (> 0).
  /// Heavy-tailed; used for file-size and burst-length distributions.
  double pareto(double Xm, double Alpha);

  /// Samples an index in [0, Weights.size()) proportionally to the weights.
  /// All weights must be non-negative and at least one must be positive.
  size_t weightedIndex(const std::vector<double> &Weights);

private:
  uint64_t State[4];
};

/// Zipf-distributed ranks in [0, N) with exponent S (>= 0); rank 0 is the
/// most popular.  Used for file-popularity workloads.  The harmonic prefix
/// sums are built once per table, so a draw is one uniform() and a binary
/// search.
class ZipfTable {
public:
  ZipfTable(size_t N, double S);

  /// Draws a rank, consuming exactly one uniform() from \p Rng.
  size_t draw(RandomEngine &Rng) const;

private:
  /// Cdf[K] = sum of 1/(J+1)^S over J <= K, accumulated in rank order.
  std::vector<double> Cdf;
};

} // namespace dgsim

#endif // DGSIM_SUPPORT_RANDOM_H
