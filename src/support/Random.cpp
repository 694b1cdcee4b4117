//===- support/Random.cpp -------------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/Random.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace dgsim;

static uint64_t splitMix64(uint64_t &X) {
  X += 0x9E3779B97F4A7C15ULL;
  uint64_t Z = X;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

static uint64_t rotl(uint64_t X, int K) { return (X << K) | (X >> (64 - K)); }

RandomEngine::RandomEngine(uint64_t Seed) {
  // Seed the full 256-bit state from SplitMix64 as recommended by the
  // xoshiro authors; this makes every seed (including 0) usable.
  uint64_t S = Seed;
  for (auto &Word : State)
    Word = splitMix64(S);
}

RandomEngine RandomEngine::fork() {
  // A fresh engine seeded from this stream is statistically independent for
  // simulation purposes and keeps fork order deterministic.
  return RandomEngine(next());
}

uint64_t RandomEngine::next() {
  // xoshiro256** step.
  const uint64_t Result = rotl(State[1] * 5, 7) * 9;
  const uint64_t T = State[1] << 17;
  State[2] ^= State[0];
  State[3] ^= State[1];
  State[1] ^= State[2];
  State[0] ^= State[3];
  State[2] ^= T;
  State[3] = rotl(State[3], 45);
  return Result;
}

double RandomEngine::uniform() {
  // 53 random mantissa bits -> uniform double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double RandomEngine::uniform(double Lo, double Hi) {
  assert(Lo <= Hi && "inverted uniform range");
  return Lo + (Hi - Lo) * uniform();
}

uint64_t RandomEngine::uniformInt(uint64_t Bound) {
  assert(Bound > 0 && "uniformInt bound must be positive");
  // Rejection sampling to avoid modulo bias.
  const uint64_t Threshold = (0ULL - Bound) % Bound;
  for (;;) {
    uint64_t R = next();
    if (R >= Threshold)
      return R % Bound;
  }
}

bool RandomEngine::bernoulli(double P) {
  if (P <= 0.0)
    return false;
  if (P >= 1.0)
    return true;
  return uniform() < P;
}

double RandomEngine::exponential(double Mean) {
  assert(Mean > 0.0 && "exponential mean must be positive");
  // Inverse CDF; uniform() never returns 1.0, so log(1-U) is finite.
  return -Mean * std::log1p(-uniform());
}

double RandomEngine::normal(double Mean, double StdDev) {
  assert(StdDev >= 0.0 && "negative standard deviation");
  // Box-Muller.  uniform() can return exactly 0, which log() rejects, so
  // nudge U1 into (0, 1].
  double U1 = 1.0 - uniform();
  double U2 = uniform();
  double R = std::sqrt(-2.0 * std::log(U1));
  return Mean + StdDev * R * std::cos(2.0 * M_PI * U2);
}

double RandomEngine::logNormal(double Mu, double Sigma) {
  return std::exp(normal(Mu, Sigma));
}

double RandomEngine::pareto(double Xm, double Alpha) {
  assert(Xm > 0.0 && Alpha > 0.0 && "pareto parameters must be positive");
  double U = 1.0 - uniform(); // in (0, 1]
  return Xm / std::pow(U, 1.0 / Alpha);
}

size_t RandomEngine::weightedIndex(const std::vector<double> &Weights) {
  assert(!Weights.empty() && "weightedIndex on empty weight vector");
  double Total = 0.0;
  for (double W : Weights) {
    assert(W >= 0.0 && "negative weight");
    Total += W;
  }
  assert(Total > 0.0 && "weightedIndex needs at least one positive weight");
  double Target = uniform() * Total;
  double Acc = 0.0;
  for (size_t I = 0, E = Weights.size(); I != E; ++I) {
    Acc += Weights[I];
    if (Target < Acc)
      return I;
  }
  // Floating-point slack: fall back to the last positive weight.
  for (size_t I = Weights.size(); I-- > 0;)
    if (Weights[I] > 0.0)
      return I;
  return Weights.size() - 1;
}

ZipfTable::ZipfTable(size_t N, double S) {
  assert(N > 0 && "zipf needs a non-empty universe");
  Cdf.reserve(N);
  double Acc = 0.0;
  for (size_t K = 1; K <= N; ++K) {
    Acc += 1.0 / std::pow(static_cast<double>(K), S);
    Cdf.push_back(Acc);
  }
}

size_t ZipfTable::draw(RandomEngine &Rng) const {
  // Inversion: the first rank whose prefix sum exceeds the target.  The
  // sums are exact running totals, so Cdf.back() is the normaliser; the
  // clamp absorbs a target that rounds up onto it.
  double Target = Rng.uniform() * Cdf.back();
  size_t K = std::upper_bound(Cdf.begin(), Cdf.end(), Target) - Cdf.begin();
  return std::min(K, Cdf.size() - 1);
}
