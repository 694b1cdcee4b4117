//===- bench/BenchUtil.h - Shared helpers for the bench harness ------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the paper-reproduction bench binaries.  Every
/// measurement builds a *fresh* testbed with the same seed, so independent
/// data points never disturb each other and reruns are bit-identical —
/// the simulation analogue of the paper running its transfers back to back
/// on an otherwise idle testbed.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_BENCH_BENCHUTIL_H
#define DGSIM_BENCH_BENCHUTIL_H

#include "grid/Testbed.h"
#include "support/AllocStats.h"
#include "support/InlineFunction.h"
#include "support/Resource.h"
#include "support/Table.h"
#include "support/Units.h"

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace dgsim {
namespace bench {

/// Warm-up time before measurements: lets sensors populate and the load
/// processes leave their initial state.
inline constexpr SimTime WarmupSeconds = 30.0;

/// Runs one transfer on a fresh PaperTestbed and returns its result.
inline TransferResult runSingleTransfer(const PaperTestbedOptions &Options,
                                        const std::string &SourceName,
                                        const std::string &DestName,
                                        Bytes FileBytes,
                                        TransferProtocol Protocol,
                                        unsigned Streams) {
  PaperTestbed T(Options);
  T.sim().runUntil(WarmupSeconds);
  TransferSpec Spec;
  Spec.Source = T.grid().findHost(SourceName);
  Spec.Destination = T.grid().findHost(DestName);
  Spec.FileBytes = FileBytes;
  Spec.Protocol = Protocol;
  Spec.Streams = Streams;
  TransferResult Result;
  T.grid().transfers().submit(Spec,
                              [&](const TransferResult &R) { Result = R; });
  T.sim().run();
  return Result;
}

/// Prints a banner line for a bench binary.
inline void banner(const char *Title, const char *PaperArtifact) {
  std::printf("== %s ==\n", Title);
  std::printf("reproduces: %s\n\n", PaperArtifact);
}

/// Prints the footer the scale benches share.  The `host:` line — kernel
/// events and events/s, plus peak RSS (also written to BENCH_*.json by the
/// exp layer) — is wall-clock derived, so it goes to stderr and stays out
/// of golden-pinned stdout.
inline void printRunFooter(uint64_t Events, double WallSeconds) {
  std::printf("\n");
  std::fflush(stdout);
  std::fprintf(stderr,
               "host: %llu events in %.2f s (%.0f events/s), peak RSS %.1f "
               "MB\n",
               static_cast<unsigned long long>(Events), WallSeconds,
               WallSeconds > 0.0 ? double(Events) / WallSeconds : 0.0,
               double(peakRssBytes()) / (1024.0 * 1024.0));
  // The steady-state allocation story in two numbers: pool slots grown
  // (should be warm-up only) and callback captures that spilled past the
  // inline buffer (should be cold paths only).
  std::printf("alloc: %llu pool growths, %llu callback heap fallbacks\n",
              static_cast<unsigned long long>(PoolStats::growths()),
              static_cast<unsigned long long>(
                  InlineFunctionStats::heapFallbacks()));
}

/// One failed shape check, kept structured so the exit path can say what
/// number broke which property — not just that "something failed".
struct ShapeFailure {
  std::string Property;
  /// The measured quantity ("goodput_mbps", ...); empty for boolean
  /// checks that carry no number.
  std::string Metric;
  /// Human-readable bound ("\>= 120.0", "within 15% of 4.2").
  std::string Expected;
  double Actual = 0.0;
};

/// Every failed shape check so far (process-wide).
inline std::vector<ShapeFailure> &shapeFailures() {
  static std::vector<ShapeFailure> Failures;
  return Failures;
}

/// Whether any shapeCheck() so far failed (process-wide).
inline bool anyShapeFailure() { return !shapeFailures().empty(); }

/// Prints the pass/fail line for the qualitative paper-shape property and
/// records failures; exitCode() turns them into the process exit status,
/// so CI smoke entries gate on paper shapes without per-bench bookkeeping.
inline void shapeCheck(bool Ok, const char *Property) {
  if (!Ok)
    shapeFailures().push_back({Property, "", "", 0.0});
  std::printf("paper-shape check: [%s] %s\n", Ok ? "OK" : "FAIL", Property);
}

namespace detail {
inline std::string formatNumber(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%g", V);
  return Buf;
}
inline void shapeCheckBound(bool Ok, double Actual, const char *Metric,
                            std::string Expected, const char *Property) {
  if (!Ok)
    shapeFailures().push_back(
        {Property, Metric, std::move(Expected), Actual});
  std::printf("paper-shape check: [%s] %s\n", Ok ? "OK" : "FAIL", Property);
}
} // namespace detail

/// shapeCheck(Actual >= Bound), recording metric name and both numbers.
inline bool shapeCheckGe(double Actual, double Bound, const char *Metric,
                         const char *Property) {
  bool Ok = Actual >= Bound;
  detail::shapeCheckBound(Ok, Actual, Metric,
                          ">= " + detail::formatNumber(Bound), Property);
  return Ok;
}

/// shapeCheck(Actual <= Bound), recording metric name and both numbers.
inline bool shapeCheckLe(double Actual, double Bound, const char *Metric,
                         const char *Property) {
  bool Ok = Actual <= Bound;
  detail::shapeCheckBound(Ok, Actual, Metric,
                          "<= " + detail::formatNumber(Bound), Property);
  return Ok;
}

/// shapeCheck(Actual == Expected), for counters that must match exactly.
inline bool shapeCheckEq(double Actual, double Expected, const char *Metric,
                         const char *Property) {
  bool Ok = Actual == Expected;
  detail::shapeCheckBound(Ok, Actual, Metric,
                          "== " + detail::formatNumber(Expected), Property);
  return Ok;
}

/// shapeCheck(|Actual - Expected| <= RelTol * |Expected|).
inline bool shapeCheckNear(double Actual, double Expected, double RelTol,
                           const char *Metric, const char *Property) {
  bool Ok = std::fabs(Actual - Expected) <= RelTol * std::fabs(Expected);
  detail::shapeCheckBound(Ok, Actual, Metric,
                          "within " + detail::formatNumber(RelTol * 100.0) +
                              "% of " + detail::formatNumber(Expected),
                          Property);
  return Ok;
}

/// Process exit status: non-zero iff any paper-shape check failed.  On
/// failure, re-prints every failed check with its metric and the expected
/// vs actual values, so a red CI log ends with the numbers that broke.
inline int exitCode() {
  const std::vector<ShapeFailure> &Failures = shapeFailures();
  if (Failures.empty())
    return 0;
  std::printf("\n%zu shape-check failure%s:\n", Failures.size(),
              Failures.size() == 1 ? "" : "s");
  for (const ShapeFailure &F : Failures) {
    if (F.Metric.empty())
      std::printf("  FAIL %s\n", F.Property.c_str());
    else
      std::printf("  FAIL %s: %s expected %s, got %s\n", F.Property.c_str(),
                  F.Metric.c_str(), F.Expected.c_str(),
                  detail::formatNumber(F.Actual).c_str());
  }
  return 1;
}

} // namespace bench
} // namespace dgsim

#endif // DGSIM_BENCH_BENCHUTIL_H
