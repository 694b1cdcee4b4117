//===- exp/ExperimentRunner.cpp ----------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "exp/ExperimentRunner.h"

#include "support/ThreadPool.h"

#include <cassert>
#include <chrono>
#include <mutex>

using namespace dgsim;
using namespace dgsim::exp;

const char *exp::gitDescribe() {
#ifdef DGSIM_GIT_DESCRIBE
  return DGSIM_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

} // namespace

std::vector<TrialRecord> ExperimentRunner::run(const Scenario &S,
                                               const RunnerOptions &Options) {
  assert(S.Run && "scenario has no trial function");
  std::vector<TrialPoint> Points = S.expand();

  RunInfo Info;
  Info.Scn = &S;
  Info.Jobs = Options.Jobs == 0 ? 1 : Options.Jobs;
  Info.GitDescribe = gitDescribe();
  for (MetricSink *Sink : Options.Sinks)
    Sink->begin(Info);

  auto RunStart = std::chrono::steady_clock::now();
  std::vector<TrialRecord> Records(Points.size());

  // Ordered emission: trials finish in any order, sinks see Index order.
  // Done[I] flips under the mutex once Records[I] is complete; NextEmit
  // advances over the completed prefix, feeding the sinks.
  std::vector<char> Done(Points.size(), 0);
  size_t NextEmit = 0;
  std::mutex EmitMutex;

  auto RunOne = [&](size_t I) {
    auto TrialStart = std::chrono::steady_clock::now();
    TrialResult Result = S.Run(Points[I]);
    double Wall = secondsSince(TrialStart);
    std::lock_guard<std::mutex> Lock(EmitMutex);
    Records[I].Point = Points[I];
    Records[I].Result = std::move(Result);
    Records[I].WallSeconds = Wall;
    Done[I] = 1;
    while (NextEmit < Records.size() && Done[NextEmit]) {
      for (MetricSink *Sink : Options.Sinks)
        Sink->trial(Records[NextEmit]);
      ++NextEmit;
    }
  };

  if (Info.Jobs <= 1) {
    for (size_t I = 0; I < Points.size(); ++I)
      RunOne(I);
  } else {
    ThreadPool Pool(Info.Jobs);
    for (size_t I = 0; I < Points.size(); ++I)
      Pool.submit([&RunOne, I] { RunOne(I); });
    Pool.wait();
  }
  assert(NextEmit == Records.size() && "every trial must have been emitted");

  double TotalWall = secondsSince(RunStart);
  for (MetricSink *Sink : Options.Sinks)
    Sink->end(TotalWall);
  return Records;
}
