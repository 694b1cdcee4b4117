//===- exp/ExperimentRunner.cpp ----------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "exp/ExperimentRunner.h"

#include "support/ThreadPool.h"

#include <cassert>
#include <chrono>
#include <future>
#include <mutex>
#include <thread>

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

/// Runs one trial under a wall-clock budget.  The task owns copies of the
/// trial function and point, so an abandoned thread never touches runner
/// state that has since gone out of scope; its result is simply dropped.
TrialResult runWithWatchdog(const Scenario &S, const TrialPoint &P,
                            double TimeoutSeconds, bool &TimedOut) {
  std::packaged_task<TrialResult()> Task(
      [Run = S.Run, P] { return Run(P); });
  std::future<TrialResult> Fut = Task.get_future();
  std::thread Worker(std::move(Task));
  if (Fut.wait_for(std::chrono::duration<double>(TimeoutSeconds)) ==
      std::future_status::ready) {
    Worker.join();
    TimedOut = false;
    return Fut.get();
  }
  Worker.detach();
  TimedOut = true;
  // Sinks render every declared metric per trial, so the synthesized
  // record must carry them all; zero is the honest value for a trial that
  // produced nothing.
  TrialResult R;
  for (const std::string &M : S.Metrics)
    R.set(M, 0.0);
  return R;
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
    TrialResult Result;
    if (Options.TrialTimeoutSeconds > 0.0) {
      bool TimedOut = false;
      Result = runWithWatchdog(S, Points[I], Options.TrialTimeoutSeconds,
                               TimedOut);
      Result.set("timed_out", TimedOut ? 1.0 : 0.0);
    } else {
      Result = S.Run(Points[I]);
    }
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
