//===- tests/ExperimentTest.cpp - scenario engine determinism suite --------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contracts the experiment layer makes to every bench:
///
///   * expansion order is deterministic (first axis slowest, seeds
///     innermost);
///   * same-seed reruns are bit-identical;
///   * a multi-worker sweep produces byte-identical JSON (modulo wall-time
///     fields) to a serial one;
///   * sinks observe trials in expansion order regardless of completion
///     order.
///
/// Trials here run real (small) simulations, so these are end-to-end
/// determinism checks, not mocks.
///
//===----------------------------------------------------------------------===//

#include "exp/ExperimentRunner.h"
#include "grid/Testbed.h"
#include "support/Json.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

using namespace dgsim;
using namespace dgsim::units;

namespace {

/// A real-but-tiny trial: one 32 MB transfer on a seeded PaperTestbed.
exp::TrialResult tinyTransferTrial(const exp::TrialPoint &P) {
  PaperTestbedOptions O;
  O.Seed = P.Seed;
  PaperTestbed T(O);
  T.sim().runUntil(5.0);
  TransferSpec Spec;
  Spec.Source = T.grid().findHost("hit0");
  Spec.Destination = &T.alpha(1);
  Spec.FileBytes = megabytes(32);
  Spec.Protocol = TransferProtocol::GridFtpModeE;
  Spec.Streams = P.param("streams") == "4" ? 4 : 1;
  double Seconds = 0.0;
  T.grid().transfers().submit(
      Spec, [&](const TransferResult &R) { Seconds = R.totalSeconds(); });
  T.sim().run();
  exp::TrialResult Result;
  Result.set("transfer_s", Seconds);
  Result.SpecHash = T.grid().spec().hash();
  return Result;
}

exp::Scenario tinyScenario() {
  exp::Scenario S;
  S.Id = "test-tiny";
  S.Title = "determinism probe";
  S.Axes = {{"streams", {"1", "4"}}};
  S.Seeds = {2005, 2006, 2007};
  S.Metrics = {"transfer_s"};
  S.Run = tinyTransferTrial;
  return S;
}

/// Records the order trial() was observed in.
class OrderProbeSink final : public exp::MetricSink {
public:
  std::vector<size_t> Order;
  void trial(const exp::TrialRecord &R) override {
    Order.push_back(R.Point.Index);
  }
};

} // namespace

TEST(Scenario, ExpansionOrderIsOdometerWithSeedsInnermost) {
  exp::Scenario S;
  S.Axes = {{"a", {"x", "y"}}, {"b", {"1", "2"}}};
  S.Seeds = {10, 11};
  std::vector<exp::TrialPoint> Points = S.expand();
  ASSERT_EQ(Points.size(), 8u);
  EXPECT_EQ(S.trialCount(), 8u);
  // First axis slowest, seeds innermost.
  EXPECT_EQ(Points[0].param("a"), "x");
  EXPECT_EQ(Points[0].param("b"), "1");
  EXPECT_EQ(Points[0].Seed, 10u);
  EXPECT_EQ(Points[1].Seed, 11u);
  EXPECT_EQ(Points[2].param("b"), "2");
  EXPECT_EQ(Points[4].param("a"), "y");
  for (size_t I = 0; I < Points.size(); ++I)
    EXPECT_EQ(Points[I].Index, I);
}

TEST(ExperimentRunner, SameSeedRerunsAreBitIdentical) {
  exp::ExperimentRunner R;
  std::vector<exp::TrialRecord> A = R.run(tinyScenario());
  std::vector<exp::TrialRecord> B = R.run(tinyScenario());
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Result.get("transfer_s"), B[I].Result.get("transfer_s"));
    EXPECT_EQ(A[I].Result.SpecHash, B[I].Result.SpecHash);
  }
}

TEST(ExperimentRunner, ParallelJsonIsByteIdenticalToSerial) {
  exp::Scenario S = tinyScenario();
  std::string SerialDoc, ParallelDoc;
  {
    exp::JsonSink Sink(&SerialDoc, /*IncludeTimings=*/false);
    exp::RunnerOptions O;
    O.Jobs = 1;
    O.Sinks = {&Sink};
    exp::ExperimentRunner().run(S, O);
  }
  {
    exp::JsonSink Sink(&ParallelDoc, /*IncludeTimings=*/false);
    exp::RunnerOptions O;
    O.Jobs = 4;
    O.Sinks = {&Sink};
    exp::ExperimentRunner().run(S, O);
  }
  EXPECT_FALSE(SerialDoc.empty());
  EXPECT_TRUE(json::validate(SerialDoc));
  EXPECT_EQ(SerialDoc, ParallelDoc); // Byte-identical, timings omitted.
}

TEST(ExperimentRunner, SinksObserveExpansionOrderUnderParallelism) {
  // Trials deliberately finish out of order: earlier indexes sleep longer.
  exp::Scenario S;
  S.Id = "test-order";
  S.Axes = {{"k", {"0", "1", "2", "3", "4", "5", "6", "7"}}};
  S.Seeds = {1};
  S.Metrics = {"v"};
  S.Run = [](const exp::TrialPoint &P) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(5 * (8 - P.Index)));
    exp::TrialResult R;
    R.set("v", static_cast<double>(P.Index));
    return R;
  };
  OrderProbeSink Probe;
  exp::RunnerOptions O;
  O.Jobs = 4;
  O.Sinks = {&Probe};
  std::vector<exp::TrialRecord> Records = exp::ExperimentRunner().run(S, O);
  ASSERT_EQ(Probe.Order.size(), 8u);
  for (size_t I = 0; I < 8; ++I) {
    EXPECT_EQ(Probe.Order[I], I);
    EXPECT_EQ(Records[I].Result.get("v"), static_cast<double>(I));
  }
}

TEST(ExperimentRunner, JsonDocumentCarriesProvenance) {
  exp::Scenario S = tinyScenario();
  std::string Doc;
  exp::JsonSink Sink(&Doc);
  exp::RunnerOptions O;
  O.Sinks = {&Sink};
  exp::ExperimentRunner().run(S, O);
  EXPECT_TRUE(json::validate(Doc));
  EXPECT_NE(Doc.find("\"schema\":\"dgsim-bench-v1\""), std::string::npos);
  EXPECT_NE(Doc.find("\"id\":\"test-tiny\""), std::string::npos);
  EXPECT_NE(Doc.find("\"git\":"), std::string::npos);
  EXPECT_NE(Doc.find("\"spec_hash\":"), std::string::npos);
  EXPECT_NE(Doc.find("\"wall_s\":"), std::string::npos);
  EXPECT_NE(Doc.find("\"seed\":2005"), std::string::npos);
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool Pool(4);
  std::atomic<int> Count{0};
  for (int I = 0; I < 100; ++I)
    Pool.submit([&Count] { Count.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Count.load(), 100);
  // The pool is reusable after wait().
  Pool.submit([&Count] { Count.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Count.load(), 101);
}

