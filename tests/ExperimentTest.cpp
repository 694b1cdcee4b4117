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
///   * records come back in expansion order regardless of completion
///     order.
///
/// Trials here run real (small) simulations, so these are end-to-end
/// determinism checks, not mocks.
///
//===----------------------------------------------------------------------===//

#include "exp/BenchJson.h"
#include "grid/Testbed.h"
#include "support/Json.h"

#include <gtest/gtest.h>

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
  std::vector<exp::TrialRecord> A = exp::runTrials(tinyScenario(), 1);
  std::vector<exp::TrialRecord> B = exp::runTrials(tinyScenario(), 1);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Result.get("transfer_s"), B[I].Result.get("transfer_s"));
    EXPECT_EQ(A[I].Result.SpecHash, B[I].Result.SpecHash);
  }
}

TEST(ExperimentRunner, ParallelJsonIsByteIdenticalToSerial) {
  exp::Scenario S = tinyScenario();
  exp::JsonRun Untimed;
  Untimed.IncludeTimings = false;
  std::string SerialDoc = exp::benchJson(S, exp::runTrials(S, 1), Untimed);
  std::string ParallelDoc = exp::benchJson(S, exp::runTrials(S, 4), Untimed);
  EXPECT_TRUE(json::validate(SerialDoc));
  EXPECT_EQ(SerialDoc, ParallelDoc); // Byte-identical, timings omitted.
}

TEST(ExperimentRunner, RecordsComeBackInExpansionOrderUnderParallelism) {
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
  std::vector<exp::TrialRecord> Records = exp::runTrials(S, 4);
  ASSERT_EQ(Records.size(), 8u);
  for (size_t I = 0; I < 8; ++I) {
    EXPECT_EQ(Records[I].Point.Index, I);
    EXPECT_EQ(Records[I].Point.param("k"), std::to_string(I));
    EXPECT_EQ(Records[I].Result.get("v"), static_cast<double>(I));
  }
}

TEST(ExperimentRunner, JsonDocumentCarriesProvenance) {
  exp::Scenario S = tinyScenario();
  std::string Doc = exp::benchJson(S, exp::runTrials(S, 1), exp::JsonRun());
  EXPECT_TRUE(json::validate(Doc));
  EXPECT_NE(Doc.find("\"schema\":\"dgsim-bench-v1\""), std::string::npos);
  EXPECT_NE(Doc.find("\"id\":\"test-tiny\""), std::string::npos);
  EXPECT_NE(Doc.find("\"git\":"), std::string::npos);
  EXPECT_NE(Doc.find("\"spec_hash\":"), std::string::npos);
  EXPECT_NE(Doc.find("\"wall_s\":"), std::string::npos);
  EXPECT_NE(Doc.find("\"seed\":2005"), std::string::npos);
}
