//===- tests/PredictionTest.cpp - Log-trained regression predictors -------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transfer-log feedback layer (DESIGN.md §14), bottom up:
///
///   * LeastSquaresAccumulator — closed-form coefficient recovery (exact
///     and noisy with a seeded RNG) and the deterministic degenerate
///     fallback chain: singular normal equations never emit NaN/Inf;
///   * TransferForecaster — partition-bucket boundaries, the postcast
///     scoring convention, the NaN-probe skip, and the minimum-MSE
///     tie-break to the lowest arm id on manufactured exact ties;
///   * TransferLog — per-path observation counts and the unknown-path
///     probe passthrough;
///   * InformationService + TransferLog — a log append moves the
///     prediction of exactly the path it touches, the query hint conditions
///     it, and with no log attached any hint reads the probe forecast (the
///     bit-identity the golden figures depend on);
///   * degraded inputs — all-NaN probe streams, a blackout over an empty
///     gated log, and paths with and without log history side by side.
///
//===----------------------------------------------------------------------===//

#include "host/Host.h"
#include "monitor/InformationService.h"
#include "monitor/RegressionForecaster.h"
#include "monitor/TransferLog.h"
#include "net/FlowNetwork.h"
#include "net/Routing.h"
#include "net/Topology.h"
#include "sim/Simulator.h"
#include "support/Random.h"
#include "support/Units.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

using namespace dgsim;
using namespace dgsim::units;

namespace {

constexpr double NaN = std::numeric_limits<double>::quiet_NaN();

//===----------------------------------------------------------------------===//
// LeastSquaresAccumulator: coefficient recovery
//===----------------------------------------------------------------------===//

TEST(LeastSquares, RecoversExactLine) {
  LeastSquaresAccumulator A;
  for (int X = 0; X < 10; ++X)
    A.add(double(X), 3.0 + 2.0 * double(X));
  PolyCoeffs C = A.fit(1);
  EXPECT_EQ(C.Degree, 1u);
  EXPECT_NEAR(C.C0, 3.0, 1e-9);
  EXPECT_NEAR(C.C1, 2.0, 1e-9);
  EXPECT_NEAR(C.eval(25.0), 53.0, 1e-7); // Extrapolation is the fit.
}

TEST(LeastSquares, RecoversExactQuadratic) {
  LeastSquaresAccumulator A;
  for (int X = 0; X < 10; ++X) {
    double Xd = double(X);
    A.add(Xd, 1.0 + 0.5 * Xd + 0.25 * Xd * Xd);
  }
  PolyCoeffs C = A.fit(2);
  EXPECT_EQ(C.Degree, 2u);
  EXPECT_NEAR(C.C0, 1.0, 1e-8);
  EXPECT_NEAR(C.C1, 0.5, 1e-8);
  EXPECT_NEAR(C.C2, 0.25, 1e-8);
}

TEST(LeastSquares, NoisyLineRecoveredWithinTolerance) {
  RandomEngine Rng(99);
  LeastSquaresAccumulator A;
  for (int I = 0; I < 2000; ++I) {
    double X = Rng.uniform() * 100.0;
    A.add(X, 5.0 + 2.0 * X + Rng.normal(0.0, 1.0));
  }
  PolyCoeffs C = A.fit(1);
  EXPECT_EQ(C.Degree, 1u);
  EXPECT_NEAR(C.C0, 5.0, 0.2);
  EXPECT_NEAR(C.C1, 2.0, 0.01);
}

TEST(LeastSquares, NoisyQuadraticRecoveredWithinTolerance) {
  RandomEngine Rng(7);
  LeastSquaresAccumulator A;
  for (int I = 0; I < 2000; ++I) {
    double X = Rng.uniform() * 10.0;
    A.add(X, 1.0 + 0.5 * X + 0.25 * X * X + Rng.normal(0.0, 0.5));
  }
  PolyCoeffs C = A.fit(2);
  EXPECT_EQ(C.Degree, 2u);
  EXPECT_NEAR(C.C0, 1.0, 0.3);
  EXPECT_NEAR(C.C1, 0.5, 0.15);
  EXPECT_NEAR(C.C2, 0.25, 0.02);
}

//===----------------------------------------------------------------------===//
// LeastSquaresAccumulator: the degenerate fallback chain
//===----------------------------------------------------------------------===//

TEST(LeastSquares, ConstantXFallsBackToMeanAtAnyScale) {
  // The singularity test is relative, so constant x degrades identically
  // whether x is 7 or 1e9 — both collapse to the mean of y.
  for (double X : {7.0, 1e9}) {
    LeastSquaresAccumulator A;
    for (double Y : {10.0, 20.0, 30.0})
      A.add(X, Y);
    for (unsigned Degree : {1u, 2u}) {
      PolyCoeffs C = A.fit(Degree);
      EXPECT_EQ(C.Degree, 0u) << "x=" << X << " degree=" << Degree;
      EXPECT_DOUBLE_EQ(C.C0, 20.0);
    }
  }
}

TEST(LeastSquares, UnderSampledDegradesDeterministically) {
  LeastSquaresAccumulator Empty;
  PolyCoeffs C = Empty.fit(2);
  EXPECT_EQ(C.Degree, 0u);
  EXPECT_DOUBLE_EQ(C.C0, 0.0); // No samples at all: predict 0, not NaN.

  LeastSquaresAccumulator One;
  One.add(2.0, 10.0);
  for (unsigned Degree : {0u, 1u, 2u}) {
    C = One.fit(Degree);
    EXPECT_EQ(C.Degree, 0u);
    EXPECT_DOUBLE_EQ(C.C0, 10.0);
  }

  // Two distinct points: a quadratic request settles for the exact line.
  LeastSquaresAccumulator Two;
  Two.add(1.0, 4.0);
  Two.add(3.0, 8.0);
  C = Two.fit(2);
  EXPECT_EQ(C.Degree, 1u);
  EXPECT_NEAR(C.C0, 2.0, 1e-9);
  EXPECT_NEAR(C.C1, 2.0, 1e-9);
}

TEST(LeastSquares, OverflowedSumsNeverLeakNonFinite) {
  // x^4 power sums overflow to infinity here; the fit must degrade down
  // the chain (the infinite determinants are "negligible" by the relative
  // test or rejected by the finiteness check) and land on the mean.
  LeastSquaresAccumulator A;
  A.add(1e160, 1.0);
  A.add(2e160, 2.0);
  A.add(3e160, 3.0);
  PolyCoeffs C = A.fit(2);
  EXPECT_TRUE(std::isfinite(C.C0));
  EXPECT_TRUE(std::isfinite(C.C1));
  EXPECT_TRUE(std::isfinite(C.C2));
  EXPECT_EQ(C.Degree, 0u);
  EXPECT_DOUBLE_EQ(C.C0, 2.0);
  EXPECT_TRUE(std::isfinite(C.eval(1e160)));
}

//===----------------------------------------------------------------------===//
// TransferForecaster: scoring, tie-breaks, partitions
//===----------------------------------------------------------------------===//

TransferObservation obs(double Mb, double Throughput) {
  TransferObservation O;
  O.FileBytes = Mb * 1024.0 * 1024.0;
  O.Throughput = Throughput;
  return O;
}

TEST(TransferForecaster, FirstObservationTrainsOnly) {
  TransferForecaster F;
  F.observe(obs(4.0, 1e8), 9e7);
  for (size_t I = 0; I != TransferForecaster::ArmCount; ++I)
    EXPECT_EQ(F.armScored(I), 0u) << TransferForecaster::armName(I);
  EXPECT_EQ(F.bestArm(), 0u);
  // Unscored meta trusts the probe verbatim.
  EXPECT_DOUBLE_EQ(F.predict(megabytes(4), 1.25e8), 1.25e8);
}

TEST(TransferForecaster, ExactTieResolvesToLowestArmId) {
  // A constant observation stream with the probe pinned to the same value
  // manufactures an exact all-arms tie: every arm predicts the constant
  // bit-for-bit (the log arms all degrade to the same mean), so every MSE
  // is exactly 0 and the strict < scan keeps arm 0.
  TransferForecaster F;
  for (int I = 0; I < 5; ++I)
    F.observe(obs(4.0, 1e8), 1e8);
  for (size_t I = 0; I != TransferForecaster::ArmCount; ++I) {
    EXPECT_EQ(F.armScored(I), 4u);
    EXPECT_DOUBLE_EQ(F.armMse(I), 0.0);
  }
  EXPECT_EQ(F.bestArm(), 0u);
}

TEST(TransferForecaster, NanProbeSkipsArmZeroScoring) {
  // No probe sensor: arm 0 must neither be scored nor poisoned, and the
  // tie among the (all-perfect) log arms goes to the lowest id, log_mean.
  TransferForecaster F;
  for (int I = 0; I < 5; ++I)
    F.observe(obs(4.0, 1e8), NaN);
  EXPECT_EQ(F.armScored(0), 0u);
  EXPECT_DOUBLE_EQ(F.armMse(0), 0.0);
  for (size_t I = 1; I != TransferForecaster::ArmCount; ++I)
    EXPECT_EQ(F.armScored(I), 4u);
  EXPECT_EQ(F.bestArm(), 1u);
  // The meta-prediction now ignores the probe entirely.
  EXPECT_DOUBLE_EQ(F.predict(megabytes(4), NaN), 1e8);
}

TEST(TransferForecaster, LinearTrendBeatsMisleadingProbe) {
  // Throughput exactly linear in file size, probe constantly wrong: a
  // regression arm must win the meta-selection and extrapolate the line.
  TransferForecaster F;
  for (double Mb : {1.0, 2.0, 3.0, 4.0, 5.0})
    F.observe(obs(Mb, 1e6 * Mb), 1e7);
  EXPECT_GE(F.bestArm(), 1u); // Not the probe.
  EXPECT_GT(F.armMse(0), F.armMse(2));
  EXPECT_GT(F.armMse(1), F.armMse(2)); // The mean cannot track a trend.
  EXPECT_NEAR(F.predict(megabytes(8), 1e7), 8e6, 8e6 * 0.01);
}

TEST(TransferForecaster, SizePartitionConditionsOnSizeClass) {
  // Two well-separated size classes with different constant throughputs.
  TransferForecaster F;
  for (int I = 0; I < 3; ++I) {
    F.observe(obs(0.5, 1e8), NaN); // Bucket (0, 1] MB.
    F.observe(obs(3.0, 4e8), NaN); // Bucket (2, 4] MB.
  }
  // Within a class the x values are constant, so the per-bucket fit falls
  // back to the bucket mean — the class's throughput, not the global mix.
  EXPECT_DOUBLE_EQ(F.armPredict(4, megabytes(0.5), NaN), 1e8);
  EXPECT_DOUBLE_EQ(F.armPredict(4, megabytes(3.5), NaN), 4e8);
  // Bucket edges are inclusive on the right: exactly 1 MB is still the
  // small class; a hair above crosses into (1, 2] MB, which is empty and
  // falls back to the global mean.
  EXPECT_DOUBLE_EQ(F.armPredict(4, megabytes(1.0), NaN), 1e8);
  EXPECT_DOUBLE_EQ(F.armPredict(4, megabytes(1.0) * 1.01, NaN), 2.5e8);
  // A far-away empty bucket falls back to the global mean too.
  EXPECT_DOUBLE_EQ(F.armPredict(4, megabytes(20.0), NaN), 2.5e8);
}

TEST(TransferForecaster, NegativeExtrapolationClampsToZero) {
  // A steeply falling line goes negative past the sample range; a
  // negative throughput prediction is meaningless and must clamp.
  TransferForecaster F;
  F.observe(obs(1.0, 2e6), NaN);
  F.observe(obs(2.0, 1e6), NaN);
  EXPECT_DOUBLE_EQ(F.armPredict(2, megabytes(100), NaN), 0.0);
}

//===----------------------------------------------------------------------===//
// TransferLog: per-path observations, passthrough
//===----------------------------------------------------------------------===//

TEST(TransferLog, ObservationsCountPerPathIndependently) {
  TransferLog Log;
  EXPECT_EQ(Log.forecaster(1, 2), nullptr); // Never appended.
  for (int I = 0; I < 3; ++I)
    Log.append(1, 2, obs(4.0, 1e8), NaN);
  ASSERT_NE(Log.forecaster(1, 2), nullptr);
  EXPECT_EQ(Log.forecaster(1, 2)->observationCount(), 3u);
  EXPECT_EQ(Log.forecaster(2, 1), nullptr); // Directional: the reverse path.
  EXPECT_EQ(Log.forecaster(3, 4), nullptr);
  Log.append(3, 4, obs(4.0, 1e8), NaN);
  ASSERT_NE(Log.forecaster(3, 4), nullptr);
  EXPECT_EQ(Log.forecaster(3, 4)->observationCount(), 1u);
  // Untouched by the other path.
  EXPECT_EQ(Log.forecaster(1, 2)->observationCount(), 3u);
  EXPECT_EQ(Log.totalAppends(), 4u);
  EXPECT_EQ(Log.pathCount(), 2u);
}

TEST(TransferLog, UnknownPathForwardsProbeForecast) {
  TransferLog Log;
  EXPECT_DOUBLE_EQ(Log.predict(5, 6, megabytes(16), 1.25e8), 1.25e8);
  EXPECT_EQ(Log.forecaster(5, 6), nullptr);
}

//===----------------------------------------------------------------------===//
// InformationService + TransferLog: log-refined queries
//===----------------------------------------------------------------------===//

struct LogRefinedQueryFixture : ::testing::Test {
  Simulator Sim{17};
  Topology Topo;
  NodeId Client, NodeA, NodeB;
  std::unique_ptr<Routing> Router;
  std::unique_ptr<FlowNetwork> Net;
  std::unique_ptr<Host> HostA, HostB;
  TransferLog Log;
  std::unique_ptr<InformationService> Info;

  void SetUp() override {
    Client = Topo.addNode("client");
    NodeA = Topo.addNode("server-a");
    NodeB = Topo.addNode("server-b");
    Topo.addLink(Client, NodeA, mbps(100), milliseconds(5), 0.0001);
    Topo.addLink(Client, NodeB, mbps(100), milliseconds(5), 0.0001);
    Router = std::make_unique<Routing>(Topo);
    Net = std::make_unique<FlowNetwork>(Sim, Topo, *Router);

    HostConfig HC;
    HC.Name = "server-a";
    HC.Cpu.Volatility = 0.0;
    HC.DiskCfg.Background.Volatility = 0.0;
    HostA = std::make_unique<Host>(Sim, HC, NodeA);
    HostConfig HC2 = HC;
    HC2.Name = "server-b";
    HostB = std::make_unique<Host>(Sim, HC2, NodeB);

    Info = std::make_unique<InformationService>(Sim, *Net);
    Info->registerHost(*HostA);
    Info->registerHost(*HostB);
    Info->setTransferLog(&Log);
  }
};

TEST_F(LogRefinedQueryFixture, AppendMovesOnlyThatPathsPrediction) {
  Info->setQueryHint(megabytes(8));
  SystemFactors A0 = Info->query(Client, *HostA);
  SystemFactors B0 = Info->query(Client, *HostB);

  // Appends on the A path with the probe arm pinned wrong: log_mean's
  // postcast error is 0, so a log arm wins A's meta-selection.  Only the
  // A path's prediction moves; B's reads bit for bit as before.
  for (int I = 0; I < 4; ++I)
    Log.append(NodeA, Client, obs(8.0, 2e7), 9e7);
  SystemFactors A1 = Info->query(Client, *HostA);
  SystemFactors B1 = Info->query(Client, *HostB);
  EXPECT_NE(A1.PredictedBandwidth, A0.PredictedBandwidth);
  EXPECT_DOUBLE_EQ(A1.PredictedBandwidth, 2e7);
  EXPECT_EQ(B1.PredictedBandwidth, B0.PredictedBandwidth);
}

TEST_F(LogRefinedQueryFixture, QueryHintPicksSizeDependentPrediction) {
  // A size-dependent arm wins: throughput exactly linear in file size,
  // probe constantly wrong.  The log-trained predictors condition on the
  // hint, so two prospective transfers get two predictions.
  for (double Mb : {1.0, 2.0, 3.0, 4.0, 5.0})
    Log.append(NodeA, Client, obs(Mb, 1e6 * Mb), 1e7);
  Info->setQueryHint(megabytes(2));
  SystemFactors Small = Info->query(Client, *HostA);
  Info->setQueryHint(megabytes(8));
  SystemFactors Large = Info->query(Client, *HostA);
  EXPECT_NEAR(Small.PredictedBandwidth, 2e6, 2e6 * 0.01);
  EXPECT_NEAR(Large.PredictedBandwidth, 8e6, 8e6 * 0.01);
}

TEST_F(LogRefinedQueryFixture, NoLogAttachedIgnoresHints) {
  // Detached, the service is the historical probe-only pipeline: whatever
  // the hint, a query reads the sensor's forecast, even on a path whose
  // log would have won (bit-identity with the goldens).
  for (int I = 0; I < 4; ++I)
    Log.append(NodeA, Client, obs(8.0, 2e7), 9e7);
  Info->setTransferLog(nullptr);
  for (double Mb : {8.0, 16.0, 32.0}) {
    Info->setQueryHint(megabytes(Mb));
    SystemFactors F = Info->query(Client, *HostA);
    EXPECT_EQ(F.PredictedBandwidth,
              Info->bandwidthSensor(Client, NodeA)->forecast());
  }
}

//===----------------------------------------------------------------------===//
// Degraded inputs: blackouts, partial logs, all-NaN probes (DESIGN.md §15)
//===----------------------------------------------------------------------===//

TEST(TransferForecasterDegraded, AllNanProbeStreamNeverScoresArmZero) {
  // A path whose bandwidth sensor never materialises: every probe
  // forecast is NaN.  Arm 0 must stay unscored (not poisoned), the log
  // arms take over, and the meta-prediction stays finite.
  TransferForecaster F;
  for (int I = 0; I != 6; ++I)
    F.observe(obs(8.0, 1e8), NaN);
  EXPECT_EQ(F.armScored(0), 0u);
  EXPECT_NE(F.bestArm(), 0u);
  double P = F.predict(megabytes(8), NaN);
  EXPECT_TRUE(std::isfinite(P));
  EXPECT_DOUBLE_EQ(P, 1e8);
}

TEST_F(LogRefinedQueryFixture, BlackoutWithEmptyLogAnswersFromLastKnown) {
  // Append gate armed on a log that never sees an append, then a
  // monitoring blackout: queries must keep answering from last-known
  // data, whose age the path sensor's last sample time shows — never
  // throw, never serve NaN.
  Log.setAppendGate(true);
  Info->setQueryHint(megabytes(8));
  (void)Info->query(Client, *HostA);

  Sim.runUntil(30.0);
  Info->setBlackout(true);
  Sim.runUntil(120.0);
  ASSERT_TRUE(Info->blackout());
  SystemFactors F = Info->query(Client, *HostA);
  EXPECT_TRUE(std::isfinite(F.PredictedBandwidth));
  EXPECT_TRUE(std::isfinite(F.BwFraction));
  const Sensor *Bw = Info->bandwidthSensor(Client, HostA->node());
  ASSERT_NE(Bw, nullptr);
  // Staleness is visible, not hidden.
  EXPECT_GT(Sim.now() - Bw->lastSampleTime(), 60.0);
  EXPECT_EQ(Log.totalAppends(), 0u);
  EXPECT_EQ(Log.rejectedAppends(), 0u);

  Info->setBlackout(false);
  Sim.runUntil(150.0);
  (void)Info->query(Client, *HostA);
  // Sampling resumed: the age is back within one probe period.
  EXPECT_LE(Sim.now() - Bw->lastSampleTime(), 10.0);
}

TEST_F(LogRefinedQueryFixture, PartialPerPathLogsServeMixedPipelines) {
  // Path A trained, path B never appended: one query batch serves A the
  // log-refined prediction and B the raw probe, and repeated queries
  // reproduce both bit for bit (no cross-path bleed).
  Log.setAppendGate(true);
  for (int I = 0; I != 4; ++I)
    Log.append(NodeA, Client, obs(8.0, 2e7), 9e7);
  Info->setQueryHint(megabytes(8));
  SystemFactors FA = Info->query(Client, *HostA);
  SystemFactors FB = Info->query(Client, *HostB);
  EXPECT_DOUBLE_EQ(FA.PredictedBandwidth, 2e7);
  EXPECT_NE(FB.PredictedBandwidth, 2e7);
  EXPECT_TRUE(std::isfinite(FB.PredictedBandwidth));

  SystemFactors FA2 = Info->query(Client, *HostA);
  SystemFactors FB2 = Info->query(Client, *HostB);
  EXPECT_EQ(FA2.PredictedBandwidth, FA.PredictedBandwidth);
  EXPECT_EQ(FB2.PredictedBandwidth, FB.PredictedBandwidth);
}

TEST_F(LogRefinedQueryFixture, LogRefinementFlowsIntoPredictedBandwidth) {
  // Train the A path on a constant achieved throughput with the probe arm
  // pinned wrong: log_mean's postcast error is 0, the probe's is not, so
  // the meta-selector switches and the query serves the log's number.
  for (int I = 0; I < 4; ++I)
    Log.append(NodeA, Client, obs(8.0, 2e7), 9e7);
  Info->setQueryHint(megabytes(8));
  SystemFactors F = Info->query(Client, *HostA);
  EXPECT_DOUBLE_EQ(F.PredictedBandwidth, 2e7);
  // ClientAccess denominator: the client's fastest access link.
  EXPECT_NEAR(F.BwFraction, 2e7 / mbps(100), 1e-12);
  // The untrained B path still answers from its probe alone.
  SystemFactors FB = Info->query(Client, *HostB);
  EXPECT_NE(FB.PredictedBandwidth, 2e7);
}

} // namespace
