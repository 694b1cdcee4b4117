//===- tests/TelemetryTest.cpp - Byzantine telemetry & robust estimation ---===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Locks the Byzantine-telemetry layer (DESIGN.md §15) down:
///
///   * Robust estimation primitives: median/MAD.
///   * The plausibility gate: cold-start admission on faith, median/MAD
///     rejection of implausible jumps, and scale floors for near-constant
///     streams.
///   * Sensor-level corruption: bias, stuck, noise (seeded, deterministic),
///     dropout and clock skew, each depth-counted and reversible.
///   * The transfer-log poison path: seeded heavy-tailed corruption of
///     appends (global and per-path) and append gating.
///   * GridSpec validation of telemetry windows, injector routing and
///     counters through whole-grid runs, the sensor gate keeping a biased
///     probe out of the served forecast, and same-seed runs staying
///     bit-identical with every fault kind firing and both gates enabled.
///
//===----------------------------------------------------------------------===//

#include "fault/FaultInjector.h"
#include "fault/FaultPlan.h"
#include "grid/Testbed.h"
#include "monitor/Robust.h"
#include "monitor/Sensor.h"
#include "monitor/TransferLog.h"
#include "replica/ReplicaManager.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

using namespace dgsim;
using namespace dgsim::units;

namespace {

//===----------------------------------------------------------------------===//
// Robust estimation primitives
//===----------------------------------------------------------------------===//

TEST(RobustStatsTest, MedianAndMadKnownValues) {
  const double Odd[] = {4.0, 1.0, 100.0, 2.0, 3.0};
  RobustStats S = robustStats(Odd, 5);
  EXPECT_DOUBLE_EQ(S.Median, 3.0);
  // Absolute deviations {1, 2, 97, 1, 0} -> median 1.
  EXPECT_DOUBLE_EQ(S.Mad, 1.0);

  const double Even[] = {1.0, 2.0, 3.0, 4.0};
  S = robustStats(Even, 4);
  EXPECT_DOUBLE_EQ(S.Median, 2.5);
  // Deviations {1.5, 0.5, 0.5, 1.5} -> median 1.
  EXPECT_DOUBLE_EQ(S.Mad, 1.0);

  S = robustStats(nullptr, 0);
  EXPECT_DOUBLE_EQ(S.Median, 0.0);
  EXPECT_DOUBLE_EQ(S.Mad, 0.0);
}

//===----------------------------------------------------------------------===//
// Plausibility gate
//===----------------------------------------------------------------------===//

TEST(PlausibilityGateTest, ColdStartAdmitsOnFaith) {
  GateConfig Cfg; // MinSamples 8.
  PlausibilityGate G;
  const double Wild[] = {1.0, 1e9, -40.0, 0.0, 3.0, 7e6, 2.0, 5.0};
  for (double V : Wild)
    EXPECT_TRUE(G.admit(V, Cfg));
  EXPECT_EQ(G.accepted(), 8u);
  EXPECT_EQ(G.rejected(), 0u);
}

TEST(PlausibilityGateTest, RejectsImplausibleJump) {
  GateConfig Cfg;
  Cfg.MinSamples = 4;
  PlausibilityGate G;
  const double Honest[] = {100.0, 101.0, 99.0, 100.5, 99.5, 100.2};
  for (double V : Honest)
    ASSERT_TRUE(G.admit(V, Cfg));

  EXPECT_FALSE(G.admit(10000.0, Cfg));
  EXPECT_FALSE(G.admit(9000.0, Cfg));
  EXPECT_EQ(G.rejected(), 2u);

  // An honest reading re-enters; the rejected lies never joined the
  // window, so the median is still the honest one.
  EXPECT_TRUE(G.admit(100.3, Cfg));
  EXPECT_EQ(G.accepted(), 7u);
}

TEST(PlausibilityGateTest, ScaleFloorsGovernNearConstantStreams) {
  GateConfig Cfg;
  Cfg.MinSamples = 4;
  PlausibilityGate G;
  for (int I = 0; I != 6; ++I)
    ASSERT_TRUE(G.admit(100.0, Cfg));
  // MAD is zero; the relative floor (5% of |median|) keeps the band open:
  // threshold 6 * 5 = +/-30 around 100.
  EXPECT_TRUE(G.admit(120.0, Cfg));
  EXPECT_FALSE(G.admit(200.0, Cfg));

  // An all-zero stream falls to the absolute floor: anything visibly
  // nonzero is implausible, zero itself still passes.
  PlausibilityGate Z;
  for (int I = 0; I != 6; ++I)
    ASSERT_TRUE(Z.admit(0.0, Cfg));
  EXPECT_TRUE(Z.admit(0.0, Cfg));
  EXPECT_FALSE(Z.admit(1.0, Cfg));
}

//===----------------------------------------------------------------------===//
// Sensor-level corruption
//===----------------------------------------------------------------------===//

TEST(SensorFaultTest, BiasScalesAndOffsetsReadings) {
  Simulator Sim(41);
  double Value = 100.0;
  Sensor S(Sim, "bw/a->b", 1.0, [&] { return Value; });
  Sim.runUntil(2.5);
  EXPECT_DOUBLE_EQ(S.lastValue(), 100.0);
  EXPECT_EQ(S.faultState(), nullptr);

  S.faultBegin(FaultKind::SensorBias, 2.0, 5.0, 0);
  Sim.runUntil(4.5);
  EXPECT_DOUBLE_EQ(S.lastValue(), 205.0);

  // Overlapping windows nest; the innermost parameters win.
  S.faultBegin(FaultKind::SensorBias, 3.0, 0.0, 0);
  Sim.runUntil(6.5);
  EXPECT_DOUBLE_EQ(S.lastValue(), 300.0);

  S.faultEnd(FaultKind::SensorBias);
  S.faultEnd(FaultKind::SensorBias);
  Sim.runUntil(8.5);
  EXPECT_DOUBLE_EQ(S.lastValue(), 100.0);
  ASSERT_NE(S.faultState(), nullptr);
  EXPECT_EQ(S.faultState()->BiasDepth, 0);
}

TEST(SensorFaultTest, StuckFreezesLastReadingButKeepsIngesting) {
  Simulator Sim(42);
  double Value = 50.0;
  Sensor S(Sim, "cpu/h", 1.0, [&] { return Value; });
  Sim.runUntil(1.5);
  EXPECT_DOUBLE_EQ(S.lastValue(), 50.0);

  S.faultBegin(FaultKind::SensorStuck, 0.0, 0.0, 0);
  Value = 75.0;
  Sim.runUntil(4.5);
  // The reading is frozen at the pre-fault value...
  EXPECT_DOUBLE_EQ(S.lastValue(), 50.0);
  // ...but samples still ingest (a stuck sensor looks alive), so the
  // sample time keeps moving and staleness does not give it away.
  SimTime Seen = S.lastSampleTime();
  Sim.runUntil(6.5);
  EXPECT_GT(S.lastSampleTime(), Seen);

  S.faultEnd(FaultKind::SensorStuck);
  Sim.runUntil(7.5);
  EXPECT_DOUBLE_EQ(S.lastValue(), 75.0);
}

TEST(SensorFaultTest, DropoutSilencesSamplesAndCountsThem) {
  Simulator Sim(43);
  double Value = 10.0;
  Sensor S(Sim, "io/h", 1.0, [&] { return Value; });
  Sim.runUntil(1.5);
  SimTime LastSample = S.lastSampleTime();

  S.faultBegin(FaultKind::SensorDropout, 0.0, 0.0, 0);
  Sim.runUntil(5.5);
  // Nothing ingested during the dropout, so readings age.
  EXPECT_EQ(S.lastSampleTime(), LastSample);
  ASSERT_NE(S.faultState(), nullptr);
  EXPECT_GE(S.faultState()->Dropped, 3u);

  S.faultEnd(FaultKind::SensorDropout);
  Sim.runUntil(7.5);
  EXPECT_GT(S.lastSampleTime(), LastSample);
}

TEST(SensorFaultTest, NoiseIsSeededAndDeterministic) {
  auto Run = [](uint64_t NoiseSeed) {
    Simulator Sim(44);
    double Value = 100.0;
    Sensor S(Sim, "bw/x->y", 1.0, [&] { return Value; });
    Sim.runUntil(1.5);
    S.faultBegin(FaultKind::SensorNoise, 0.8, 0.0, NoiseSeed);
    std::vector<double> Readings; // The samples at t = 2, 3, ..., 9.
    for (int T = 2; T <= 9; ++T) {
      Sim.runUntil(T + 0.5);
      Readings.push_back(S.lastValue());
    }
    return Readings;
  };
  std::vector<double> A = Run(7), B = Run(7), C = Run(8);
  // Same seed: bit-identical perturbed stream.  Different seed: a
  // different stream.  Either way the noise visibly perturbs readings.
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  bool Perturbed = false;
  for (double V : A)
    Perturbed |= V != 100.0;
  EXPECT_TRUE(Perturbed);
}

TEST(SensorFaultTest, ClockSkewLiesAboutSampleAgeReadSideOnly) {
  Simulator Sim(45);
  double Value = 5.0;
  Sensor S(Sim, "cpu/h", 1.0, [&] { return Value; });
  Sim.runUntil(3.5);
  SimTime Truth = S.lastSampleTime();
  EXPECT_DOUBLE_EQ(S.clockSkew(), 0.0);

  S.faultBegin(FaultKind::ClockSkew, -30.0, 0.0, 0);
  // Only the reported sample time lies.
  EXPECT_DOUBLE_EQ(S.clockSkew(), -30.0);
  EXPECT_DOUBLE_EQ(S.lastSampleTime(), Truth - 30.0);

  S.faultEnd(FaultKind::ClockSkew);
  EXPECT_DOUBLE_EQ(S.lastSampleTime(), Truth);
}

//===----------------------------------------------------------------------===//
// Transfer-log corruption and append gating
//===----------------------------------------------------------------------===//

TransferObservation obsOf(double Mb, double Throughput) {
  TransferObservation O;
  O.FileBytes = megabytes(Mb);
  O.Throughput = Throughput;
  return O;
}

/// The path's log_mean arm: the mean throughput it was trained on.
double logMean(const TransferLog &Log, NodeId Server, NodeId Client) {
  return Log.forecaster(Server, Client)->armPredict(1, megabytes(64.0), 1e8);
}

TEST(TransferLogCorruptTest, GlobalWindowPoisonsAppendsDeterministically) {
  // The path's log_mean prediction after each append.
  auto RunOnePath = [] {
    TransferLog Log;
    std::vector<double> Means;
    auto Append = [&] {
      Log.append(1, 2, obsOf(64.0, 1e8), 1e8);
      Means.push_back(logMean(Log, 1, 2));
    };
    for (int I = 0; I != 5; ++I)
      Append();
    Log.beginCorrupt(/*Seed=*/9001, /*Scale=*/1.5);
    for (int I = 0; I != 5; ++I)
      Append();
    Log.endCorrupt();
    Append();
    EXPECT_EQ(Log.corruptedAppends(), 5u);
    EXPECT_EQ(Log.totalAppends(), 11u);
    return Means;
  };
  std::vector<double> A = RunOnePath(), B = RunOnePath();
  ASSERT_EQ(A.size(), 11u);
  // Same seed -> bit-identical poison.
  EXPECT_EQ(A, B);
  // Honest before the window, dragged off by it.
  EXPECT_EQ(A[4], 1e8);
  EXPECT_NE(A[9], 1e8);
}

TEST(TransferLogCorruptTest, PathScopeLeavesOtherPathsHonest) {
  TransferLog Log;
  Log.beginCorruptPath(1, 2, /*Seed=*/77, /*Scale=*/2.0);
  for (int I = 0; I != 8; ++I) {
    Log.append(1, 2, obsOf(32.0, 1e8), 1e8);
    Log.append(3, 4, obsOf(32.0, 1e8), 1e8);
  }
  Log.endCorruptPath(1, 2);
  EXPECT_NE(logMean(Log, 1, 2), 1e8);
  EXPECT_EQ(logMean(Log, 3, 4), 1e8);
  EXPECT_EQ(Log.corruptedAppends(), 8u);
}

TEST(TransferLogGateTest, ImplausibleAppendsRejectedUntrained) {
  TransferLog Log;
  Log.gateConfig().MinSamples = 3;
  Log.setAppendGate(true);
  for (int I = 0; I != 5; ++I)
    Log.append(1, 2, obsOf(64.0, 1e8), 1e8);
  const TransferForecaster *Fc = Log.forecaster(1, 2);
  ASSERT_NE(Fc, nullptr);
  EXPECT_EQ(Fc->observationCount(), 5u);

  // A 10,000x throughput lie: gated out, never trained on.
  Log.append(1, 2, obsOf(64.0, 1e12), 1e8);
  EXPECT_EQ(Log.rejectedAppends(), 1u);
  EXPECT_EQ(Log.totalAppends(), 5u);
  EXPECT_EQ(Fc->observationCount(), 5u);

  // Honest appends keep flowing afterwards.
  Log.append(1, 2, obsOf(64.0, 1.02e8), 1e8);
  EXPECT_EQ(Fc->observationCount(), 6u);
}

//===----------------------------------------------------------------------===//
// GridSpec validation of telemetry windows
//===----------------------------------------------------------------------===//

bool flagsMessage(const GridSpec &S, const std::string &Needle) {
  for (const std::string &Msg : S.validate())
    if (Msg.find(Needle) != std::string::npos)
      return true;
  return false;
}

GridSpec telemetryBaseSpec(uint64_t Seed) {
  PaperTestbedOptions O;
  O.Seed = Seed;
  O.DynamicLoad = false;
  O.CrossTraffic = false;
  GridSpec Spec = PaperTestbed::spec(O);
  Spec.Files.push_back({"tele-a", megabytes(48), {"alpha4", "hit0"}});
  Spec.Files.push_back({"tele-b", megabytes(24), {"hit1", "lz02"}});
  return Spec;
}

TEST(TelemetrySpecTest, ValidateFlagsBadTelemetryWindows) {
  {
    GridSpec S = telemetryBaseSpec(1);
    S.Faults.sensorBias("lz02", "alpha1", 10.0, 5.0, 0.0);
    EXPECT_TRUE(flagsMessage(S, "non-positive gain"));
  }
  {
    GridSpec S = telemetryBaseSpec(1);
    S.Faults.sensorBias("lz02", "alpha1", 10.0, 5.0, 1.0);
    EXPECT_TRUE(flagsMessage(S, "identity transform"));
  }
  {
    GridSpec S = telemetryBaseSpec(1);
    S.Faults.sensorNoise("", "", 10.0, 5.0, -0.5);
    EXPECT_TRUE(flagsMessage(S, "non-positive noise scale"));
  }
  {
    GridSpec S = telemetryBaseSpec(1);
    S.Faults.clockSkew("", "", 10.0, 5.0, 0.0);
    EXPECT_TRUE(flagsMessage(S, "zero skew"));
  }
  {
    GridSpec S = telemetryBaseSpec(1);
    S.Faults.logCorrupt("hit0", "", 10.0, 5.0, 1.0);
    EXPECT_TRUE(flagsMessage(S, "never host-scoped"));
  }
  {
    GridSpec S = telemetryBaseSpec(1);
    S.Faults.sensorStuck("nosuchhost", "", 10.0, 5.0);
    EXPECT_TRUE(flagsMessage(S, "names no declared host"));
  }
  {
    GridSpec S = telemetryBaseSpec(1);
    S.Faults.sensorDropout("lz02", "nosuchclient", 10.0, 5.0);
    EXPECT_TRUE(flagsMessage(S, "names no declared host"));
  }
  // A well-formed telemetry plan validates clean.
  {
    GridSpec S = telemetryBaseSpec(1);
    S.Faults.sensorBias("lz02", "alpha1", 10.0, 5.0, 3.0);
    S.Faults.sensorNoise("", "", 10.0, 5.0, 0.5);
    S.Faults.clockSkew("hit0", "", 10.0, 5.0, -60.0);
    S.Faults.logCorrupt("", "", 10.0, 5.0, 1.5);
    EXPECT_TRUE(S.validate().empty());
  }
}

//===----------------------------------------------------------------------===//
// Whole-grid integration: routing, counters, gating, cache identity
//===----------------------------------------------------------------------===//

TEST(TelemetryGridTest, InjectorRoutesAllSixKindsAndCountsEdges) {
  GridSpec Spec = telemetryBaseSpec(3001);
  Spec.Faults.sensorBias("lz02", "alpha1", 40.0, 60.0, 3.0); // Path scope.
  Spec.Faults.sensorStuck("hit0", "", 50.0, 60.0);           // Host scope.
  Spec.Faults.sensorNoise("", "", 60.0, 60.0, 0.5);          // Global.
  Spec.Faults.sensorDropout("lz01", "", 70.0, 60.0);         // Host scope.
  Spec.Faults.clockSkew("", "", 80.0, 60.0, -120.0);         // Global.
  Spec.Faults.logCorrupt("", "", 90.0, 60.0, 1.0);           // Global.
  ASSERT_TRUE(Spec.validate().empty());

  std::unique_ptr<DataGrid> G = DataGrid::buildFrom(Spec);
  ASSERT_NE(G->faults(), nullptr);
  EXPECT_EQ(G->faults()->windows().size(), 6u);
  G->sim().runUntil(200.0); // Every window has opened and closed.

  const FaultCounters &C = G->faults()->counters();
  EXPECT_EQ(C.SensorBiases, 1u);
  EXPECT_EQ(C.SensorBiasEnds, 1u);
  EXPECT_EQ(C.SensorStucks, 1u);
  EXPECT_EQ(C.SensorStuckEnds, 1u);
  EXPECT_EQ(C.SensorNoises, 1u);
  EXPECT_EQ(C.SensorNoiseEnds, 1u);
  EXPECT_EQ(C.SensorDropouts, 1u);
  EXPECT_EQ(C.SensorDropoutEnds, 1u);
  EXPECT_EQ(C.ClockSkews, 1u);
  EXPECT_EQ(C.ClockSkewEnds, 1u);
  EXPECT_EQ(C.LogCorrupts, 1u);
  EXPECT_EQ(C.LogCorruptEnds, 1u);
  EXPECT_EQ(C.telemetryFaults(), 6u);
  EXPECT_EQ(C.totalFaults(), 6u);
  // The host-scoped dropout silenced real host-sensor samples, and the
  // service aggregated the drops.
  EXPECT_GE(G->info().droppedSamples(), 3u);
}

TEST(TelemetryGridTest, GateRejectionsKeepBiasOutOfTheForecast) {
  GridSpec Spec = telemetryBaseSpec(3002);
  // A 30x gain on the lz02 -> alpha1 bandwidth path for [100, 180).
  Spec.Faults.sensorBias("lz02", "alpha1", 100.0, 80.0, 30.0);
  std::unique_ptr<DataGrid> G = DataGrid::buildFrom(Spec);
  G->info().gateConfig().MinSamples = 4;
  G->info().setSensorGate(true);

  NodeId Client = G->findHost("alpha1")->node();
  const Host *Server = G->findHost("lz02");
  ASSERT_NE(Server, nullptr);

  G->sim().runUntil(1.0);
  (void)G->info().query(Client, *Server); // Creates the path sensors.

  G->sim().runUntil(95.0); // Healthy: gate trained, nothing rejected.
  SystemFactors Before = G->info().query(Client, *Server);
  EXPECT_EQ(G->info().gateRejections(), 0u);

  G->sim().runUntil(150.0); // Mid-window: biased probes are implausible.
  SystemFactors During = G->info().query(Client, *Server);
  EXPECT_GE(G->info().gateRejections(), 1u);
  // The 30x readings never reached the forecaster: selection still ranks
  // a finite, honest last-known bandwidth.
  EXPECT_TRUE(std::isfinite(During.BwFraction));
  EXPECT_LT(During.PredictedBandwidth, 2.0 * Before.PredictedBandwidth);
}

/// One fetch-journal run of the telemetry chaos grid with both gates
/// enabled.  The journal folds in every robust-pipeline counter, so any
/// divergence — selection, timing, gating, corruption — shows up as a
/// string diff.
std::string runRobustGrid(uint64_t Seed) {
  GridSpec Spec = telemetryBaseSpec(Seed);
  Spec.Faults.sensorBias("lz02", "alpha1", 60.0, 120.0, 8.0);
  Spec.Faults.sensorNoise("", "", 30.0, 300.0, 0.6);
  Spec.Faults.clockSkew("", "", 150.0, 100.0, -45.0);
  Spec.Faults.logCorrupt("", "", 40.0, 250.0, 1.2);

  std::unique_ptr<DataGrid> G = DataGrid::buildFrom(Spec);
  G->info().gateConfig().MinSamples = 4;
  G->info().setSensorGate(true);
  TransferLog &Log = G->enableTransferLog();
  Log.gateConfig().MinSamples = 4;
  Log.setAppendGate(true);

  CostModelPolicy Policy;
  ReplicaSelector Sel(G->catalog(), G->info(), Policy);
  ReplicaManager Mgr(G->catalog(), Sel, G->transfers());

  struct Job {
    const char *Lfn;
    const char *Client;
    SimTime At;
  };
  const Job Jobs[] = {{"tele-a", "lz04", 50.0},  {"tele-b", "alpha1", 90.0},
                      {"tele-a", "hit3", 130.0}, {"tele-b", "lz01", 170.0},
                      {"tele-a", "lz03", 210.0}, {"tele-b", "hit2", 260.0}};
  std::string Journal;
  for (const Job &J : Jobs) {
    G->sim().scheduleAt(J.At, [&, J] {
      FetchOptions FO;
      FO.Streams = 4;
      FO.MaxFailovers = 2;
      FO.Register = false;
      Mgr.fetch(J.Lfn, *G->findHost(J.Client), FO,
                [&, J](const FetchResult &R) {
                  char Line[192];
                  std::snprintf(Line, sizeof(Line),
                                "%s->%s ok=%d src=%s d=%.17g end=%.17g\n",
                                J.Lfn, J.Client, R.Succeeded ? 1 : 0,
                                R.FinalSource ? R.FinalSource->name().c_str()
                                              : "-",
                                R.DeliveredBytes, R.EndTime);
                  Journal += Line;
                });
    });
  }
  G->sim().run();

  char Tail[256];
  std::snprintf(Tail, sizeof(Tail),
                "gate=%llu drop=%llu rej=%llu corr=%llu app=%llu tele=%llu "
                "end=%.17g\n",
                static_cast<unsigned long long>(G->info().gateRejections()),
                static_cast<unsigned long long>(G->info().droppedSamples()),
                static_cast<unsigned long long>(Log.rejectedAppends()),
                static_cast<unsigned long long>(Log.corruptedAppends()),
                static_cast<unsigned long long>(Log.totalAppends()),
                static_cast<unsigned long long>(
                    G->faults()->counters().telemetryFaults()),
                G->sim().now());
  return Journal + Tail;
}

TEST(TelemetryGridTest, SameSeedRunsBitIdenticalUnderTelemetryFaults) {
  // SensorNoise and LogCorrupt draw from forked, window-seeded streams:
  // two same-seed runs must agree bit for bit.
  std::string A = runRobustGrid(4002);
  std::string B = runRobustGrid(4002);
  EXPECT_EQ(A, B);
  // The run actually exercised the pipeline: a fetch resolved and all
  // four telemetry windows opened.
  EXPECT_NE(A.find("ok=1"), std::string::npos);
  EXPECT_NE(A.find("tele=4"), std::string::npos);
}

} // namespace
