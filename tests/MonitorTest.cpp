//===- tests/MonitorTest.cpp - Unit tests for the monitoring layer --------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "grid/Testbed.h"
#include "monitor/Forecaster.h"
#include "monitor/InformationService.h"
#include "monitor/Sensor.h"
#include "monitor/Sysstat.h"
#include "net/CrossTraffic.h"
#include "support/Json.h"
#include "support/Statistics.h"
#include "support/Units.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

using namespace dgsim;
using namespace dgsim::units;

//===----------------------------------------------------------------------===//
// Individual forecasters
//===----------------------------------------------------------------------===//

TEST(Forecaster, LastValue) {
  LastValueForecaster F;
  EXPECT_DOUBLE_EQ(F.predict(), 0.0);
  F.observe(3.0);
  F.observe(7.0);
  EXPECT_DOUBLE_EQ(F.predict(), 7.0);
}

TEST(Forecaster, RunningMean) {
  RunningMeanForecaster F;
  for (double X : {2.0, 4.0, 6.0})
    F.observe(X);
  EXPECT_DOUBLE_EQ(F.predict(), 4.0);
}

TEST(Forecaster, SlidingMeanWindow) {
  // The battery keeps the window; sw_mean(5) is member 2.
  NwsForecaster F;
  EXPECT_STREQ(NwsForecaster::memberName(2), "sw_mean(5)");
  for (double X : {1.0, 2.0, 3.0})
    F.observe(X);
  EXPECT_DOUBLE_EQ(F.memberPredict(2), 2.0); // Filling: mean(1,2,3).
  for (double X : {4.0, 5.0, 6.0, 7.0})
    F.observe(X);
  EXPECT_DOUBLE_EQ(F.memberPredict(2), 5.0); // mean(3,4,5,6,7)
  EXPECT_DOUBLE_EQ(F.memberPredict(5), 4.0); // sw_mean(40): mean(1..7)
}

TEST(Forecaster, SlidingMedianOddEven) {
  // sw_median(5) is member 6; the battery hands it each expiring value.
  NwsForecaster F;
  EXPECT_STREQ(NwsForecaster::memberName(6), "sw_median(5)");
  F.observe(10.0);
  EXPECT_DOUBLE_EQ(F.memberPredict(6), 10.0);
  F.observe(2.0);
  EXPECT_DOUBLE_EQ(F.memberPredict(6), 6.0); // even window
  F.observe(8.0);
  EXPECT_DOUBLE_EQ(F.memberPredict(6), 8.0); // median(10,2,8)
  F.observe(100.0);
  F.observe(4.0); // window now 10,2,8,100,4
  EXPECT_DOUBLE_EQ(F.memberPredict(6), 8.0);
  F.observe(1.0); // 10 leaves: 2,8,100,4,1
  EXPECT_DOUBLE_EQ(F.memberPredict(6), 4.0);
  F.observe(9.0); // 2 leaves: 8,100,4,1,9
  EXPECT_DOUBLE_EQ(F.memberPredict(6), 8.0);
}

TEST(Forecaster, ExponentialSmoothing) {
  ExponentialSmoothingForecaster F(0.5);
  F.observe(10.0); // Initialises to the first value.
  EXPECT_DOUBLE_EQ(F.predict(), 10.0);
  F.observe(20.0);
  EXPECT_DOUBLE_EQ(F.predict(), 15.0);
  F.observe(20.0);
  EXPECT_DOUBLE_EQ(F.predict(), 17.5);
}

//===----------------------------------------------------------------------===//
// NWS adaptive meta-forecaster
//===----------------------------------------------------------------------===//

TEST(NwsForecaster, ConstantSeriesIsPredictedExactly) {
  NwsForecaster F;
  for (int I = 0; I < 50; ++I)
    F.observe(42.0);
  EXPECT_DOUBLE_EQ(F.predict(), 42.0);
  EXPECT_DOUBLE_EQ(F.memberMse(0), 0.0);
}

TEST(NwsForecaster, TracksLevelShift) {
  NwsForecaster F;
  for (int I = 0; I < 100; ++I)
    F.observe(10.0);
  for (int I = 0; I < 100; ++I)
    F.observe(50.0);
  // After a long stretch at the new level the forecast must approach it.
  EXPECT_NEAR(F.predict(), 50.0, 5.0);
}

TEST(NwsForecaster, AdaptiveBeatsWorstMember) {
  // Noisy series around a drifting level: the winner must be at least as
  // good as the median member, by construction of min-MSE selection.
  RandomEngine Rng(5);
  NwsForecaster F;
  std::vector<double> Predicted, Actual;
  double Level = 100.0;
  for (int I = 0; I < 500; ++I) {
    Level += Rng.normal(0.0, 1.0);
    double X = Level + Rng.normal(0.0, 5.0);
    if (I > 10) {
      Predicted.push_back(F.predict());
      Actual.push_back(X);
    }
    F.observe(X);
  }
  double AdaptiveMse = stats::meanSquaredError(Predicted, Actual);
  double WorstMemberMse = 0.0;
  for (size_t I = 0; I < F.memberCount(); ++I)
    WorstMemberMse = std::max(WorstMemberMse, F.memberMse(I));
  EXPECT_LT(AdaptiveMse, WorstMemberMse);
}

TEST(NwsForecaster, BestMemberNameIsFromBattery) {
  NwsForecaster F;
  RandomEngine Rng(6);
  for (int I = 0; I < 100; ++I)
    F.observe(Rng.uniform(0, 10));
  std::string Best = F.bestMemberName();
  bool Found = false;
  for (size_t I = 0; I < F.memberCount(); ++I)
    Found |= (F.memberMse(I) >= 0.0);
  EXPECT_TRUE(Found);
  EXPECT_FALSE(Best.empty());
  EXPECT_EQ(F.observationCount(), 100u);
}

TEST(NwsForecaster, BatteryDigestIsPinned) {
  // Every member prediction and MSE, bit for bit, after each of 240
  // observations: a level shift fills and wraps every window, and
  // half-unit rounding repeats values so the medians see ties.
  RandomEngine Rng(2005);
  NwsForecaster F;
  std::string Text;
  char Buf[32];
  auto Put = [&](double V) {
    std::snprintf(Buf, sizeof(Buf), "%.17g ", V);
    Text += Buf;
  };
  for (int I = 0; I != 240; ++I) {
    double Level = I < 120 ? 10.0 : 50.0;
    F.observe(std::round(2.0 * (Level + Rng.normal(0.0, 3.0))) / 2.0);
    Put(F.predict());
    for (size_t M = 0; M != F.memberCount(); ++M) {
      Put(F.memberPredict(M));
      Put(F.memberMse(M));
    }
  }
  char Hex[20];
  std::snprintf(Hex, sizeof(Hex), "%016llx",
                static_cast<unsigned long long>(fnv1a(Text)));
  EXPECT_EQ(std::string(Hex), "0d85d1368a6662a0");
  EXPECT_EQ(std::string(F.bestMemberName()), "exp_smooth(0.75)");
}

//===----------------------------------------------------------------------===//
// Sensor
//===----------------------------------------------------------------------===//

TEST(Sensor, SamplesPeriodically) {
  Simulator Sim(1);
  double Value = 5.0;
  Sensor S(Sim, "test", 2.0, [&] { return Value; });
  Sim.runUntil(7.0); // Ticks at 0, 2, 4, 6.
  EXPECT_EQ(S.forecaster().observationCount(), 4u);
  EXPECT_DOUBLE_EQ(S.lastValue(), 5.0);
  EXPECT_DOUBLE_EQ(S.lastSampleTime(), 6.0);
}

TEST(Sensor, ForecastFollowsMeasurements) {
  Simulator Sim(2);
  double Value = 10.0;
  Sensor S(Sim, "test", 1.0, [&] { return Value; });
  Sim.runUntil(50.0);
  EXPECT_NEAR(S.forecast(), 10.0, 1e-9);
}

//===----------------------------------------------------------------------===//
// InformationService
//===----------------------------------------------------------------------===//

namespace {

struct InfoFixture : ::testing::Test {
  Simulator Sim{11};
  Topology Topo;
  NodeId Client, Server;
  std::unique_ptr<Routing> Router;
  std::unique_ptr<FlowNetwork> Net;
  std::unique_ptr<Host> ServerHost;
  std::unique_ptr<InformationService> Info;

  void SetUp() override {
    Client = Topo.addNode("client");
    Server = Topo.addNode("server");
    Topo.addLink(Client, Server, mbps(100), milliseconds(5), 0.0001);
    Router = std::make_unique<Routing>(Topo);
    Net = std::make_unique<FlowNetwork>(Sim, Topo, *Router);

    HostConfig HC;
    HC.Name = "server";
    HC.Cpu.MeanLoad = 0.2;
    HC.Cpu.Volatility = 0.0;
    HC.DiskCfg.Background.MeanLoad = 0.3;
    HC.DiskCfg.Background.Volatility = 0.0;
    ServerHost = std::make_unique<Host>(Sim, HC, Server);
    Info = std::make_unique<InformationService>(Sim, *Net);
    Info->registerHost(*ServerHost);
  }
};

} // namespace

TEST_F(InfoFixture, QueryReportsAllThreeFactors) {
  Sim.runUntil(30.0);
  SystemFactors F = Info->query(Client, *ServerHost);
  EXPECT_NEAR(F.CpuIdle, 0.8, 0.01);
  EXPECT_NEAR(F.IoIdle, 0.7, 0.01);
  EXPECT_GT(F.BwFraction, 0.0);
  EXPECT_LE(F.BwFraction, 1.0);
  EXPECT_DOUBLE_EQ(F.TheoreticalBandwidth, mbps(100));
  EXPECT_GT(F.PredictedBandwidth, 0.0);
}

TEST_F(InfoFixture, BwFractionDropsUnderContention) {
  SystemFactors Quiet = Info->query(Client, *ServerHost);
  // Saturate the server->client direction with background flows.
  FlowOptions Opt;
  Opt.Streams = 16;
  Net->startFlow(Server, Client, gigabytes(100), Opt, nullptr);
  Sim.runUntil(60.0); // Let the sensors observe the congestion.
  SystemFactors Busy = Info->query(Client, *ServerHost);
  EXPECT_LT(Busy.BwFraction, Quiet.BwFraction);
}

TEST_F(InfoFixture, LocalCandidateGetsFullBwFraction) {
  HostConfig HC;
  HC.Name = "client-local";
  HC.Cpu.Volatility = 0.0;
  HC.DiskCfg.Background.Volatility = 0.0;
  Host LocalHost(Sim, HC, Client);
  Info->registerHost(LocalHost);
  SystemFactors F = Info->query(Client, LocalHost);
  EXPECT_DOUBLE_EQ(F.BwFraction, 1.0);
}

TEST_F(InfoFixture, PerPathNormalizationInflatesSlowLinks) {
  // A second candidate behind a slow-but-saturable link.  Under the
  // literal per-path reading its BwFraction can exceed the fast path's;
  // under the default client-access reading it cannot.
  NodeId SlowNode = Topo.addNode("slow-server");
  NodeId FastNode = Topo.addNode("fast-server");
  Topo.addLink(Client, SlowNode, mbps(10), milliseconds(5));
  // Gigabit path a 4-stream 64 KiB-window probe cannot fill at this RTT.
  Topo.addLink(Client, FastNode, gbps(1), milliseconds(5));
  Routing Router2(Topo);
  FlowNetwork Net2(Sim, Topo, Router2);
  HostConfig HC;
  HC.Name = "slow-server";
  HC.Cpu.Volatility = 0.0;
  HC.DiskCfg.Background.Volatility = 0.0;
  Host SlowHost(Sim, HC, SlowNode);
  HostConfig HC2 = HC;
  HC2.Name = "fast-server";
  Host FastHost(Sim, HC2, FastNode);

  InformationServiceConfig PerPath;
  PerPath.Normalization = BwNormalization::PerPath;
  InformationService InfoPerPath(Sim, Net2, PerPath);
  InformationService InfoClient(Sim, Net2); // ClientAccess default.
  for (InformationService *I : {&InfoPerPath, &InfoClient}) {
    I->registerHost(SlowHost);
    I->registerHost(FastHost);
  }
  SystemFactors PpSlow = InfoPerPath.query(Client, SlowHost);
  SystemFactors PpFast = InfoPerPath.query(Client, FastHost);
  SystemFactors CaSlow = InfoClient.query(Client, SlowHost);
  SystemFactors CaFast = InfoClient.query(Client, FastHost);
  // Per-path: the 10 Mb/s link saturates, the 100 Mb/s one does not.
  EXPECT_GT(PpSlow.BwFraction, PpFast.BwFraction);
  // Client-access: fractions are monotone in deliverable bandwidth.
  EXPECT_LT(CaSlow.BwFraction, CaFast.BwFraction);
  EXPECT_GT(CaFast.PredictedBandwidth, CaSlow.PredictedBandwidth);
}

TEST_F(InfoFixture, SensorsHaveStaleness) {
  // Between samples, readings do not change even if the world does.
  Sim.runUntil(11.0);
  const Sensor *Bw = Info->bandwidthSensor(Client, Server);
  // Create the sensor if the query hasn't run yet.
  Info->query(Client, *ServerHost);
  Bw = Info->bandwidthSensor(Client, Server);
  ASSERT_NE(Bw, nullptr);
  double T = Bw->lastSampleTime();
  EXPECT_LE(T, Sim.now());
  EXPECT_GE(T, Sim.now() - 10.0 - 1e-9); // Period is 10 s.
}

TEST_F(InfoFixture, NameserverSeesAllSensors) {
  // The service is the sensor registry: its path table holds each
  // watched (client, server) pair's bandwidth sensor, its host table each
  // registered host's CPU and I/O sensors, and every sensor is primed at
  // creation.
  EXPECT_EQ(Info->pathSensorCount(), 0u);
  EXPECT_EQ(Info->bandwidthSensor(Client, Server), nullptr);
  Info->query(Client, *ServerHost);
  EXPECT_EQ(Info->pathSensorCount(), 1u);
  const Sensor *Bw = Info->bandwidthSensor(Client, Server);
  ASSERT_NE(Bw, nullptr);
  EXPECT_EQ(Bw->forecaster().observationCount(), 1u);
  // Paths are directed: the reverse pair was never watched.
  EXPECT_EQ(Info->bandwidthSensor(Server, Client), nullptr);
  EXPECT_NEAR(Info->cpuIdle(*ServerHost), 0.8, 1e-9);
  EXPECT_NEAR(Info->ioIdle(*ServerHost), 0.7, 1e-9);
}

TEST(PathProbe, OneSolvePerBandwidthSample) {
  // A watched path costs the network one probe solve per sample: the
  // bandwidth sensor is the only thing that probes it.
  PaperTestbed T;
  T.sim().runUntil(1.0);
  InformationService &Info = T.grid().info();
  const FlowNetwork &Net = T.grid().network();
  const NodeId Client = T.alpha(1).node();
  const uint64_t Solves0 = Net.probeSolves();
  std::vector<const Sensor *> Bw;
  for (const char *Server : {"alpha4", "hit0", "lz02"}) {
    NodeId S = T.grid().findHost(Server)->node();
    Info.watchPath(Client, S);
    Bw.push_back(Info.bandwidthSensor(Client, S));
  }
  T.sim().runUntil(101.0);
  uint64_t Samples = 0;
  for (const Sensor *S : Bw)
    Samples += S->forecaster().observationCount();
  // Each sensor is primed and first ticks at t = 1 s, then ticks every
  // 10 s through t = 101 s: 12 samples.
  EXPECT_EQ(Samples, 3u * 12u);
  EXPECT_EQ(Net.probeSolves() - Solves0, Samples);
}

//===----------------------------------------------------------------------===//
// Sysstat
//===----------------------------------------------------------------------===//

TEST(Sysstat, SarPartitionsCpuTime) {
  Simulator Sim(21);
  HostConfig HC;
  HC.Name = "h";
  HC.Cpu.MeanLoad = 0.4;
  HC.Cpu.Volatility = 0.0;
  HC.DiskCfg.Background.Volatility = 0.0;
  Host H(Sim, HC, 0);
  SarCpuReport R = sysstat::collectSar(H);
  EXPECT_NEAR(R.User + R.System + R.Idle, 1.0, 1e-9);
  EXPECT_NEAR(R.Idle, 0.6, 1e-9);
  EXPECT_GT(R.User, R.System); // User-dominated busy time.
}

TEST(Sysstat, IostatConsistency) {
  Simulator Sim(22);
  HostConfig HC;
  HC.Name = "h";
  HC.Cpu.Volatility = 0.0;
  HC.DiskCfg.Background.MeanLoad = 0.25;
  HC.DiskCfg.Background.Volatility = 0.0;
  Host H(Sim, HC, 0);
  IostatReport R = sysstat::collectIostat(H);
  EXPECT_NEAR(R.Utilization + R.IdleFraction, 1.0, 1e-9);
  EXPECT_NEAR(R.Utilization, 0.25, 1e-9);
  EXPECT_GT(R.Tps, 0.0);
  EXPECT_NEAR(R.ReadBytesPerSec, H.disk().config().ReadRate / 8.0 * 0.25,
              1.0);
}

TEST(Sysstat, FormattersMentionHostName) {
  Simulator Sim(23);
  HostConfig HC;
  HC.Name = "gridhit3";
  HC.Cpu.Volatility = 0.0;
  HC.DiskCfg.Background.Volatility = 0.0;
  Host H(Sim, HC, 0);
  EXPECT_NE(sysstat::formatIostat(H).find("gridhit3"), std::string::npos);
  EXPECT_NE(sysstat::formatSar(H).find("gridhit3"), std::string::npos);
  EXPECT_NE(sysstat::formatSar(H).find("%idle"), std::string::npos);
}
