//===- tests/HostTest.cpp - Unit tests for the host substrate -------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "host/CpuLoadModel.h"
#include "host/Disk.h"
#include "host/Host.h"
#include "sim/Simulator.h"
#include "support/Statistics.h"
#include "support/Units.h"

#include <gtest/gtest.h>

using namespace dgsim;
using namespace dgsim::units;

//===----------------------------------------------------------------------===//
// CpuLoadModel
//===----------------------------------------------------------------------===//

TEST(CpuLoadModel, StaysInUnitInterval) {
  Simulator Sim(1);
  CpuLoadConfig C;
  C.MeanLoad = 0.5;
  C.Volatility = 0.5; // Deliberately wild.
  CpuLoadModel M(Sim, C);
  RunningStats S;
  Sim.schedulePeriodic(1.0, [&] { S.add(M.load()); });
  Sim.runUntil(2000.0);
  EXPECT_GE(S.min(), 0.0);
  EXPECT_LE(S.max(), 1.0);
}

TEST(CpuLoadModel, HoversAroundMean) {
  Simulator Sim(2);
  CpuLoadConfig C;
  C.MeanLoad = 0.3;
  C.Reversion = 0.2;
  C.Volatility = 0.05;
  CpuLoadModel M(Sim, C);
  RunningStats S;
  Sim.schedulePeriodic(1.0, [&] { S.add(M.load()); });
  Sim.runUntil(5000.0);
  EXPECT_NEAR(S.mean(), 0.3, 0.1);
  EXPECT_GT(S.stddev(), 0.0); // It actually fluctuates.
}

TEST(CpuLoadModel, IdlePlusLoadIsOne) {
  Simulator Sim(3);
  CpuLoadModel M(Sim, CpuLoadConfig{});
  Sim.runUntil(100.0);
  EXPECT_DOUBLE_EQ(M.load() + M.idleFraction(), 1.0);
}

TEST(CpuLoadModel, DeterministicGivenSeed) {
  auto Trace = [](uint64_t Seed) {
    Simulator Sim(Seed);
    CpuLoadModel M(Sim, CpuLoadConfig{});
    std::vector<double> V;
    Sim.schedulePeriodic(1.0, [&] { V.push_back(M.load()); });
    Sim.runUntil(50.0);
    return V;
  };
  EXPECT_EQ(Trace(9), Trace(9));
  EXPECT_NE(Trace(9), Trace(10));
}

//===----------------------------------------------------------------------===//
// Disk
//===----------------------------------------------------------------------===//

TEST(Disk, IdleDiskOffersFullRate) {
  Simulator Sim(5);
  DiskConfig C;
  C.ReadRate = mbps(400);
  C.Background.MeanLoad = 0.0;
  C.Background.Volatility = 0.0;
  Disk D(Sim, C);
  EXPECT_DOUBLE_EQ(D.availableReadRate(), mbps(400));
  EXPECT_DOUBLE_EQ(D.availableReadRate(4), mbps(100));
  EXPECT_DOUBLE_EQ(D.busyFraction(), 0.0);
  EXPECT_DOUBLE_EQ(D.idleFraction(), 1.0);
}

TEST(Disk, BackgroundLoadReducesAvailability) {
  Simulator Sim(6);
  DiskConfig C;
  C.ReadRate = mbps(400);
  C.Background.MeanLoad = 0.5;
  C.Background.Volatility = 0.0;
  Disk D(Sim, C);
  EXPECT_NEAR(D.availableReadRate(), mbps(200), mbps(1));
  EXPECT_NEAR(D.busyFraction(), 0.5, 0.01);
}

TEST(Disk, TransferLoadShowsInBusyFraction) {
  Simulator Sim(7);
  DiskConfig C;
  C.ReadRate = mbps(400);
  C.Background.MeanLoad = 0.0;
  C.Background.Volatility = 0.0;
  Disk D(Sim, C);
  D.addTransferLoad(mbps(100));
  EXPECT_NEAR(D.busyFraction(), 0.25, 1e-9);
  D.removeTransferLoad(mbps(100));
  EXPECT_DOUBLE_EQ(D.busyFraction(), 0.0);
  // Removing more than added clamps at zero.
  D.removeTransferLoad(mbps(50));
  EXPECT_DOUBLE_EQ(D.busyFraction(), 0.0);
}

TEST(Disk, BusyFractionClipsAtOne) {
  Simulator Sim(8);
  DiskConfig C;
  C.ReadRate = mbps(100);
  C.Background.MeanLoad = 0.8;
  C.Background.Volatility = 0.0;
  Disk D(Sim, C);
  D.addTransferLoad(mbps(100));
  EXPECT_DOUBLE_EQ(D.busyFraction(), 1.0);
  EXPECT_DOUBLE_EQ(D.idleFraction(), 0.0);
}

//===----------------------------------------------------------------------===//
// Host
//===----------------------------------------------------------------------===//

static HostConfig quietHostConfig(const std::string &Name) {
  HostConfig H;
  H.Name = Name;
  H.NicRate = gbps(1);
  H.Cpu.MeanLoad = 0.0;
  H.Cpu.Volatility = 0.0;
  H.DiskCfg.ReadRate = mbps(400);
  H.DiskCfg.WriteRate = mbps(320);
  H.DiskCfg.Background.MeanLoad = 0.0;
  H.DiskCfg.Background.Volatility = 0.0;
  return H;
}

TEST(Host, SourceCapIsDiskBoundOnFastNic) {
  Simulator Sim(9);
  Host H(Sim, quietHostConfig("h"), 0);
  EXPECT_NEAR(H.sourceCap(), mbps(400), mbps(1));
  EXPECT_NEAR(H.sinkCap(), mbps(320), mbps(1));
}

TEST(Host, SourceCapIsNicBoundOnSlowNic) {
  Simulator Sim(10);
  HostConfig C = quietHostConfig("h");
  C.NicRate = mbps(100);
  Host H(Sim, C, 0);
  EXPECT_NEAR(H.sourceCap(), mbps(100), mbps(1));
}

TEST(Host, CpuLoadDeratesTransfers) {
  Simulator Sim(11);
  HostConfig C = quietHostConfig("h");
  C.Cpu.MeanLoad = 1.0; // Fully busy.
  Host H(Sim, C, 0);
  EXPECT_NEAR(H.sourceCap(), mbps(400) * 0.8, mbps(1));
}

TEST(Host, ConcurrentReadersShareDisk) {
  Simulator Sim(12);
  Host H(Sim, quietHostConfig("h"), 0);
  EXPECT_NEAR(H.sourceCap(4), mbps(100), mbps(1));
}

TEST(Host, ComputeTimeScalesWithSpeedAndLoad) {
  Simulator Sim(13);
  HostConfig Fast = quietHostConfig("fast");
  Fast.CpuSpeed = 2.0;
  Host HF(Sim, Fast, 0);
  EXPECT_NEAR(HF.computeTime(10.0), 5.0, 1e-9);

  HostConfig Busy = quietHostConfig("busy");
  Busy.Cpu.MeanLoad = 0.5;
  Host HB(Sim, Busy, 1);
  EXPECT_NEAR(HB.computeTime(10.0), 20.0, 1e-9);
}

TEST(Disk, LocalLoadThrottlesAndShowsBusy) {
  Simulator Sim(41);
  DiskConfig C;
  C.ReadRate = mbps(400);
  C.WriteRate = mbps(400);
  C.Background.MeanLoad = 0.0;
  C.Background.Volatility = 0.0;
  Disk D(Sim, C);
  D.addLocalLoad(mbps(300));
  // Unlike transfer accounting, local load eats available bandwidth.
  EXPECT_NEAR(D.availableReadRate(), mbps(100), 1.0);
  EXPECT_NEAR(D.availableWriteRate(), mbps(100), 1.0);
  EXPECT_NEAR(D.busyFraction(), 0.75, 1e-9);
  EXPECT_DOUBLE_EQ(D.localLoad(), mbps(300));
  D.removeLocalLoad(mbps(300));
  EXPECT_NEAR(D.availableReadRate(), mbps(400), 1.0);
  // Over-removal clamps at zero.
  D.removeLocalLoad(mbps(50));
  EXPECT_DOUBLE_EQ(D.localLoad(), 0.0);
}

TEST(Disk, LocalLoadExceedingCapacityZeroesAvailability) {
  Simulator Sim(42);
  DiskConfig C;
  C.ReadRate = mbps(100);
  C.Background.MeanLoad = 0.0;
  C.Background.Volatility = 0.0;
  Disk D(Sim, C);
  D.addLocalLoad(mbps(200));
  EXPECT_DOUBLE_EQ(D.availableReadRate(), 0.0);
  EXPECT_DOUBLE_EQ(D.busyFraction(), 1.0);
}

TEST(Host, ComputeTimeFloorUnderFullLoad) {
  Simulator Sim(43);
  HostConfig C = quietHostConfig("h");
  C.Cpu.MeanLoad = 1.0; // Fully busy: the 5% floor guarantees progress.
  Host H(Sim, C, 0);
  EXPECT_NEAR(H.computeTime(1.0), 1.0 / 0.05, 1e-9);
}

TEST(Host, ConsumesThreeRootForks) {
  // CPU, the slot the deleted memory-load process held, then disk.  Every
  // component built after a host draws from the root stream past these
  // three forks, so the goldens and pinned journals depend on the count.
  Simulator Sim(44);
  Host H(Sim, quietHostConfig("h"), 0);
  Simulator Fresh(44);
  for (int I = 0; I != 3; ++I)
    Fresh.forkRng();
  EXPECT_EQ(Sim.forkRng().next(), Fresh.forkRng().next());
}

TEST(Host, IdleFractionsReportedForCostModel) {
  Simulator Sim(14);
  HostConfig C = quietHostConfig("h");
  C.Cpu.MeanLoad = 0.25;
  C.DiskCfg.Background.MeanLoad = 0.4;
  Host H(Sim, C, 0);
  EXPECT_NEAR(H.cpuIdle(), 0.75, 1e-9);
  EXPECT_NEAR(H.ioIdle(), 0.6, 1e-9);
}
