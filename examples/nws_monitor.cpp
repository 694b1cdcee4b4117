//===- examples/nws_monitor.cpp -----------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An nws_extract-style monitoring console: runs the paper's testbed for
/// ten simulated minutes under dynamic load, then reports what the NWS
/// deployment learned.  The information service plays the nameserver
/// (it indexes every sensor by host or path) and each sensor's history
/// is its memory:
///
///   * the sensors the service holds, by kind,
///   * bandwidth forecasts for the paths into alpha1, with the currently
///     winning predictor of each adaptive battery,
///   * per-host resource forecasts (CPU / I-O idle),
///   * forecast-vs-actual error of the bandwidth series.
///
//===----------------------------------------------------------------------===//

#include "grid/Testbed.h"
#include "monitor/Sysstat.h"
#include "support/Statistics.h"
#include "support/Table.h"
#include "support/Units.h"

#include <cmath>
#include <cstdio>

using namespace dgsim;
using namespace dgsim::units;

int main() {
  PaperTestbed T; // Dynamic load, live cross traffic.
  T.publishFileA();
  InformationService &Info = T.grid().info();

  // Touch the interesting paths so sensors exist, then let them measure.
  for (const char *Server : {"alpha4", "hit0", "lz02"})
    Info.watchPath(T.alpha(1).node(), T.grid().findHost(Server)->node());
  T.sim().runUntil(600.0);

  std::printf("== NWS deployment after %.0f s ==\n\n", T.sim().now());
  // Every registered host has a cpu and an io sensor; every watched path
  // a bandwidth sensor.
  size_t Hosts = T.grid().allHosts().size();
  size_t Paths = Info.pathSensorCount();
  std::printf("sensors: %zu\n", 2 * Hosts + Paths);
  std::printf("  %-10s x%zu\n", "bandwidth", Paths);
  for (const char *Kind : {"cpu", "io"})
    std::printf("  %-10s x%zu\n", Kind, Hosts);

  std::printf("\n-- path forecasts into alpha1 --\n");
  Table P;
  P.setHeader({"source", "bandwidth", "winning predictor", "samples"});
  for (const char *Server : {"alpha4", "hit0", "lz02"}) {
    NodeId S = T.grid().findHost(Server)->node();
    const Sensor *Bw = Info.bandwidthSensor(T.alpha(1).node(), S);
    P.beginRow();
    P.add(std::string(Server));
    P.add(fmt::rate(Bw->forecast()));
    P.add(Bw->forecaster().bestMemberName());
    P.add(static_cast<long long>(Bw->forecaster().observationCount()));
  }
  P.print(stdout);

  std::printf("\n-- host resource forecasts --\n");
  Table H;
  H.setHeader({"host", "cpu idle", "io idle"});
  for (const char *Name : {"alpha1", "alpha4", "hit0", "lz02"}) {
    Host *HostPtr = T.grid().findHost(Name);
    H.beginRow();
    H.add(std::string(Name));
    H.add(fmt::percent(Info.cpuIdle(*HostPtr)));
    H.add(fmt::percent(Info.ioIdle(*HostPtr)));
  }
  H.print(stdout);

  std::printf("\n-- forecast accuracy (bandwidth, hit0 -> alpha1) --\n");
  const Sensor *Bw =
      Info.bandwidthSensor(T.alpha(1).node(), T.hit(0).node());
  const NwsForecaster &F = Bw->forecaster();
  Table A;
  A.setHeader({"predictor", "rmse (Mb/s)"});
  for (size_t I = 0; I < F.memberCount(); ++I) {
    A.beginRow();
    A.add(NwsForecaster::memberName(I));
    A.add(std::sqrt(F.memberMse(I)) / 1e6, 2);
  }
  A.print(stdout);
  std::printf("adaptive winner: %s (observations: %zu)\n",
              F.bestMemberName(), F.observationCount());
  return 0;
}
