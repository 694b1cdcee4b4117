//===- examples/hep_analysis.cpp ----------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A high-energy-physics run — the other data-intensive application class
/// the paper's introduction cites.  A detector site (HIT) produces a run
/// of event files; the replica *management* service pushes copies out to
/// the analysis sites using GridFTP (selection picks the best source for
/// each copy); then analysts fetch and process the events, benefiting from
/// the replicas that now sit close to them.
///
/// Demonstrates ReplicaManager (publish / fetch / remove), NWS
/// forecasting introspection, and the before/after effect of replication
/// on fetch time.
///
//===----------------------------------------------------------------------===//

#include "grid/Testbed.h"
#include "replica/ReplicaManager.h"
#include "support/Table.h"
#include "support/Units.h"

#include <cstdio>

using namespace dgsim;
using namespace dgsim::units;

namespace {

/// Fetches \p Lfn to \p Client once, without registering the copy, and
/// returns the transfer seconds.
double fetchOnce(PaperTestbed &T, ReplicaManager &Manager, Host &Client,
                 const std::string &Lfn) {
  FetchOptions Options;
  Options.Streams = 8;
  Options.Register = false;
  double Seconds = 0.0;
  Manager.fetch(Lfn, Client, Options, [&](const FetchResult &R) {
    Seconds = R.EndTime - R.StartTime;
  });
  T.sim().run();
  return Seconds;
}

} // namespace

int main() {
  std::printf("== HEP run distribution on the THU / Li-Zen / HIT grid ==\n\n");

  PaperTestbed T;
  CostModelPolicy Policy;
  ReplicaSelector Selector(T.grid().catalog(), T.grid().info(), Policy);
  ReplicaManager Manager(T.grid().catalog(), Selector, T.grid().transfers());

  // The detector at HIT produces one 1.5 GB event file.
  Manager.publish("run-2005-07/events", gigabytes(1.5), T.hit(0));
  T.sim().runUntil(30.0);

  // Before replication: a THU analyst has to pull from HIT over the WAN.
  double Before = fetchOnce(T, Manager, T.alpha(2), "run-2005-07/events");
  std::printf("fetch before replication (hit0 -> alpha2): %s\n",
              fmt::seconds(Before).c_str());

  // The management service replicates to THU's storage node.
  std::printf("replicating run to alpha4...\n");
  FetchOptions Replicate;
  Replicate.Streams = 8;
  Manager.fetch("run-2005-07/events", T.alpha(4), Replicate,
                [&T](const FetchResult &R) {
                  std::printf("  replica of %s registered at %s after %s\n",
                              R.Lfn.c_str(), T.alpha(4).name().c_str(),
                              fmt::seconds(R.EndTime - R.StartTime).c_str());
                });
  T.sim().run();

  // After replication: the same fetch now comes from the campus LAN.
  double After = fetchOnce(T, Manager, T.alpha(2), "run-2005-07/events");
  std::printf("fetch after replication  (alpha4 -> alpha2): %s\n\n",
              fmt::seconds(After).c_str());

  // Show what the NWS forecasters learned about the two candidate paths.
  std::printf("NWS bandwidth forecasts seen by alpha2:\n");
  Table N;
  N.setHeader({"source", "forecast", "winning predictor"});
  for (Host *H : T.grid().catalog().locateRef("run-2005-07/events")) {
    T.grid().info().query(T.alpha(2).node(), *H);
    const Sensor *S =
        T.grid().info().bandwidthSensor(T.alpha(2).node(), H->node());
    N.beginRow();
    N.add(H->name());
    N.add(fmt::rate(S->forecast()));
    N.add(S->forecaster().bestMemberName());
  }
  N.print(stdout);

  // Retire the detector-site copy once analysis sites are covered?  The
  // manager refuses to drop the last replica but allows this one.
  bool Removed = Manager.remove("run-2005-07/events", T.hit(0));
  std::printf("\nretired detector-site copy: %s\n",
              Removed ? "yes" : "no (guarded)");
  std::printf("replication sped up the repeat fetch by %.1fx\n",
              Before / After);
  return 0;
}
