//===- examples/quickstart.cpp - dgsim in 60 lines ---------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The smallest useful dgsim program: build a two-site Data Grid, publish
/// a file with two replicas, print every replica's cost-model report, let
/// the paper's cost model pick one, and fetch it with parallel GridFTP.
///
/// Build and run:
///   cmake --build build --target quickstart && ./build/examples/quickstart
///
//===----------------------------------------------------------------------===//

#include "grid/DataGrid.h"
#include "replica/ReplicaSelector.h"
#include "support/Table.h"
#include "support/Units.h"

#include <cstdio>
#include <memory>
#include <vector>

using namespace dgsim;
using namespace dgsim::units;

int main() {
  // 1. Describe the grid: two sites, one WAN link.
  GridSpec Spec;
  Spec.Seed = 42;

  SiteConfig Lab;
  Lab.Name = "lab";
  Lab.Hosts.resize(2);
  Lab.Hosts[0].Name = "lab0";
  Lab.Hosts[1].Name = "lab1";
  Spec.Sites.push_back(Lab);

  SiteConfig Campus;
  Campus.Name = "campus";
  Campus.Hosts.resize(2);
  Campus.Hosts[0].Name = "campus0";
  Campus.Hosts[1].Name = "campus1";
  Campus.Hosts[1].CpuMeanLoad = 0.7; // One busy server.
  Spec.Sites.push_back(Campus);

  Spec.Links.push_back({"lab", "campus", mbps(100), units::milliseconds(8),
                        /*Loss=*/0.0002});
  std::unique_ptr<DataGrid> Grid = DataGrid::buildFrom(Spec);

  // 2. Publish a 512 MB dataset with replicas on both campus hosts.
  Grid->catalog().registerFile("dataset", megabytes(512));
  Grid->catalog().addReplica("dataset", *Grid->findHost("campus0"));
  Grid->catalog().addReplica("dataset", *Grid->findHost("campus1"));

  // 3. Let the monitoring settle, then pick the best replica for lab0.
  Grid->sim().runUntil(30.0);
  CostModelPolicy Policy; // The paper's 80/10/10 weights.
  ReplicaSelector Selector(Grid->catalog(), Grid->info(), Policy);
  Host *Client = Grid->findHost("lab0");
  std::vector<CandidateReport> Reports =
      Selector.scoreAll(Client->node(), "dataset");
  SelectionResult Sel = Selector.select(Client->node(), "dataset");

  Table T;
  T.setHeader({"candidate", "P_bw", "P_cpu", "P_io", "score"});
  for (const CandidateReport &C : Reports) {
    T.beginRow();
    T.add(C.Candidate->name());
    T.add(C.Factors.BwFraction, 3);
    T.add(C.Factors.CpuIdle, 3);
    T.add(C.Factors.IoIdle, 3);
    T.add(C.Score, 3);
  }
  T.print(stdout);
  std::printf("\nselected replica: %s\n\n", Sel.Chosen->name().c_str());

  // 4. Fetch it with 4-stream GridFTP and report.
  TransferSpec Fetch;
  Fetch.Source = Sel.Chosen;
  Fetch.Destination = Client;
  Fetch.FileBytes = Grid->catalog().fileSize("dataset");
  Fetch.Protocol = TransferProtocol::GridFtpModeE;
  Fetch.Streams = 4;
  Grid->transfers().submit(Fetch, [](const TransferResult &R) {
    std::printf("transfer finished: %s in %s (startup %.2f s, mean %s)\n",
                fmt::bytes(R.FileBytes).c_str(),
                fmt::seconds(R.totalSeconds()).c_str(), R.StartupSeconds,
                fmt::rate(R.meanThroughput()).c_str());
  });
  Grid->sim().run();
  return 0;
}
