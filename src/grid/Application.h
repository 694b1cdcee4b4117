//===- grid/Application.h - The Fig 1 data-intensive application ------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client-side loop of the paper's replica selection scenario (Fig 1):
///
///   1. the parallel application needs a logical file;
///   2. if a replica is local, access it immediately;
///   3. otherwise ask the replica selection server for the best location;
///   4. fetch the replica with GridFTP;
///   5. compute over the data and return the result to the user.
///
/// runJob() executes one such job asynchronously and reports a JobRecord.
/// Steps 2–4 are ReplicaManager::fetch(), so a job's fetch fails over to
/// the next live replica like every other fetch; the destination is not
/// registered as a new holder.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_GRID_APPLICATION_H
#define DGSIM_GRID_APPLICATION_H

#include "grid/DataGrid.h"
#include "replica/ReplicaManager.h"

#include <functional>
#include <string>

namespace dgsim {

/// One completed job.
struct JobRecord {
  Host *Client = nullptr;
  /// The job's fetch: file, source, local hit and submit time (StartTime).
  /// Zero-duration when the replica was local.
  FetchResult Fetch;
  SimTime ComputeSeconds = 0.0;
  SimTime FinishTime = 0.0;

  SimTime totalSeconds() const { return FinishTime - Fetch.StartTime; }
  SimTime transferSeconds() const { return Fetch.EndTime - Fetch.StartTime; }
};

/// Application-level configuration.
struct ApplicationConfig {
  /// GridFTP parallel streams used for fetches.
  unsigned Streams = 8;
  TransferProtocol Protocol = TransferProtocol::GridFtpModeE;
  /// Reference-machine compute seconds per gigabyte of input.
  double ComputeSecondsPerGB = 2.0;
};

/// Runs jobs against a grid.
class Application {
public:
  using JobDoneFn = std::function<void(const JobRecord &)>;

  Application(DataGrid &Grid, ReplicaSelector &Selector,
              ApplicationConfig Config = {});

  /// Starts one job: fetch \p Lfn to \p Client (if remote), then compute.
  void runJob(Host &Client, const std::string &Lfn, JobDoneFn OnDone);

private:
  void computePhase(JobRecord Record, JobDoneFn OnDone);

  DataGrid &Grid;
  ReplicaManager Manager;
  ApplicationConfig Config;
};

} // namespace dgsim

#endif // DGSIM_GRID_APPLICATION_H
