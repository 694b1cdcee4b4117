//===- grid/Application.cpp ---------------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "grid/Application.h"

#include "support/Units.h"

#include <cassert>

using namespace dgsim;

Application::Application(DataGrid &Grid, ReplicaSelector &Selector,
                         ApplicationConfig Config)
    : Grid(Grid), Manager(Grid.catalog(), Selector, Grid.transfers()),
      Config(Config) {
  assert(Config.Streams >= 1 && "need at least one stream");
  assert(Config.ComputeSecondsPerGB >= 0.0 && "negative compute cost");
}

void Application::runJob(Host &Client, const std::string &Lfn,
                         JobDoneFn OnDone) {
  FetchOptions Options;
  Options.Protocol = Config.Protocol;
  Options.Streams =
      Config.Protocol == TransferProtocol::GridFtpModeE ? Config.Streams : 1;
  Options.Register = false;
  Manager.fetch(Lfn, Client, Options,
                [this, &Client,
                 OnDone = std::move(OnDone)](const FetchResult &R) mutable {
                  JobRecord Record;
                  Record.Client = &Client;
                  Record.Fetch = R;
                  computePhase(std::move(Record), std::move(OnDone));
                });
}

void Application::computePhase(JobRecord Record, JobDoneFn OnDone) {
  double GB = Record.Fetch.FileBytes / units::GB;
  SimTime Work =
      Record.Client->computeTime(Config.ComputeSecondsPerGB * GB);
  Record.ComputeSeconds = Work;
  Grid.sim().schedule(Work, [this, Record = std::move(Record),
                             OnDone = std::move(OnDone)]() mutable {
    Record.FinishTime = Grid.sim().now();
    if (OnDone)
      OnDone(Record);
  });
}
