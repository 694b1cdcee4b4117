//===- grid/Experiment.cpp -----------------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "grid/Experiment.h"

#include <cassert>

using namespace dgsim;

void ExperimentStats::add(const JobRecord &R) {
  Records.push_back(R);
  TotalSeconds.add(R.totalSeconds());
  if (R.Fetch.LocalHit)
    ++LocalHits;
  else
    TransferSeconds.add(R.transferSeconds());
}

Workload::Workload(DataGrid &Grid, ReplicaSelector &Selector,
                   std::vector<Host *> Clients, WorkloadConfig Config)
    : Grid(Grid), App(Grid, Selector, Config.App),
      Clients(std::move(Clients)), Config(Config),
      Rng(Grid.sim().forkRng()),
      Files(Config.Files.empty() ? Grid.catalog().listFiles()
                                 : Config.Files),
      Popularity(Files.size(), Config.ZipfExponent) {
  assert(!this->Clients.empty() && "workloads need at least one client");
  assert(!Files.empty() && "workloads need a populated catalogue");
  assert(Config.MeanInterarrival > 0.0 && "non-positive interarrival");
  for ([[maybe_unused]] const std::string &F : Files)
    assert(Grid.catalog().hasFile(F) && "workload file not in catalogue");
}

void Workload::start() {
  if (Config.JobCount == 0)
    return;
  scheduleNextArrival();
}

void Workload::setJobObserver(
    std::function<void(const JobRecord &)> NewObserver) {
  assert(Submitted == 0 && "observer must be set before start()");
  Observer = std::move(NewObserver);
}

void Workload::scheduleNextArrival() {
  // Arrivals are foreground events: the experiment is not done until every
  // job has been submitted and has finished.
  SimTime Gap = Rng.exponential(Config.MeanInterarrival);
  Grid.sim().schedule(Gap, [this] {
    Host *Client = Clients[Rng.uniformInt(Clients.size())];
    const std::string &Lfn = Files[Popularity.draw(Rng)];
    App.runJob(*Client, Lfn, [this](const JobRecord &R) {
      Stats.add(R);
      if (Observer)
        Observer(R);
    });
    if (++Submitted < Config.JobCount)
      scheduleNextArrival();
  });
}
