//===- grid/DynamicReplicator.cpp ----------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "grid/DynamicReplicator.h"

#include <cassert>

using namespace dgsim;

DynamicReplicator::DynamicReplicator(DataGrid &Grid, ReplicaManager &Manager,
                                     DynamicReplicationConfig Config)
    : Grid(Grid), Manager(Manager), Config(Config) {
  assert(Config.AccessThreshold >= 1 && "threshold must be positive");
  assert(Config.Window > 0.0 && "window must be positive");
  assert(Config.MaxReplicasPerFile >= 1 && "replica cap must be positive");
}

void DynamicReplicator::setStorageHost(const std::string &SiteName,
                                       Host &Storage) {
  assert(Grid.findSite(SiteName) && "unknown site");
  StorageHosts[SiteName] = &Storage;
}

Host &DynamicReplicator::storageHostFor(Site &S) {
  auto It = StorageHosts.find(S.name());
  if (It != StorageHosts.end())
    return *It->second;
  return S.host(0);
}

void DynamicReplicator::onJob(const JobRecord &Record) {
  const std::string &Lfn = Record.Fetch.Lfn;
  Host *Source = Record.Fetch.FinalSource;
  // Keep the source store's recency/frequency state fresh.
  if (Storage && Source)
    Storage->recordAccess(Lfn, *Source, Grid.sim().now());
  if (Record.Fetch.LocalHit)
    return; // Local data: no pressure to replicate.
  Site *ClientSite = Grid.siteOf(*Record.Client);
  if (!ClientSite)
    return;
  Site *SourceSite = Source ? Grid.siteOf(*Source) : nullptr;
  if (SourceSite == ClientSite)
    return; // Fetched over the campus LAN already.

  auto Key = std::make_pair(ClientSite->name(), Lfn);
  SimTime Now = Grid.sim().now();
  auto &Times = Accesses[Key];
  Times.push_back(Now);
  while (!Times.empty() && Times.front() < Now - Config.Window)
    Times.pop_front();
  if (Times.size() < Config.AccessThreshold)
    return;
  if (InFlight.count(Key))
    return;
  if (Grid.catalog().locateRef(Lfn).size() >= Config.MaxReplicasPerFile)
    return;

  Host &Target = storageHostFor(*ClientSite);
  if (Grid.catalog().replicaAt(Lfn, Target.node()))
    return; // The site already holds a copy.

  // Under constrained storage, make room first; a reservation (pinned
  // placeholder) holds the space while the bytes are in flight.
  bool Reserved = false;
  if (Storage) {
    StorageElement *SE = Storage->storeOf(Target);
    assert(SE && "replication target has no attached store");
    Bytes Size = Grid.catalog().fileSize(Lfn);
    uint64_t Hotness =
        Config.HotnessAdmission ? Times.size() : ~0ULL;
    if (!Storage->ensureSpace(Target, Size, Now, Hotness)) {
      TraceLog::recordf(Trace, Now, TraceCategory::Replication,
                        "%s: no space at %s, replication skipped",
                        Lfn.c_str(), Target.name().c_str());
      return;
    }
    SE->add(Lfn, Size, Now);
    SE->setPinned(Lfn, true);
    Reserved = true;
  }

  InFlight.insert(Key);
  ++Started;
  TraceLog::recordf(Trace, Now, TraceCategory::Replication,
                    "%s: %zu remote fetches by site %s, replicating to %s",
                    Lfn.c_str(), Times.size(), ClientSite->name().c_str(),
                    Target.name().c_str());
  FetchOptions Options;
  Options.Streams = Config.Streams;
  Manager.fetch(Lfn, Target, Options,
                [this, Key, Reserved, &Target](const FetchResult &R) {
                  InFlight.erase(Key);
                  if (Reserved)
                    Storage->storeOf(Target)->setPinned(R.Lfn, false);
                  // A failed fetch registered nothing: no replica went live.
                  if (!R.Succeeded)
                    return;
                  ++Completed;
                  TraceLog::recordf(Trace, Grid.sim().now(),
                                    TraceCategory::Replication,
                                    "%s: replica live at %s", R.Lfn.c_str(),
                                    Target.name().c_str());
                });
}
