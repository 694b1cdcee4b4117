//===- grid/DynamicReplicator.h - Demand-driven replica creation ------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Demand-driven replication: the "creation" half of the replica
/// management service the paper's background cites (Allcock et al.),
/// closing the loop that replica *selection* leaves open.
///
/// The replicator observes completed jobs.  When a site keeps fetching the
/// same logical file over the WAN — at least AccessThreshold remote
/// fetches within Window seconds — it fetches the file onto that site's
/// designated storage host (by default the site's first host) through
/// ReplicaManager::fetch, which registers the copy once the last byte
/// lands, so subsequent fetches stay on the campus LAN.  This is the
/// classic threshold strategy of the OptorSim-era Data Grid literature.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_GRID_DYNAMICREPLICATOR_H
#define DGSIM_GRID_DYNAMICREPLICATOR_H

#include "grid/Application.h"
#include "replica/ReplicaManager.h"
#include "replica/StorageElement.h"

#include <deque>
#include <map>
#include <set>
#include <string>

namespace dgsim {

/// Tuning of the threshold strategy.
struct DynamicReplicationConfig {
  /// Remote fetches of one file by one site that trigger replication.
  size_t AccessThreshold = 3;
  /// Sliding window the accesses must fall into, seconds.
  SimTime Window = 900.0;
  /// Hard cap on replicas per logical file (including the originals).
  size_t MaxReplicasPerFile = 4;
  /// GridFTP streams used for replication traffic.
  unsigned Streams = 8;
  /// With a storage manager attached: only evict files strictly colder
  /// than the incoming one (prevents replication thrash).  Disable to get
  /// the naive always-evict behaviour.
  bool HotnessAdmission = true;
};

/// Watches job completions and replicates hot files toward demand.
class DynamicReplicator {
public:
  DynamicReplicator(DataGrid &Grid, ReplicaManager &Manager,
                    DynamicReplicationConfig Config = {});

  /// Designates the host that receives new replicas at \p SiteName
  /// (default: the site's first host).
  void setStorageHost(const std::string &SiteName, Host &Storage);

  /// Feed one completed job.  Hook this into Workload::setJobObserver().
  void onJob(const JobRecord &Record);

  /// \returns how many replication fetches this replicator started.
  uint64_t replicationsStarted() const { return Started; }

  /// \returns how many of them succeeded and were registered.
  uint64_t replicationsCompleted() const { return Completed; }

  /// Attaches a trace log (TraceCategory::Replication events).
  void setTrace(TraceLog *Log) { Trace = Log; }

  /// Attaches a storage manager: replication targets must then have
  /// attached stores, space is ensured (with eviction) before each
  /// replication, and accesses update LRU/LFU state.  Pass nullptr to
  /// return to unconstrained storage.
  void setStorageManager(StorageManager *Mgr) { Storage = Mgr; }

private:
  Host &storageHostFor(Site &S);

  DataGrid &Grid;
  ReplicaManager &Manager;
  DynamicReplicationConfig Config;
  // Recent remote-access times per (site name, lfn).
  std::map<std::pair<std::string, std::string>, std::deque<SimTime>>
      Accesses;
  // (site, lfn) pairs with a replication in flight (dedup guard).
  std::set<std::pair<std::string, std::string>> InFlight;
  std::map<std::string, Host *> StorageHosts;
  TraceLog *Trace = nullptr;
  StorageManager *Storage = nullptr;
  uint64_t Started = 0;
  uint64_t Completed = 0;
};

} // namespace dgsim

#endif // DGSIM_GRID_DYNAMICREPLICATOR_H
