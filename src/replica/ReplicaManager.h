//===- replica/ReplicaManager.h - Replica lifecycle management -------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The replica management service of the Data Grid's second "essential
/// basic service" (Allcock et al.): creation, registration, location and
/// management of data replicas, with GridFTP as the transport.
///
/// fetch() is the one select → transfer → register path: the Fig 1 job,
/// demand replication and the open-loop workloads all run it.  Selection
/// picks the best live replica, the TransferManager moves the bytes, and
/// with Register set the destination is added to the catalog only after
/// the last byte lands — a failed transfer never yields a phantom replica.
/// When a transfer is reported Failed (retry budget exhausted, source host
/// crashed for good), fetch() re-runs selection over the *surviving*
/// replicas — excluding every source already tried — and resumes from the
/// next-best site.  GridFTP fetches resume with a partial-file byte range
/// starting at the bytes the destination already holds, so delivered bytes
/// are never moved twice even across a failover; plain FTP starts over.
///
/// When the selector carries a HealthTracker, every attempt's outcome is
/// fed back to it (success with observed throughput, failure, timeout),
/// so failover re-selection respects Open breakers and demotes flapping
/// sites — the "health-aware replica selection" loop.  Shed and
/// deadline-expired attempts end the fetch without failover: shedding
/// means the *destination* is overloaded, and a missed deadline makes
/// further attempts pointless.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_REPLICA_REPLICAMANAGER_H
#define DGSIM_REPLICA_REPLICAMANAGER_H

#include "gridftp/TransferManager.h"
#include "replica/ReplicaSelector.h"

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

namespace dgsim {

/// Knobs for a fault-tolerant fetch().
struct FetchOptions {
  /// Parallel streams per data connection.
  unsigned Streams = 4;
  /// Transport; resume-across-failover needs a GridFTP protocol.
  TransferProtocol Protocol = TransferProtocol::GridFtpModeE;
  /// How many times fetch() moves to another replica after a failed
  /// transfer before giving up (distinct sources tried = MaxFailovers + 1,
  /// catalog permitting).
  unsigned MaxFailovers = 8;
  /// Register the destination as a new replica holder on success.
  bool Register = true;
  /// Per-fetch deadline, seconds from the fetch() call.  The whole fetch
  /// — queue wait, failovers and all — must finish by then; an attempt
  /// aborted at the deadline ends the fetch (DeadlineExpired), it does
  /// not fail over.  +inf (the default) disables the deadline.
  SimTime DeadlineSeconds = std::numeric_limits<double>::infinity();
};

/// Outcome of a fetch(), aggregated across every attempt.
struct FetchResult {
  bool Succeeded = false;
  std::string Lfn;
  /// The source that served the final (successful or last-failed) attempt;
  /// null when no live replica existed at all.
  Host *FinalSource = nullptr;
  /// The file was already local to the destination: no data moved.
  bool LocalHit = false;
  /// Transfers abandoned in favour of another replica.
  unsigned Failovers = 0;
  /// Data-connection failures survived, summed over attempts.
  unsigned Restarts = 0;
  /// Stall timeouts detected, summed over attempts.
  unsigned Timeouts = 0;
  /// Payload bytes of the logical file.
  Bytes FileBytes = 0.0;
  /// Payload bytes that landed exactly once (== FileBytes on success; the
  /// conservation invariant chaos tests pin).
  Bytes DeliveredBytes = 0.0;
  /// Payload bytes moved more than once (FTP restarts / failover re-sends).
  Bytes ResentBytes = 0.0;
  /// The final attempt was shed by destination admission control (the
  /// fetch ends immediately: the congestion is on our own doorstep, so
  /// failing over to another source cannot help).
  bool Shed = false;
  /// The fetch missed its FetchOptions::DeadlineSeconds.
  bool DeadlineExpired = false;
  /// Admission-queue wait, summed over attempts.
  SimTime QueueSeconds = 0.0;
  SimTime StartTime = 0.0;
  SimTime EndTime = 0.0;
};

/// Orchestrates replica creation and deletion.
class ReplicaManager {
public:
  using FetchFn = std::function<void(const FetchResult &)>;

  ReplicaManager(ReplicaCatalog &Catalog, ReplicaSelector &Selector,
                 TransferManager &Transfers);

  /// Publishes an initial copy: registers the file (if new) and the
  /// location, with no data movement (the data was produced there).
  void publish(const std::string &Lfn, Bytes Size, Host &Location);

  /// Fetches \p Lfn to \p Target with failover: selection picks the best
  /// live replica, and every time a transfer is reported Failed the fetch
  /// re-selects among the surviving holders (sources already tried are
  /// excluded) and resumes from the bytes already delivered.  \p OnDone
  /// fires exactly once, synchronously for the local-hit and
  /// no-live-replica cases.
  void fetch(const std::string &Lfn, Host &Target, FetchOptions Options = {},
             FetchFn OnDone = nullptr);

  /// Unregisters the replica at \p Location.  \returns true on removal.
  /// Removing the last replica of a file is refused (data loss guard).
  bool remove(const std::string &Lfn, const Host &Location);

  ReplicaCatalog &catalog() { return Catalog; }

  /// \returns how many fetch() attempts moved to another replica, across
  /// all fetches this manager ran (the experiment-sink failover counter).
  uint64_t totalFailovers() const { return TotalFailovers; }

  /// \returns how many fetch() calls ended unsuccessfully.
  uint64_t failedFetches() const { return FailedFetches; }

private:
  /// Per-fetch state, pooled: slots are recycled across fetches (field-wise
  /// reset keeps Tried/Lfn capacity), so steady-state fetching allocates
  /// nothing.  Completion callbacks address the slot by (index, Gen) — the
  /// generation is bumped on release, so a stale callback is detectable.
  struct FetchState {
    Host *Target = nullptr;
    FetchOptions Options;
    FetchFn Done;
    FetchResult Res;
    /// Absolute deadline derived from Options.DeadlineSeconds at fetch
    /// time; every attempt carries it, so failovers share one clock.
    SimTime AbsDeadline = std::numeric_limits<double>::infinity();
    /// Sources already tried this fetch; selection never returns them.
    std::vector<const Host *> Tried;
    /// Bumped when the slot is released; guards stale callbacks.
    uint32_t Gen = 0;
  };

  uint32_t acquireFetchSlot();
  void startFetchAttempt(uint32_t Slot);
  /// Detaches result and callback, releases the slot, *then* invokes the
  /// callback — which may start a new fetch reusing this very slot.
  void finishFetch(uint32_t Slot, bool Succeeded);

  ReplicaCatalog &Catalog;
  ReplicaSelector &Selector;
  TransferManager &Transfers;
  /// Deque, not vector: references stay stable while the slab grows (a
  /// completion callback may trigger a fetch that grows the pool).
  std::deque<FetchState> FetchSlots;
  std::vector<uint32_t> FreeFetchSlots;
  uint64_t TotalFailovers = 0;
  uint64_t FailedFetches = 0;
};

} // namespace dgsim

#endif // DGSIM_REPLICA_REPLICAMANAGER_H
