//===- replica/ReplicaManager.cpp ----------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "replica/ReplicaManager.h"

#include "replica/HealthTracker.h"
#include "support/AllocStats.h"

#include <cassert>
#include <cmath>

using namespace dgsim;

ReplicaManager::ReplicaManager(ReplicaCatalog &Catalog,
                               ReplicaSelector &Selector,
                               TransferManager &Transfers)
    : Catalog(Catalog), Selector(Selector), Transfers(Transfers) {}

void ReplicaManager::publish(const std::string &Lfn, Bytes Size,
                             Host &Location) {
  if (!Catalog.hasFile(Lfn))
    Catalog.registerFile(Lfn, Size);
  assert(Catalog.fileSize(Lfn) == Size && "size mismatch on publish");
  Catalog.addReplica(Lfn, Location);
}

uint32_t ReplicaManager::acquireFetchSlot() {
  if (!FreeFetchSlots.empty()) {
    uint32_t Slot = FreeFetchSlots.back();
    FreeFetchSlots.pop_back();
    return Slot;
  }
  FetchSlots.emplace_back();
  PoolStats::noteGrowth();
  return static_cast<uint32_t>(FetchSlots.size() - 1);
}

void ReplicaManager::fetch(const std::string &Lfn, Host &Target,
                           FetchOptions Options, FetchFn OnDone) {
  assert(Catalog.hasFile(Lfn) && "fetching an unregistered file");
  uint32_t Slot = acquireFetchSlot();
  FetchState &St = FetchSlots[Slot];
  St.Target = &Target;
  St.Options = Options;
  St.Done = std::move(OnDone);
  // Field-wise reset: Lfn and Tried keep their capacity across reuses.
  FetchResult &Res = St.Res;
  Res.Succeeded = false;
  Res.Lfn.assign(Lfn);
  Res.FinalSource = nullptr;
  Res.LocalHit = false;
  Res.Failovers = 0;
  Res.Restarts = 0;
  Res.Timeouts = 0;
  Res.FileBytes = Catalog.fileSize(Lfn);
  Res.DeliveredBytes = 0.0;
  Res.ResentBytes = 0.0;
  Res.Shed = false;
  Res.DeadlineExpired = false;
  Res.QueueSeconds = 0.0;
  Res.StartTime = Transfers.sim().now();
  Res.EndTime = 0.0;
  St.AbsDeadline = std::numeric_limits<double>::infinity();
  if (std::isfinite(Options.DeadlineSeconds))
    St.AbsDeadline = Res.StartTime + Options.DeadlineSeconds;
  St.Tried.clear();

  // Fig 1, step 1: a usable local copy needs no transfer at all.
  Host *Local = Catalog.replicaAt(Lfn, Target.node());
  if (Local && Local->available()) {
    Res.LocalHit = true;
    Res.FinalSource = Local;
    Res.DeliveredBytes = Res.FileBytes;
    finishFetch(Slot, /*Succeeded=*/true);
    return;
  }

  startFetchAttempt(Slot);
}

void ReplicaManager::startFetchAttempt(uint32_t Slot) {
  FetchState &St = FetchSlots[Slot];
  const std::string &Lfn = St.Res.Lfn;
  // A dead destination cannot accept bytes from anywhere: failing over to
  // another source would only burn attempts.
  if (!St.Target->isUp()) {
    finishFetch(Slot, /*Succeeded=*/false);
    return;
  }
  const SelectionResult &Sel =
      Selector.selectRef(St.Target->node(), Lfn, St.Tried);
  if (!Sel.Chosen) {
    finishFetch(Slot, /*Succeeded=*/false);
    return;
  }
  St.Tried.push_back(Sel.Chosen);
  St.Res.FinalSource = Sel.Chosen;

  TransferSpec Spec;
  Spec.Source = Sel.Chosen;
  Spec.Destination = St.Target;
  Spec.FileBytes = St.Res.FileBytes;
  Spec.Protocol = St.Options.Protocol;
  Spec.Streams = St.Options.Streams;
  Spec.Deadline = St.AbsDeadline;
  // GridFTP resumes across failover via partial file transfer: the
  // destination keeps what earlier sources delivered, so the next source
  // only serves the tail.  Plain FTP has no REST: it starts over and the
  // earlier partial progress is re-sent (ResentBytes accounts for it).
  Bytes Delivered = St.Res.DeliveredBytes;
  bool Resume = Spec.Protocol != TransferProtocol::Ftp && Delivered > 0.0 &&
                Delivered < Spec.FileBytes;
  if (Resume) {
    Spec.Range = ByteRange{Delivered, Spec.FileBytes - Delivered};
  } else if (Delivered > 0.0) {
    // Starting over: the banked prefix will move again, so it leaves the
    // delivered ledger (each payload byte is counted delivered once).
    St.Res.ResentBytes += Delivered;
    St.Res.DeliveredBytes = 0.0;
  }

  Transfers.submit(Spec, [this, Slot, Gen = St.Gen,
                          Src = Sel.Chosen](const TransferResult &R) {
    FetchState &St = FetchSlots[Slot];
    assert(St.Gen == Gen && "completion callback for a released fetch slot");
    (void)Gen;
    St.Res.Restarts += R.Restarts;
    St.Res.Timeouts += R.Timeouts;
    St.Res.DeliveredBytes += R.DeliveredBytes;
    St.Res.ResentBytes += R.ResentBytes;
    St.Res.QueueSeconds += R.QueueSeconds;
    // Close the health loop: the selector's tracker (when attached) sees
    // every attempt's outcome against the source that served it.  A shed
    // attempt never reached the source — release its probe slot without
    // recording a sample either way.
    if (HealthTracker *Health = Selector.healthTracker()) {
      switch (R.Status) {
      case TransferStatus::Completed:
        Health->recordSuccess(*Src, R.DeliveredBytes, R.DataSeconds);
        break;
      case TransferStatus::Failed:
      case TransferStatus::DeadlineExpired:
        Health->recordFailure(*Src);
        break;
      case TransferStatus::Shed:
        Health->noteAbandoned(*Src);
        break;
      }
    }
    if (R.succeeded()) {
      if (St.Options.Register)
        Catalog.addReplica(St.Res.Lfn, *St.Target);
      finishFetch(Slot, /*Succeeded=*/true);
      return;
    }
    if (R.Status == TransferStatus::Shed) {
      // Our own destination refused the work; another source changes
      // nothing.  The attempt never moved a byte.
      St.Res.Shed = true;
      finishFetch(Slot, /*Succeeded=*/false);
      return;
    }
    if (R.Status == TransferStatus::DeadlineExpired) {
      St.Res.DeadlineExpired = true;
      finishFetch(Slot, /*Succeeded=*/false);
      return;
    }
    if (St.Res.Failovers >= St.Options.MaxFailovers) {
      finishFetch(Slot, /*Succeeded=*/false);
      return;
    }
    ++St.Res.Failovers;
    ++TotalFailovers;
    startFetchAttempt(Slot);
  });
}

void ReplicaManager::finishFetch(uint32_t Slot, bool Succeeded) {
  FetchState &St = FetchSlots[Slot];
  St.Res.Succeeded = Succeeded;
  St.Res.EndTime = Transfers.sim().now();
  if (!Succeeded)
    ++FailedFetches;
  // Detach the result and callback, release the slot, then invoke: the
  // callback may start a new fetch, which may reuse this very slot.
  FetchFn Done = std::move(St.Done);
  FetchResult Res = std::move(St.Res);
  St.Done = nullptr;
  ++St.Gen;
  FreeFetchSlots.push_back(Slot);
  if (Done)
    Done(Res);
}

bool ReplicaManager::remove(const std::string &Lfn, const Host &Location) {
  if (Catalog.locateRef(Lfn).size() <= 1)
    return false; // Never drop the last copy.
  return Catalog.removeReplica(Lfn, Location);
}
