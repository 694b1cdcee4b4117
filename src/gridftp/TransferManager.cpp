//===- gridftp/TransferManager.cpp ------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "gridftp/TransferManager.h"

#include "support/AllocStats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdarg>
#include <cstdio>

using namespace dgsim;

void TransferManager::trace(const char *Fmt, ...) const {
  if (!Trace || !Trace->enabled(TraceCategory::Transfer))
    return;
  char Buf[256];
  va_list Args;
  va_start(Args, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  Trace->record(Sim.now(), TraceCategory::Transfer, Buf);
}

TransferManager::TransferManager(Simulator &Sim, FlowNetwork &Net)
    : Sim(Sim), Net(Net) {
  RefreshHandle =
      Sim.schedulePeriodic(RefreshPeriod, [this] { refreshCaps(); });
}

TransferManager::~TransferManager() {
  Sim.cancelPeriodic(RefreshHandle);
  Sim.cancel(WatchdogEvent);
}

void TransferManager::armWatchdog() {
  if (!std::isfinite(Policy.StallTimeout) || liveTransfers() == 0 ||
      WatchdogEvent != InvalidEventId)
    return;
  WatchdogEvent = Sim.schedule(RefreshPeriod, [this] {
    WatchdogEvent = InvalidEventId;
    refreshCaps();
    armWatchdog();
  });
}

void TransferManager::setAdmissionPolicy(const AdmissionPolicy &A) {
  assert(liveTransfers() == 0 &&
         "set the admission policy before submitting transfers");
  Admission = A;
  Destinations.clear();
}

TransferManager::ActiveTransfer *
TransferManager::findTransfer(TransferId Id) {
  auto It = IdToSlot.find(Id);
  return It == IdToSlot.end() ? nullptr : &Slots[It->second];
}

void TransferManager::releaseTransfer(TransferId Id) {
  auto It = IdToSlot.find(Id);
  assert(It != IdToSlot.end() && "releasing an unknown transfer");
  uint32_t Slot = It->second;
  // Orphan a pending reconnect so failed/cancelled transfers do not keep
  // the kernel's run() alive until the retry would have fired.
  for (Stripe &S : Slots[Slot].StripesLive)
    Sim.cancel(S.RetryEvent);
  Sim.cancel(Slots[Slot].DeadlineEvent);
  if (Admission.MaxActivePerDestination) {
    auto DIt = Destinations.find(Slots[Slot].Spec.Destination);
    assert(DIt != Destinations.end() && "admission state out of sync");
    DestState &D = DIt->second;
    if (Slots[Slot].Queued) {
      // Shed/cancelled/failed while still pending: drop the queue entry.
      auto P = std::find(D.Pending.begin(), D.Pending.end(), Id);
      assert(P != D.Pending.end() && "queued transfer missing from queue");
      D.Pending.erase(P);
      assert(QueuedNow > 0 && "queued count underflow");
      --QueuedNow;
    } else {
      assert(D.Active > 0 && "active count underflow");
      --D.Active;
      // Promote pending transfers in FIFO order into the freed capacity.
      while (D.Active < Admission.MaxActivePerDestination &&
             !D.Pending.empty()) {
        TransferId Next = D.Pending.front();
        D.Pending.erase(D.Pending.begin());
        ++D.Active;
        assert(QueuedNow > 0 && "queued count underflow");
        --QueuedNow;
        ActiveTransfer *N = findTransfer(Next);
        assert(N && N->Queued && "pending list out of sync");
        N->Queued = false;
        N->Result.QueueSeconds = Sim.now() - N->Result.StartTime;
        trace("#%llu dequeued after %.3f s queue wait",
              static_cast<unsigned long long>(Next),
              N->Result.QueueSeconds);
        startTransfer(Next);
      }
    }
  }
  // Field-wise reset: the closure is dropped now (captured state must not
  // outlive the transfer), but the slot keeps its Spec/StripesLive vector
  // capacity for the next occupant — steady-state churn allocates nothing.
  ActiveTransfer &A = Slots[Slot];
  A.OnComplete = nullptr;
  A.StripesLive.clear();
  A.StripesRemaining = 0;
  A.PayloadPerWire = 1.0;
  A.Queued = false;
  A.DeadlineEvent = InvalidEventId;
  FreeSlots.push_back(Slot);
  IdToSlot.erase(It);
  auto &Entry = ActiveList[A.ActivePos];
  assert(Entry.first == Id && Entry.second == Slot &&
         "active list out of sync");
  Entry.second = DeadEntry;
  if (2 * ++DeadEntries > ActiveList.size())
    compactActiveList();
}

void TransferManager::compactActiveList() {
  size_t Live = 0;
  for (const auto &[Id, Slot] : ActiveList) {
    if (Slot == DeadEntry)
      continue;
    Slots[Slot].ActivePos = static_cast<uint32_t>(Live);
    ActiveList[Live++] = {Id, Slot};
  }
  ActiveList.resize(Live);
  DeadEntries = 0;
}

TransferId TransferManager::submit(const TransferSpec &Spec,
                                   CompletionFn OnComplete) {
  assert(Spec.Destination && "transfers need a destination host");
  assert((Spec.Source || !Spec.Stripes.empty()) &&
         "transfers need at least one source host");
  assert(Spec.FileBytes >= 0.0 && "negative file size");
  assert(Spec.Streams >= 1 && "need at least one stream");
  assert((Spec.Protocol == TransferProtocol::GridFtpModeE ||
          Spec.Streams == 1) &&
         "parallel streams require MODE E");
  assert((Spec.Protocol == TransferProtocol::GridFtpModeE ||
          Spec.Stripes.size() <= 1) &&
         "striped transfers require MODE E");
  assert((!Spec.Range || Spec.Protocol != TransferProtocol::Ftp) &&
         "partial file transfer is a GridFTP extension");
  assert((!Spec.Range ||
          (Spec.Range->Offset >= 0.0 && Spec.Range->Length > 0.0 &&
           Spec.Range->Offset + Spec.Range->Length <=
               Spec.FileBytes + 1e-6)) &&
         "byte range outside the file");

  TransferId Id = NextId++;
  uint32_t Slot;
  if (!FreeSlots.empty()) {
    Slot = FreeSlots.back();
    FreeSlots.pop_back();
  } else {
    Slot = static_cast<uint32_t>(Slots.size());
    Slots.emplace_back();
    PoolStats::noteGrowth();
  }
  // Fill the recycled slot in place: Spec copy-assignment reuses the
  // slot's Stripes/StripeWeights capacity, and TransferResult is all
  // scalars, so a warm submit allocates nothing here.
  ActiveTransfer &T = Slots[Slot];
  T.Spec = Spec;
  T.OnComplete = std::move(OnComplete);
  T.Result = TransferResult();
  T.Result.Id = Id;
  T.Result.Protocol = Spec.Protocol;
  T.Result.FileBytes = Spec.Range ? Spec.Range->Length : Spec.FileBytes;
  T.Result.StartTime = Sim.now();

  // The control dialogue runs between the destination, which drives the
  // transfer (client pull), and the primary source.
  Host *PrimarySource = Spec.Source ? Spec.Source : Spec.Stripes.front();
  const NetPath *ControlPath =
      Net.routing().pathRef(Spec.Destination->node(), PrimarySource->node());
  assert(ControlPath && "the destination cannot reach the source");

  double SlowerCpu = std::min(PrimarySource->config().CpuSpeed,
                              Spec.Destination->config().CpuSpeed);
  SimTime Startup = protocolStartupTime(
      Spec.Protocol, *ControlPath, TcpModel::connectTime(*ControlPath),
      SlowerCpu);
  T.Result.StartupSeconds = Startup;

  trace("#%llu submit %s %s -> %s, %.0f MB, %u stream(s), startup %.3f s",
        static_cast<unsigned long long>(Id),
        transferProtocolName(Spec.Protocol), PrimarySource->name().c_str(),
        Spec.Destination->name().c_str(),
        T.Result.FileBytes / (1024.0 * 1024.0), Spec.Streams, Startup);
  IdToSlot.emplace(Id, Slot);
  T.ActivePos = static_cast<uint32_t>(ActiveList.size());
  ActiveList.emplace_back(Id, Slot); // Ids are monotonic: stays sorted.
  // The deadline is armed for the transfer's whole life — queue wait
  // included — and cancelled when it resolves.  A deadline already in the
  // past fires on the next kernel step.
  if (std::isfinite(Spec.Deadline))
    Slots[Slot].DeadlineEvent =
        Sim.scheduleAt(std::max(Spec.Deadline, Sim.now()),
                       [this, Id] { onDeadline(Id); });
  if (!Admission.MaxActivePerDestination) {
    startTransfer(Id);
  } else {
    DestState &D = Destinations[Spec.Destination];
    if (D.Active < Admission.MaxActivePerDestination) {
      ++D.Active;
      startTransfer(Id);
    } else {
      enqueueTransfer(Id, D);
    }
  }
  armWatchdog();
  return Id;
}

void TransferManager::startTransfer(TransferId Id) {
  ActiveTransfer *Found = findTransfer(Id);
  assert(Found && !Found->Queued && "starting an unadmitted transfer");
  Sim.schedule(Found->Result.StartupSeconds, [this, Id] { beginData(Id); });
}

void TransferManager::enqueueTransfer(TransferId Id, DestState &D) {
  ActiveTransfer *Found = findTransfer(Id);
  assert(Found && "queueing an unknown transfer");
  // Enqueue unconditionally, then shed the overflow victim: this way a
  // rejected newcomer takes the same bookkeeping path as a displaced
  // queue entry (releaseTransfer sees Queued and never touches Active).
  Found->Queued = true;
  ++QueuedNow;
  ++TotalQueued;
  D.Pending.push_back(Id);
  trace("#%llu queued at %s (%u active, %zu pending)",
        static_cast<unsigned long long>(Id),
        Found->Spec.Destination->name().c_str(), D.Active,
        D.Pending.size());
  if (D.Pending.size() <= Admission.QueueDepth)
    return;
  // Full: pick the victim deterministically.  The newcomer sits at the
  // tail (ids are monotonic, so Pending is in submission order).
  TransferId Victim = Id;
  switch (Admission.Shed) {
  case ShedPolicy::Reject:
    break;
  case ShedPolicy::ShedOldest:
    Victim = D.Pending.front();
    break;
  }
  shedTransfer(Victim, Victim == Id ? "queue full" : "displaced");
}

void TransferManager::shedTransfer(TransferId Id, const char *Reason) {
  ActiveTransfer *Found = findTransfer(Id);
  assert(Found && Found->Queued && "shedding a non-queued transfer");
  TransferResult Result = Found->Result;
  Result.Status = TransferStatus::Shed;
  Result.EndTime = Sim.now();
  Result.QueueSeconds = Sim.now() - Result.StartTime;
  Result.StartupSeconds = 0.0; // Never ran the control dialogue.
  CompletionFn Done = std::move(Found->OnComplete);
  releaseTransfer(Id);
  ++TotalShed;
  trace("#%llu SHED (%s) after %.3f s queued",
        static_cast<unsigned long long>(Result.Id), Reason,
        Result.QueueSeconds);
  // Defer the callback: a Reject-policy shed happens inside submit(),
  // before the caller even has the transfer id in hand.  The (callback,
  // result) pair parks in a FIFO so the zero-delay event captures only
  // `this` — zero-delay events fire in schedule order, so each firing
  // pops its own entry.
  if (Done) {
    ShedDone.emplace_back(std::move(Done), Result);
    Sim.schedule(0.0, [this] {
      auto Pending = std::move(ShedDone.front());
      ShedDone.pop_front();
      Pending.first(Pending.second);
    });
  }
}

void TransferManager::onDeadline(TransferId Id) {
  ActiveTransfer *Found = findTransfer(Id);
  if (!Found)
    return;
  Found->DeadlineEvent = InvalidEventId;
  failTransfer(Id, "deadline expired", TransferStatus::DeadlineExpired);
}

void TransferManager::beginData(TransferId Id) {
  ActiveTransfer *Found = findTransfer(Id);
  if (!Found)
    return; // Cancelled during the startup phase.
  ActiveTransfer &T = *Found;

  std::vector<Host *> &Sources = SourceScratch;
  Sources.assign(T.Spec.Stripes.begin(), T.Spec.Stripes.end());
  if (Sources.empty())
    Sources.push_back(T.Spec.Source);

  Bytes WireBytes = protocolWireBytes(T.Spec.Protocol, T.Result.FileBytes);
  T.PayloadPerWire = WireBytes > 0.0 ? T.Result.FileBytes / WireBytes : 1.0;
  std::vector<double> &Weights = WeightScratch;
  Weights.assign(T.Spec.StripeWeights.begin(), T.Spec.StripeWeights.end());
  if (Weights.empty()) {
    Weights.assign(Sources.size(), 1.0);
  } else {
    assert(Weights.size() == Sources.size() &&
           "stripe weights must match the stripe list");
  }
  double TotalWeight = 0.0;
  for (double W : Weights) {
    assert(W > 0.0 && "stripe weights must be positive");
    TotalWeight += W;
  }

  T.StripesRemaining = Sources.size();
  T.StripesLive.resize(Sources.size());
  for (size_t I = 0, E = Sources.size(); I != E; ++I) {
    Stripe &S = T.StripesLive[I];
    S.Source = Sources[I];
    S.WireBytes = WireBytes * Weights[I] / TotalWeight;
    startStripeFlow(Id, I, S.WireBytes);
  }
}

SimTime TransferManager::backoffSeconds(unsigned ConsecutiveFailures) const {
  // The first failure after payload progress reconnects immediately (a
  // transient connection reset does not merit punishment); repeated
  // failures without progress back off exponentially.
  if (ConsecutiveFailures <= 1)
    return 0.0;
  double Exp = Policy.BackoffBase *
               std::pow(RetryPolicy::BackoffFactor,
                        static_cast<double>(ConsecutiveFailures - 2));
  return std::min(Exp, Policy.BackoffMax);
}

void TransferManager::startStripeFlow(TransferId Id, size_t StripeIdx,
                                      Bytes Volume) {
  ActiveTransfer *Found = findTransfer(Id);
  assert(Found && "starting a stripe for an unknown transfer");
  ActiveTransfer &T = *Found;
  Stripe &S = T.StripesLive[StripeIdx];
  // A dead source (or destination) refuses the data connection outright.
  // Burn a reconnect attempt and try again after the backoff — when the
  // host reboots, the next attempt goes through.
  if (!S.Source->available() || !T.Spec.Destination->isUp()) {
    ++S.ConsecutiveFailures;
    if (Policy.MaxAttempts && S.ConsecutiveFailures > Policy.MaxAttempts) {
      failTransfer(Id, "endpoint unreachable");
      return;
    }
    const NetPath *Path =
        Net.routing().pathRef(S.Source->node(), T.Spec.Destination->node());
    assert(Path && "transfer endpoints became disconnected");
    SimTime Delay = TcpModel::connectTime(*Path) + Path->Rtt +
                    backoffSeconds(S.ConsecutiveFailures);
    trace("#%llu stripe %zu connect refused (attempt %u); retry in %.3f s",
          static_cast<unsigned long long>(Id), StripeIdx,
          S.ConsecutiveFailures, Delay);
    S.RetryEvent = Sim.schedule(Delay, [this, Id, StripeIdx, Volume] {
      if (ActiveTransfer *A = findTransfer(Id)) {
        A->StripesLive[StripeIdx].RetryEvent = InvalidEventId;
        startStripeFlow(Id, StripeIdx, Volume);
      }
    });
    return;
  }
  S.AttemptWire = Volume;
  S.LastProgress = Sim.now();
  FlowOptions Opt;
  Opt.Streams = T.Spec.Streams;
  Opt.EndpointCap =
      endpointCap(*S.Source, *T.Spec.Destination, /*CountSelf=*/true);
  S.Flow = Net.startFlow(
      S.Source->node(), T.Spec.Destination->node(), Volume, Opt,
      [this, Id, StripeIdx](const FlowStats &) {
        onStripeDone(Id, StripeIdx);
      });
  noteStripeUp(*S.Source, *T.Spec.Destination);
}

void TransferManager::onStripeDone(TransferId Id, size_t StripeIdx) {
  ActiveTransfer *Found = findTransfer(Id);
  assert(Found && "stripe completion for unknown transfer");
  ActiveTransfer &T = *Found;
  Stripe &S = T.StripesLive[StripeIdx];

  tearDownStripe(T, S);
  // The attempt's whole volume landed: it counts toward the file exactly
  // once, whatever protocol we ran.
  S.DeliveredWire += S.AttemptWire;
  T.Result.DeliveredBytes += S.AttemptWire * T.PayloadPerWire;
  S.AttemptWire = 0.0;

  assert(T.StripesRemaining > 0 && "stripe count underflow");
  if (--T.StripesRemaining != 0)
    return;

  TransferResult Result = T.Result;
  Result.EndTime = Sim.now();
  Result.DataSeconds =
      Result.totalSeconds() - Result.StartupSeconds - Result.QueueSeconds;
  // Observe before releaseTransfer resets the slot: the spec (source,
  // streams) is still intact here.
  if (Observer)
    Observer(T.Spec, Result);
  CompletionFn Done = std::move(T.OnComplete);
  releaseTransfer(Id);
  ++Completed;
  trace("#%llu done in %.3f s (%.1f Mb/s mean, %u restart(s))",
        static_cast<unsigned long long>(Result.Id), Result.totalSeconds(),
        Result.meanThroughput() / 1e6, Result.Restarts);
  if (Done)
    Done(Result);
}

void TransferManager::tearDownStripe(const ActiveTransfer &T, Stripe &S) {
  S.Source->disk().removeTransferLoad(S.AccountedRate);
  T.Spec.Destination->disk().removeTransferLoad(S.AccountedRate);
  S.AccountedRate = 0.0;
  S.Flow = InvalidFlowId;
  noteStripeDown(*S.Source, *T.Spec.Destination);
}

bool TransferManager::cancel(TransferId Id) {
  ActiveTransfer *Found = findTransfer(Id);
  if (!Found)
    return false;
  ActiveTransfer &T = *Found;
  for (Stripe &S : T.StripesLive) {
    if (S.Flow == InvalidFlowId)
      continue;
    Net.cancelFlow(S.Flow);
    tearDownStripe(T, S);
  }
  trace("#%llu cancelled", static_cast<unsigned long long>(Id));
  releaseTransfer(Id);
  return true;
}

void TransferManager::failStripe(TransferId Id, size_t StripeIdx,
                                 bool Timeout) {
  ActiveTransfer *Found = findTransfer(Id);
  if (!Found)
    return; // Torn down meanwhile (e.g. a sibling stripe failed it).
  ActiveTransfer &T = *Found;
  Stripe &S = T.StripesLive[StripeIdx];
  if (S.Flow == InvalidFlowId)
    return; // Already finished, or already waiting on a reconnect.

  Bytes Remaining = Net.remainingBytes(S.Flow);
  Net.cancelFlow(S.Flow);
  tearDownStripe(T, S);
  ++T.Result.Restarts;
  ++TotalRestarts;
  if (Timeout) {
    ++T.Result.Timeouts;
    ++TotalTimeouts;
  }

  // GridFTP writes restart markers as blocks land: the retry resumes at
  // the last marker, so the delivered prefix is banked.  Plain FTP
  // restarts the partition from scratch — the partial progress will move
  // again, which is exactly what ResentBytes accounts.
  Bytes Done = S.AttemptWire - Remaining;
  bool Resumable = T.Spec.Protocol != TransferProtocol::Ftp;
  if (Done > 0.0) {
    if (Resumable) {
      S.DeliveredWire += Done;
      T.Result.DeliveredBytes += Done * T.PayloadPerWire;
    } else {
      T.Result.ResentBytes += Done * T.PayloadPerWire;
    }
    // Progress was made: this failure is not part of a losing streak.
    S.ConsecutiveFailures = 1;
  } else {
    ++S.ConsecutiveFailures;
  }
  S.AttemptWire = 0.0;

  if (Policy.MaxAttempts && S.ConsecutiveFailures > Policy.MaxAttempts) {
    trace("#%llu stripe %zu out of attempts (%u)",
          static_cast<unsigned long long>(Id), StripeIdx,
          S.ConsecutiveFailures);
    failTransfer(Id, Timeout ? "stalled" : "connection lost");
    return;
  }

  Bytes RetryVolume = Resumable ? Remaining : S.WireBytes;
  trace("#%llu stripe %zu failed%s; %s %.0f MB",
        static_cast<unsigned long long>(Id), StripeIdx,
        Timeout ? " (stall timeout)" : "",
        Resumable ? "resuming remaining" : "restarting full",
        RetryVolume / (1024.0 * 1024.0));
  // Reconnect: a fresh data connection plus one control round trip to
  // re-issue RETR (with a REST marker when resumable), plus the backoff
  // this losing streak has earned.
  const NetPath *Path =
      Net.routing().pathRef(S.Source->node(), T.Spec.Destination->node());
  assert(Path && "transfer endpoints became disconnected");
  SimTime Delay = TcpModel::connectTime(*Path) + Path->Rtt +
                  backoffSeconds(S.ConsecutiveFailures);
  S.RetryEvent = Sim.schedule(Delay, [this, Id, StripeIdx, RetryVolume] {
    // The transfer may have been torn down meanwhile.
    if (ActiveTransfer *A = findTransfer(Id)) {
      A->StripesLive[StripeIdx].RetryEvent = InvalidEventId;
      startStripeFlow(Id, StripeIdx, RetryVolume);
    }
  });
}

void TransferManager::failTransfer(TransferId Id, const char *Reason,
                                   TransferStatus St) {
  ActiveTransfer *Found = findTransfer(Id);
  assert(Found && "failing an unknown transfer");
  assert((St == TransferStatus::Failed ||
          St == TransferStatus::DeadlineExpired) &&
         "failTransfer reports failure statuses");
  ActiveTransfer &T = *Found;
  for (Stripe &S : T.StripesLive) {
    if (S.Flow == InvalidFlowId)
      continue;
    Net.cancelFlow(S.Flow);
    tearDownStripe(T, S);
  }
  TransferResult Result = T.Result;
  Result.Status = St;
  Result.EndTime = Sim.now();
  if (T.Queued) {
    // Never admitted (a deadline can expire in the queue): the whole
    // lifetime was queue wait, and no control dialogue ever ran.
    Result.QueueSeconds = Sim.now() - Result.StartTime;
    Result.StartupSeconds = 0.0;
  }
  Result.DataSeconds = std::max(0.0, Result.totalSeconds() -
                                         Result.StartupSeconds -
                                         Result.QueueSeconds);
  if (Observer)
    Observer(T.Spec, Result);
  CompletionFn Done = std::move(T.OnComplete);
  releaseTransfer(Id);
  if (St == TransferStatus::DeadlineExpired)
    ++TotalDeadlineExpired;
  else
    ++Failed;
  trace("#%llu %s (%s): %.0f of %.0f MB delivered, %u restart(s)",
        static_cast<unsigned long long>(Result.Id),
        St == TransferStatus::DeadlineExpired ? "DEADLINE EXPIRED"
                                              : "FAILED",
        Reason, Result.DeliveredBytes / (1024.0 * 1024.0),
        Result.FileBytes / (1024.0 * 1024.0), Result.Restarts);
  if (Done)
    Done(Result);
}

void TransferManager::injectFailure(TransferId Id) {
  ActiveTransfer *Found = findTransfer(Id);
  if (!Found)
    return;
  // Snapshot the stripe count: failStripe may fail the whole transfer
  // (MaxAttempts == 1) and release the slot under us.
  size_t NumStripes = Found->StripesLive.size();
  for (size_t I = 0; I != NumStripes; ++I)
    failStripe(Id, I, /*Timeout=*/false);
}

void TransferManager::failHost(const Host &H, bool MachineDown) {
  // Collect first: failTransfer/failStripe mutate ActiveList.
  std::vector<TransferId> DeadDestinations;
  std::vector<std::pair<TransferId, size_t>> DeadStripes;
  for (const auto &[Id, Slot] : ActiveList) {
    if (Slot == DeadEntry)
      continue;
    const ActiveTransfer &T = Slots[Slot];
    if (MachineDown && T.Spec.Destination == &H) {
      // The receiving server lost the partial file state; the client must
      // re-fetch (possibly from another replica).
      DeadDestinations.push_back(Id);
      continue;
    }
    for (size_t I = 0, E = T.StripesLive.size(); I != E; ++I)
      if (T.StripesLive[I].Source == &H &&
          T.StripesLive[I].Flow != InvalidFlowId)
        DeadStripes.emplace_back(Id, I);
  }
  for (TransferId Id : DeadDestinations)
    failTransfer(Id, "destination host down");
  for (auto [Id, I] : DeadStripes)
    failStripe(Id, I, /*Timeout=*/false);
}

BitRate TransferManager::endpointCap(const Host &Src, const Host &Dst,
                                     bool CountSelf) const {
  // When the flow being capped is not yet live it must be counted among
  // the sharers explicitly; on refresh it already is.
  unsigned Extra = CountSelf ? 1 : 0;
  BitRate SrcCap = Src.sourceCap(std::max(activeReaders(Src) + Extra, 1u));
  BitRate DstCap = Dst.sinkCap(std::max(activeWriters(Dst) + Extra, 1u));
  return std::min(SrcCap, DstCap);
}

unsigned TransferManager::activeReaders(const Host &H) const {
  auto It = ReadersByHost.find(&H);
  return It == ReadersByHost.end() ? 0 : It->second;
}

unsigned TransferManager::activeWriters(const Host &H) const {
  auto It = WritersByHost.find(&H);
  return It == WritersByHost.end() ? 0 : It->second;
}

void TransferManager::noteStripeUp(const Host &Src, const Host &Dst) {
  ++ReadersByHost[&Src];
  ++WritersByHost[&Dst];
}

void TransferManager::noteStripeDown(const Host &Src, const Host &Dst) {
  auto R = ReadersByHost.find(&Src);
  assert(R != ReadersByHost.end() && R->second > 0 &&
         "reader count out of sync");
  if (--R->second == 0)
    ReadersByHost.erase(R);
  auto W = WritersByHost.find(&Dst);
  assert(W != WritersByHost.end() && W->second > 0 &&
         "writer count out of sync");
  if (--W->second == 0)
    WritersByHost.erase(W);
}

void TransferManager::refreshCaps() {
  // The stall watchdog collects victims during the sweep and tears them
  // down afterwards: failStripe mutates ActiveList.
  bool WatchStalls = std::isfinite(Policy.StallTimeout);
  std::vector<std::pair<TransferId, size_t>> Stalled;
  for (auto &[Id, Slot] : ActiveList) {
    if (Slot == DeadEntry)
      continue;
    ActiveTransfer &T = Slots[Slot];
    for (size_t I = 0, E = T.StripesLive.size(); I != E; ++I) {
      Stripe &S = T.StripesLive[I];
      if (S.Flow == InvalidFlowId)
        continue;
      // Mirror the current payload rate into the endpoint disks so the
      // sysstat/iostat sensors see grid traffic.
      BitRate Rate = Net.currentRate(S.Flow);
      S.Source->disk().removeTransferLoad(S.AccountedRate);
      T.Spec.Destination->disk().removeTransferLoad(S.AccountedRate);
      S.Source->disk().addTransferLoad(Rate);
      T.Spec.Destination->disk().addTransferLoad(Rate);
      S.AccountedRate = Rate;
      if (Rate > 0.0) {
        S.LastProgress = Sim.now();
      } else if (WatchStalls &&
                 Sim.now() - S.LastProgress >= Policy.StallTimeout) {
        Stalled.emplace_back(Id, I);
        continue; // No point re-capping a flow about to be torn down.
      }
      // Re-derive the endpoint cap from the hosts' current state.  In
      // batched mode the solve is deferred to one commit after the sweep.
      BitRate Cap =
          endpointCap(*S.Source, *T.Spec.Destination, /*CountSelf=*/false);
      if (BatchedRefresh)
        Net.updateEndpointCap(S.Flow, Cap);
      else
        Net.setEndpointCap(S.Flow, Cap);
    }
  }
  if (BatchedRefresh)
    Net.commitEndpointCaps();
  for (auto [Id, I] : Stalled)
    failStripe(Id, I, /*Timeout=*/true);
}
