//===- net/FlowNetwork.cpp -------------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Incremental fluid-flow engine.  The invariants that make the incremental
// rebalance exact:
//
//  * ChannelUsage/ChannelSaturated always describe the *standing* (global
//    max-min) allocation between events.
//  * An event's affected component is seeded by the changed flows and closed
//    transitively over channels saturated in the standing allocation.  A
//    saturated channel is the only medium through which one flow's rate
//    change can move another's, so every channel on the component's boundary
//    is unsaturated and the flows beyond it provably keep their rates.
//  * The component is re-solved against residual capacities (capacity minus
//    the frozen flows' usage).  If the new allocation drives a boundary
//    channel to saturation, its frozen flows are pulled in and the solve
//    repeats; the fixpoint equals the global solution.
//
// Per-flow progress is settled lazily (Remaining is valid as of RateSince)
// and completions live in a min-heap of (time, id, epoch) entries that are
// invalidated lazily by bumping the flow's epoch whenever its rate changes.
// A completion time is invariant while the rate is unchanged, so untouched
// flows cost nothing per event.
//
//===----------------------------------------------------------------------===//

#include "net/FlowNetwork.h"

#include "support/AllocStats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

using namespace dgsim;

namespace {

// Flows within this many bytes of done are considered complete (guards
// against floating-point residue in rate * dt accounting).
constexpr Bytes CompletionSlackBytes = 1e-3;

// Usage within this relative distance of capacity marks a channel as
// saturated (binding) in the standing allocation.
constexpr double SatThreshold = 1.0 - 1e-9;

// Check mode: largest tolerated relative divergence between the standing
// incremental rates and a full from-scratch solve.
constexpr double CheckTolerance = 1e-9;

// Min-heap order over (time, id); used with std::push_heap/std::pop_heap.
constexpr auto EntryLater = [](const auto &A, const auto &B) {
  if (A.Time != B.Time)
    return A.Time > B.Time;
  return A.Id > B.Id;
};

} // namespace

FlowNetwork::FlowNetwork(Simulator &Sim, const Topology &Topo, Routing &Router)
    : Sim(Sim), Topo(Topo), Router(Router) {
  size_t NumCh = Topo.channelCount();
  ChannelCap.resize(NumCh);
  double Goodput = TcpModel::goodputFactor();
  for (size_t Ch = 0; Ch != NumCh; ++Ch)
    ChannelCap[Ch] = Topo.channelCapacity(ChannelId(Ch)) * Goodput;
  ChannelUsage.assign(NumCh, 0.0);
  ChannelSaturated.assign(NumCh, 0);
  ChannelFlows.resize(NumCh);
  ChanScratch.resize(NumCh);
  LinkDown.assign(Topo.linkCount(), 0);
}

//===----------------------------------------------------------------------===//
// Flow store
//===----------------------------------------------------------------------===//

uint32_t FlowNetwork::allocSlot() {
  if (!FreeSlots.empty()) {
    uint32_t Slot = FreeSlots.back();
    FreeSlots.pop_back();
    return Slot;
  }
  uint32_t Slot = uint32_t(Slots.size());
  Slots.emplace_back();
  InComponent.push_back(0);
  PoolStats::noteGrowth();
  return Slot;
}

void FlowNetwork::freeSlot(uint32_t Slot) {
  ActiveFlow &F = Slots[Slot];
  F.Live = false;
  F.OnComplete = nullptr;
  if (F.Path) {
    // Drop the route-cache pin taken in startFlow.
    Router.releasePath(F.Src, F.Dst);
    F.Path = nullptr;
  }
  F.Rate = 0.0;
  FreeSlots.push_back(Slot);
}

uint32_t FlowNetwork::findSlot(FlowId Id) const {
  auto It = IdToSlot.find(Id);
  return It == IdToSlot.end() ? ~0u : It->second;
}

void FlowNetwork::insertIncidence(uint32_t Slot) {
  ActiveFlow &F = Slots[Slot];
  const auto &Chans = F.Path->Channels;
  F.ChanPos.resize(Chans.size());
  for (size_t I = 0; I != Chans.size(); ++I) {
    auto &List = ChannelFlows[Chans[I]];
    F.ChanPos[I] = uint32_t(List.size());
    List.push_back(Slot);
  }
}

void FlowNetwork::removeIncidence(uint32_t Slot) {
  ActiveFlow &F = Slots[Slot];
  const auto &Chans = F.Path->Channels;
  for (size_t I = 0; I != Chans.size(); ++I) {
    auto &List = ChannelFlows[Chans[I]];
    uint32_t Pos = F.ChanPos[I];
    uint32_t Last = List.back();
    List[Pos] = Last;
    List.pop_back();
    if (Last != Slot) {
      // Swap-remove moved another flow; fix its back-pointer.
      ActiveFlow &G = Slots[Last];
      const auto &GChans = G.Path->Channels;
      for (size_t J = 0; J != GChans.size(); ++J)
        if (GChans[J] == Chans[I]) {
          G.ChanPos[J] = Pos;
          break;
        }
    }
  }
  F.ChanPos.clear();
}

//===----------------------------------------------------------------------===//
// Lazy progress + completion heap
//===----------------------------------------------------------------------===//

Bytes FlowNetwork::remainingAt(const ActiveFlow &F, SimTime Now) const {
  SimTime Dt = Now - F.RateSince;
  if (Dt <= 0.0 || F.Rate <= 0.0)
    return F.Remaining;
  if (std::isinf(F.Rate))
    return 0.0;
  Bytes Rem = F.Remaining - F.Rate / 8.0 * Dt;
  return Rem > 0.0 ? Rem : 0.0;
}

void FlowNetwork::settleFlow(ActiveFlow &F) {
  SimTime Now = Sim.now();
  F.Remaining = remainingAt(F, Now);
  F.RateSince = Now;
}

void FlowNetwork::pushCompletion(const ActiveFlow &F) {
  SimTime Time;
  if (F.Remaining <= CompletionSlackBytes || std::isinf(F.Rate))
    Time = Sim.now();
  else if (F.Rate > 0.0)
    Time = F.RateSince + F.Remaining * 8.0 / F.Rate;
  else
    return; // Stalled: no completion until the rate changes.
  CompletionHeap.push_back(CompletionEntry{Time, F.Id, F.Epoch});
  std::push_heap(CompletionHeap.begin(), CompletionHeap.end(), EntryLater);
  // Bound the stale-entry residue so the heap stays proportional to the
  // live flow count.
  if (CompletionHeap.size() > 64 &&
      CompletionHeap.size() > 4 * IdToSlot.size()) {
    size_t Keep = 0;
    for (const CompletionEntry &E : CompletionHeap) {
      uint32_t Slot = findSlot(E.Id);
      if (Slot != ~0u && Slots[Slot].Epoch == E.Epoch)
        CompletionHeap[Keep++] = E;
    }
    CompletionHeap.resize(Keep);
    std::make_heap(CompletionHeap.begin(), CompletionHeap.end(), EntryLater);
  }
}

bool FlowNetwork::peekCompletion(SimTime &Time) {
  while (!CompletionHeap.empty()) {
    const CompletionEntry &Top = CompletionHeap.front();
    uint32_t Slot = findSlot(Top.Id);
    if (Slot != ~0u && Slots[Slot].Epoch == Top.Epoch) {
      Time = Top.Time;
      return true;
    }
    std::pop_heap(CompletionHeap.begin(), CompletionHeap.end(), EntryLater);
    CompletionHeap.pop_back();
  }
  return false;
}

void FlowNetwork::setRate(ActiveFlow &F, BitRate NewRate) {
  settleFlow(F);
  if (NewRate == F.Rate && F.Remaining > CompletionSlackBytes)
    return; // Same rate, not due: the standing completion entry stays exact.
  bool WasMoving = F.Rate > 0.0;
  bool Moving = NewRate > 0.0;
  if (Moving && !WasMoving)
    ++MovingFlows;
  else if (!Moving && WasMoving)
    --MovingFlows;
  F.Rate = NewRate;
  ++F.Epoch; // Invalidates the old completion entry.
  pushCompletion(F);
}

//===----------------------------------------------------------------------===//
// Incremental rebalance
//===----------------------------------------------------------------------===//

uint32_t FlowNetwork::touchChannel(ChannelId Ch) {
  ChannelScratch &CS = ChanScratch[Ch];
  if (CS.Stamp != CurStamp) {
    CS.Stamp = CurStamp;
    CS.Local = ~0u;
    CS.SCount = 0;
    CS.SUsage = 0.0;
    CS.NewUsage = 0.0;
    CS.Expanded = 0;
    TouchedChannels.push_back(Ch);
  }
  return Ch;
}

void FlowNetwork::addToComponent(uint32_t Slot) {
  if (!InComponent[Slot]) {
    InComponent[Slot] = 1;
    CompSlots.push_back(Slot);
  }
}

void FlowNetwork::detachFlow(uint32_t Slot) {
  ActiveFlow &F = Slots[Slot];
  for (ChannelId Ch : F.Path->Channels) {
    if (F.Rate > 0.0)
      ChannelUsage[Ch] -= F.Rate;
    // The channel's accounting must be refreshed, and if it was binding,
    // its surviving flows can now speed up.
    SeedChannels.push_back(Ch);
  }
  removeIncidence(Slot);
  if (F.Rate > 0.0)
    --MovingFlows;
  if (!F.Background)
    --ForegroundFlows;
  IdToSlot.erase(F.Id);
}

void FlowNetwork::expandChannel(ChannelId Ch) {
  ChanScratch[Ch].Expanded = 1;
  for (uint32_t S : ChannelFlows[Ch])
    addToComponent(S);
}

void FlowNetwork::closeOver() {
  while (CompProcessed != CompSlots.size()) {
    ActiveFlow &F = Slots[CompSlots[CompProcessed++]];
    for (ChannelId Ch : F.Path->Channels) {
      ChannelScratch &CS = ChanScratch[touchChannel(Ch)];
      ++CS.SCount;
      CS.SUsage += F.Rate;
      if (ChannelSaturated[Ch] && !CS.Expanded)
        expandChannel(Ch);
    }
  }
}

double FlowNetwork::solveComponent(const ProbeSpec *Probe) {
  const bool Commit = Probe == nullptr;
  if (Commit && SeedSlots.empty() && SeedChannels.empty()) {
    scheduleNext();
    return 0.0;
  }

  if (++CurStamp == 0) { // uint32 wrap: invalidate every stamp explicitly.
    for (ChannelScratch &CS : ChanScratch)
      CS.Stamp = 0;
    CurStamp = 1;
  }
  TouchedChannels.clear();
  CompSlots.clear();
  CompProcessed = 0;

  // Seed channels (paths of removed flows): refresh their accounting, and
  // pull in every flow of the ones that were binding.
  for (ChannelId Ch : SeedChannels) {
    touchChannel(Ch);
    if (ChannelSaturated[Ch] && !ChanScratch[Ch].Expanded)
      expandChannel(Ch);
  }
  for (uint32_t S : SeedSlots)
    addToComponent(S);
  SeedSlots.clear();
  SeedChannels.clear();
  if (Probe)
    for (ChannelId Ch : Probe->Path->Channels) {
      touchChannel(Ch);
      if (ChannelSaturated[Ch] && !ChanScratch[Ch].Expanded)
        expandChannel(Ch);
    }

  // Close the component over channels saturated in the standing allocation;
  // unsaturated channels do not bind, so the flows beyond them stay frozen.
  closeOver();

  double ProbeRate = 0.0;
  while (true) {
    // Assemble the component's sub-problem against residual capacities.
    Ws.clear();
    for (ChannelId Ch : TouchedChannels)
      ChanScratch[Ch].Local = ~0u;
    for (uint32_t S : CompSlots) {
      ActiveFlow &F = Slots[S];
      Ws.beginDemand(effectiveCap(F), F.Weight);
      for (ChannelId Ch : F.Path->Channels) {
        ChannelScratch &CS = ChanScratch[Ch];
        if (CS.Local == ~0u)
          CS.Local = Ws.addResource(0.0);
        Ws.demandUses(CS.Local);
      }
    }
    uint32_t ProbeDemand = ~0u;
    if (Probe) {
      ProbeDemand = Ws.beginDemand(Probe->Cap, Probe->Weight);
      for (ChannelId Ch : Probe->Path->Channels) {
        ChannelScratch &CS = ChanScratch[Ch];
        if (CS.Local == ~0u)
          CS.Local = Ws.addResource(0.0);
        Ws.demandUses(CS.Local);
      }
    }
    for (ChannelId Ch : TouchedChannels) {
      ChannelScratch &CS = ChanScratch[Ch];
      if (CS.Local == ~0u)
        continue; // Touched for bookkeeping only; no component flow here.
      double FrozenUsage = ChannelUsage[Ch] - CS.SUsage;
      Ws.setResourceCapacity(CS.Local,
                             std::clamp(ChannelCap[Ch] - FrozenUsage, 0.0,
                                        ChannelCap[Ch]));
    }
    Ws.solve();
    if (Probe)
      ProbeRate = Ws.rate(ProbeDemand);

    // Post-solve audit: recompute usage on every touched channel.  A channel
    // that newly saturates while frozen flows sit on it invalidates their
    // freeze — pull them in and re-solve (terminates: the component only
    // grows, bounded by the number of live flows).
    for (ChannelId Ch : TouchedChannels) {
      ChannelScratch &CS = ChanScratch[Ch];
      CS.NewUsage = ChannelUsage[Ch] - CS.SUsage;
    }
    uint32_t D = 0;
    for (uint32_t S : CompSlots) {
      double R = Ws.rate(D++);
      for (ChannelId Ch : Slots[S].Path->Channels)
        ChanScratch[Ch].NewUsage += R;
    }
    if (Probe)
      for (ChannelId Ch : Probe->Path->Channels)
        ChanScratch[Ch].NewUsage += ProbeRate;
    bool Grew = false;
    for (ChannelId Ch : TouchedChannels) {
      ChannelScratch &CS = ChanScratch[Ch];
      if (CS.Expanded || ChannelFlows[Ch].size() <= CS.SCount)
        continue; // No frozen flows incident; nothing to pull in.
      if (CS.NewUsage >= ChannelCap[Ch] * SatThreshold) {
        expandChannel(Ch);
        Grew = true;
      }
    }
    if (!Grew)
      break;
    closeOver();
  }

  for (uint32_t S : CompSlots)
    InComponent[S] = 0;

  if (!Commit) {
    ++StatProbes;
    return ProbeRate;
  }

  ++StatEvents;
  StatDemands += CompSlots.size();
  uint32_t D = 0;
  for (uint32_t S : CompSlots)
    setRate(Slots[S], Ws.rate(D++));
  for (ChannelId Ch : TouchedChannels) {
    ChannelScratch &CS = ChanScratch[Ch];
    ChannelUsage[Ch] = CS.NewUsage;
    ChannelSaturated[Ch] = CS.NewUsage >= ChannelCap[Ch] * SatThreshold;
  }
  scheduleNext();
  if (CheckRebalance)
    verifyAgainstFullSolve();
  return 0.0;
}

void FlowNetwork::rebalanceAll() {
  for (uint32_t S = 0; S != uint32_t(Slots.size()); ++S)
    if (Slots[S].Live)
      SeedSlots.push_back(S);
  solveComponent(nullptr);
}

//===----------------------------------------------------------------------===//
// Event scheduling
//===----------------------------------------------------------------------===//

void FlowNetwork::scheduleNext() {
  SimTime When = 0.0;
  EventKind Want = EventKind::None;
  if (peekCompletion(When)) {
    Want = EventKind::Completion;
    When = std::max(When, Sim.now());
  } else if (ForegroundFlows > 0) {
    // Every flow is stalled (busy endpoints or a down link) but foreground
    // work is pending: keep Simulator::run() alive with a watchdog so
    // progress resumes when daemons free capacity.
    Want = EventKind::Watchdog;
    When = Sim.now() + StallRecheckPeriod;
  }
  bool WantDaemon = Want == EventKind::Completion && ForegroundFlows == 0;

  // Keep an identical pending completion (the common case when an event did
  // not touch the earliest-finishing flow).  Watchdogs always re-arm.
  if (Want == NextEventKind && Want != EventKind::Watchdog &&
      (Want == EventKind::None ||
       (When == NextEventTime && WantDaemon == NextEventDaemon)))
    return;

  if (NextEvent != InvalidEventId) {
    Sim.cancel(NextEvent);
    NextEvent = InvalidEventId;
  }
  NextEventKind = Want;
  if (Want == EventKind::None)
    return;
  NextEventTime = When;
  NextEventDaemon = WantDaemon;
  EventKind Kind = Want;
  auto Fire = [this, Kind] {
    NextEvent = InvalidEventId;
    NextEventKind = EventKind::None;
    if (Kind == EventKind::Completion)
      finishDueFlows();
    else
      rebalanceAll();
  };
  NextEvent = WantDaemon ? Sim.scheduleDaemonAt(When, std::move(Fire))
                         : Sim.scheduleAt(When, std::move(Fire));
}

void FlowNetwork::finishDueFlows() {
  SimTime Now = Sim.now();
  std::vector<std::pair<FlowId, uint32_t>> &Due = DueScratch;
  Due.clear();
  while (!CompletionHeap.empty()) {
    CompletionEntry Top = CompletionHeap.front();
    if (Top.Time > Now)
      break;
    std::pop_heap(CompletionHeap.begin(), CompletionHeap.end(), EntryLater);
    CompletionHeap.pop_back();
    uint32_t Slot = findSlot(Top.Id);
    if (Slot == ~0u || Slots[Slot].Epoch != Top.Epoch)
      continue; // Stale entry.
    ActiveFlow &F = Slots[Slot];
    settleFlow(F);
    if (F.Remaining > CompletionSlackBytes && !std::isinf(F.Rate) &&
        F.Rate > 0.0) {
      // Fired marginally early relative to the float completion time;
      // re-arm at the true instant.
      SimTime T = F.RateSince + F.Remaining * 8.0 / F.Rate;
      if (T > Now) {
        CompletionHeap.push_back(CompletionEntry{T, F.Id, F.Epoch});
        std::push_heap(CompletionHeap.begin(), CompletionHeap.end(),
                       EntryLater);
        continue;
      }
    }
    F.Remaining = 0.0;
    Due.emplace_back(F.Id, Slot);
  }
  if (Due.empty()) {
    scheduleNext(); // The pending event fired; re-arm from the heap.
    return;
  }
  // Deterministic completion order: ascending flow id.  Callbacks fire after
  // the survivors have been re-balanced (a callback may start new flows).
  std::sort(Due.begin(), Due.end());
  std::vector<FlowStats> &Done = DoneScratch;
  std::vector<CompletionFn> &Callbacks = CallbackScratch;
  Done.clear();
  Callbacks.clear();
  Done.reserve(Due.size());
  Callbacks.reserve(Due.size());
  for (auto &[Id, Slot] : Due) {
    ActiveFlow &F = Slots[Slot];
    FlowStats Stats;
    Stats.Id = F.Id;
    Stats.Src = F.Src;
    Stats.Dst = F.Dst;
    Stats.TotalBytes = F.Total;
    Stats.StartTime = F.StartTime;
    Stats.EndTime = Now;
    Done.push_back(Stats);
    Callbacks.push_back(std::move(F.OnComplete));
    detachFlow(Slot);
    freeSlot(Slot);
  }
  solveComponent(nullptr);
  for (size_t I = 0; I != Done.size(); ++I)
    if (Callbacks[I])
      Callbacks[I](Done[I]);
}

//===----------------------------------------------------------------------===//
// Public API
//===----------------------------------------------------------------------===//

FlowId FlowNetwork::startFlow(NodeId Src, NodeId Dst, Bytes Volume,
                              const FlowOptions &Options,
                              CompletionFn OnComplete) {
  assert(Volume >= 0.0 && "negative flow volume");
  assert(Options.Streams >= 1 && "flows need at least one stream");
  // Pinned for the flow's lifetime: the slot references Path->Channels in
  // place, and the route cache may not evict a pinned entry.
  const NetPath *Path = Router.acquirePath(Src, Dst);
  assert(Path && "startFlow between disconnected nodes");
  uint32_t Slot = allocSlot();
  ActiveFlow &F = Slots[Slot];
  F.Id = NextFlowId++;
  F.Src = Src;
  F.Dst = Dst;
  F.Path = Path;
  F.Total = Volume;
  F.Remaining = Volume;
  F.StartTime = Sim.now();
  F.RateSince = Sim.now();
  F.Weight = static_cast<double>(Options.Streams);
  F.TcpCap = TcpModel::parallelCap(*Path, Options.Streams);
  F.EndpointCap = Options.EndpointCap;
  F.Rate = 0.0;
  F.DownOnPath = 0;
  if (DownLinkCount > 0)
    for (ChannelId Ch : Path->Channels)
      if (LinkDown[Ch / 2])
        ++F.DownOnPath;
  F.Background = Options.Background;
  F.Live = true;
  F.OnComplete = std::move(OnComplete);
  IdToSlot.emplace(F.Id, Slot);
  if (!F.Background)
    ++ForegroundFlows;
  insertIncidence(Slot);
  SeedSlots.push_back(Slot);
  solveComponent(nullptr);
  return F.Id;
}

void FlowNetwork::cancelFlow(FlowId Id) {
  uint32_t Slot = findSlot(Id);
  if (Slot == ~0u)
    return;
  detachFlow(Slot);
  freeSlot(Slot);
  solveComponent(nullptr);
}

void FlowNetwork::setEndpointCap(FlowId Id, BitRate Cap) {
  updateEndpointCap(Id, Cap);
  commitEndpointCaps();
}

void FlowNetwork::updateEndpointCap(FlowId Id, BitRate Cap) {
  uint32_t Slot = findSlot(Id);
  if (Slot == ~0u)
    return;
  assert(Cap >= 0.0 && "negative endpoint cap");
  if (Slots[Slot].EndpointCap == Cap)
    return;
  Slots[Slot].EndpointCap = Cap;
  SeedSlots.push_back(Slot);
}

void FlowNetwork::commitEndpointCaps() {
  if (!SeedSlots.empty())
    solveComponent(nullptr);
}

BitRate FlowNetwork::currentRate(FlowId Id) const {
  uint32_t Slot = findSlot(Id);
  return Slot == ~0u ? 0.0 : Slots[Slot].Rate;
}

Bytes FlowNetwork::remainingBytes(FlowId Id) const {
  uint32_t Slot = findSlot(Id);
  return Slot == ~0u ? 0.0 : remainingAt(Slots[Slot], Sim.now());
}

void FlowNetwork::setLinkEnabled(LinkId Link, bool Enabled) {
  assert(Link < LinkDown.size() && "link id out of range");
  if (Enabled == (LinkDown[Link] == 0))
    return;
  if (Enabled) {
    LinkDown[Link] = 0;
    --DownLinkCount;
  } else {
    LinkDown[Link] = 1;
    ++DownLinkCount;
  }
  for (ChannelId Ch : {ChannelId(2 * Link), ChannelId(2 * Link + 1)})
    for (uint32_t S : ChannelFlows[Ch]) {
      ActiveFlow &F = Slots[S];
      if (Enabled)
        --F.DownOnPath;
      else
        ++F.DownOnPath;
      SeedSlots.push_back(S);
    }
  solveComponent(nullptr);
}

bool FlowNetwork::linkEnabled(LinkId Link) const {
  assert(Link < LinkDown.size() && "link id out of range");
  return LinkDown[Link] == 0;
}

BitRate FlowNetwork::probeBandwidth(NodeId Src, NodeId Dst, unsigned Streams,
                                    BitRate EndpointCap) {
  const NetPath *Path = Router.pathRef(Src, Dst);
  if (!Path)
    return 0.0;
  double Cap = std::min(TcpModel::parallelCap(*Path, Streams), EndpointCap);
  if (DownLinkCount > 0)
    for (ChannelId Ch : Path->Channels)
      if (LinkDown[Ch / 2])
        return 0.0; // A severed path probes at zero, like a stalled flow.
  if (Path->Channels.empty())
    return Cap; // Same-host copy: no channel contention.
  ProbeSpec Probe{Path, Cap, static_cast<double>(Streams)};
  return solveComponent(&Probe);
}

//===----------------------------------------------------------------------===//
// Verification (check mode)
//===----------------------------------------------------------------------===//

double FlowNetwork::maxRebalanceError() {
  CheckWs.clear();
  for (double Cap : ChannelCap)
    CheckWs.addResource(Cap);
  std::vector<uint32_t> Live;
  Live.reserve(IdToSlot.size());
  for (uint32_t S = 0; S != uint32_t(Slots.size()); ++S) {
    const ActiveFlow &F = Slots[S];
    if (!F.Live)
      continue;
    Live.push_back(S);
    CheckWs.beginDemand(effectiveCap(F), F.Weight);
    for (ChannelId Ch : F.Path->Channels)
      CheckWs.demandUses(Ch);
  }
  CheckWs.solve();
  double MaxErr = 0.0;
  for (size_t I = 0; I != Live.size(); ++I) {
    double A = Slots[Live[I]].Rate;
    double B = CheckWs.rate(uint32_t(I));
    if (std::isinf(A) && std::isinf(B))
      continue;
    double Err = std::abs(A - B) / std::max({1.0, std::abs(A), std::abs(B)});
    MaxErr = std::max(MaxErr, Err);
  }
  return MaxErr;
}

void FlowNetwork::verifyAgainstFullSolve() {
  double Err = maxRebalanceError();
  if (Err > CheckTolerance) {
    std::fprintf(stderr,
                 "FlowNetwork: incremental rebalance diverged from full "
                 "solve (max relative error %.3e at t=%.6f, %zu flows)\n",
                 Err, Sim.now(), IdToSlot.size());
    std::abort();
  }
}
