//===- net/FlowNetwork.h - Event-driven fluid flow simulation -------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic heart of the network substrate.
///
/// Transfers are *fluid flows*: each active flow progresses at a rate
/// determined by weighted max-min fair sharing of the channels on its path,
/// clipped by a per-flow cap (TCP stream bounds and end-host disk/CPU
/// limits).  Whenever the flow set or a cap changes, rates are re-solved and
/// the next completion is rescheduled.  This gives exact piecewise-constant
/// rate trajectories without per-packet simulation.
///
/// Rebalancing is *incremental*: a channel->flows incidence index locates
/// the flows affected by an event, the affected set is closed over channels
/// that were saturated in the standing allocation (only binding constraints
/// propagate rate changes), and only that component is re-solved against
/// residual channel capacities — every other flow's rate is provably
/// unchanged and stays frozen.  A post-solve audit catches channels that
/// newly saturate against frozen flows and expands the component to a
/// fixpoint, so the result always equals the global max-min solution.
/// Remaining volumes are settled lazily per flow and completions live in a
/// lazy min-heap, so event cost scales with the affected component, not the
/// number of concurrent flows.  Builds with -DDGSIM_CHECK_REBALANCE (or a
/// setCheckRebalance(true) call) verify every event against a full
/// from-scratch solve.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_NET_FLOWNETWORK_H
#define DGSIM_NET_FLOWNETWORK_H

#include "net/FairShare.h"
#include "net/Routing.h"
#include "net/TcpModel.h"
#include "net/Topology.h"
#include "sim/Simulator.h"
#include "support/InlineFunction.h"

#include <functional>
#include <limits>
#include <unordered_map>
#include <vector>

namespace dgsim {

using FlowId = uint64_t;
inline constexpr FlowId InvalidFlowId = 0;

/// Options controlling a single flow.
struct FlowOptions {
  /// Number of parallel TCP streams bundled into the flow (>= 1).
  unsigned Streams = 1;
  /// Additional cap from outside the network (end-host disk/NIC/CPU),
  /// bits/second of payload.  +inf means network-limited only.
  BitRate EndpointCap = std::numeric_limits<double>::infinity();
  /// Background flows (cross traffic) do not keep Simulator::run() alive:
  /// their completion events are daemons.
  bool Background = false;
};

/// Completion report for a finished flow.
struct FlowStats {
  FlowId Id = InvalidFlowId;
  NodeId Src = InvalidNodeId;
  NodeId Dst = InvalidNodeId;
  Bytes TotalBytes = 0.0;
  SimTime StartTime = 0.0;
  SimTime EndTime = 0.0;

  /// Mean payload rate over the flow's lifetime, bits/second.
  BitRate meanRate() const {
    SimTime D = EndTime - StartTime;
    return D > 0.0 ? TotalBytes * 8.0 / D : 0.0;
  }
};

/// Event-driven fluid network.  Owns no topology; the topology and router
/// must outlive it.
class FlowNetwork {
public:
  /// Inline-buffered callback: per-stripe completion closures fit the
  /// 48-byte buffer, so flow churn allocates no closure storage.
  using CompletionFn = InlineFunction<void(const FlowStats &), 48>;

  FlowNetwork(Simulator &Sim, const Topology &Topo, Routing &Router);

  /// Starts a flow of \p Volume payload bytes from \p Src to \p Dst.
  /// \p OnComplete fires (once) when the last byte is delivered.  The nodes
  /// must be connected.  \returns the flow id.
  FlowId startFlow(NodeId Src, NodeId Dst, Bytes Volume,
                   const FlowOptions &Options, CompletionFn OnComplete);

  /// Aborts an active flow; its completion callback never fires.
  /// No-op when the id is not active.
  void cancelFlow(FlowId Id);

  /// Updates the endpoint cap of an active flow (e.g. the source host's
  /// disk became busier).  No-op when the id is not active.
  void setEndpointCap(FlowId Id, BitRate Cap);

  /// Deferred variant of setEndpointCap: records the new cap and seeds the
  /// flow for the next solve without rebalancing.  Rates and completion
  /// times are stale until commitEndpointCaps() runs; no simulation time
  /// may pass in between.  Lets a batch cap refresh pay one component
  /// solve instead of one per changed flow.
  void updateEndpointCap(FlowId Id, BitRate Cap);

  /// Rebalances once after a run of updateEndpointCap calls (no-op when
  /// none changed anything).
  void commitEndpointCaps();

  /// \returns the instantaneous rate of an active flow, or 0 when inactive.
  BitRate currentRate(FlowId Id) const;

  /// \returns remaining payload bytes of an active flow, or 0 when inactive.
  Bytes remainingBytes(FlowId Id) const;

  /// \returns the number of active flows.
  size_t activeFlows() const { return IdToSlot.size(); }

  /// \returns the number of active flows currently moving (rate > 0).
  size_t movingFlows() const { return MovingFlows; }

  /// Takes a link down or brings it back up.  Flows whose path crosses a
  /// down link stall at rate zero and resume automatically on repair; they
  /// are not re-routed (2005-era grids had static routes).
  void setLinkEnabled(LinkId Link, bool Enabled);

  /// \returns true when the link is up (the default).
  bool linkEnabled(LinkId Link) const;

  /// Estimates the rate a hypothetical new flow with \p Streams streams and
  /// cap \p EndpointCap would receive right now from \p Src to \p Dst,
  /// without disturbing active flows.  This is what an NWS bandwidth probe
  /// measures.  \returns 0 when the nodes are disconnected.
  BitRate probeBandwidth(NodeId Src, NodeId Dst, unsigned Streams = 1,
                         BitRate EndpointCap =
                             std::numeric_limits<double>::infinity());

  /// \returns the topology flows run over.
  const Topology &topology() const { return Topo; }

  /// \returns the router (protocol layers query RTTs for handshakes).
  Routing &routing() { return Router; }

  /// Debug/verification: when enabled, every committed rebalance is checked
  /// against a full from-scratch solve (assert on divergence > 1e-9).
  /// Defaults to on in -DDGSIM_CHECK_REBALANCE builds.
  void setCheckRebalance(bool Enabled) { CheckRebalance = Enabled; }

  /// Debug/verification: \returns the largest relative difference between
  /// the standing incremental rates and a full from-scratch solve.
  double maxRebalanceError();

  /// Perf introspection: rebalance events committed, and total demands
  /// handed to the solver across them.  Their ratio is the mean affected
  /// component size — the quantity incremental rebalancing keeps small.
  uint64_t rebalanceEvents() const { return StatEvents; }
  uint64_t rebalanceDemandsSolved() const { return StatDemands; }

  /// Perf introspection: probeBandwidth() calls that ran a component
  /// solve (committing nothing).  Severed, same-host and unrouted probes
  /// answer without one and are not counted.
  uint64_t probeSolves() const { return StatProbes; }

  /// Perf introspection: fill events created by the solves behind
  /// rebalances and probes (FairShareWorkspace::fillEvents), the solver's
  /// event-ordering work.  Check-mode verification solves are not counted.
  uint64_t fillEvents() const { return Ws.fillEvents(); }

  /// How often fully stalled foreground flows re-check for capacity.
  static constexpr SimTime StallRecheckPeriod = 1.0;

private:
  struct ActiveFlow {
    FlowId Id = InvalidFlowId;
    NodeId Src = InvalidNodeId;
    NodeId Dst = InvalidNodeId;
    /// Channels travelled, referenced in place from the routing cache
    /// (never copied per flow); valid for the router's lifetime.
    const NetPath *Path = nullptr;
    Bytes Total = 0.0;
    Bytes Remaining = 0.0; // As of RateSince, not of now (settled lazily).
    SimTime StartTime = 0.0;
    SimTime RateSince = 0.0; // When Rate was last assigned.
    double Weight = 1.0;     // Stream count, as fair-share weight.
    BitRate TcpCap = 0.0;
    BitRate EndpointCap = 0.0;
    BitRate Rate = 0.0;
    uint32_t DownOnPath = 0; // Down links crossed (stalls while > 0).
    uint32_t Epoch = 0;      // Bumped per rate change; validates heap entries.
    bool Background = false;
    bool Live = false; // Slot occupancy (slots are pooled and reused).
    CompletionFn OnComplete;
    /// Position of this flow inside each path channel's incidence list
    /// (parallel to Path->Channels); makes removal O(path length).
    std::vector<uint32_t> ChanPos;
  };

  /// A pending completion: flow Id finishes at Time unless its rate changes
  /// first (Epoch mismatch invalidates the entry lazily).
  struct CompletionEntry {
    SimTime Time;
    FlowId Id;
    uint32_t Epoch;
  };

  /// What the single pending FlowNetwork event currently is.
  enum class EventKind : uint8_t { None, Completion, Watchdog };

  uint32_t allocSlot();
  void freeSlot(uint32_t Slot);
  void insertIncidence(uint32_t Slot);
  void removeIncidence(uint32_t Slot);

  /// \returns the flow's slot, or ~0u when the id is not active.
  uint32_t findSlot(FlowId Id) const;

  /// The constraint the flow presents to the solver right now.
  BitRate effectiveCap(const ActiveFlow &F) const {
    return F.DownOnPath != 0 ? 0.0 : std::min(F.TcpCap, F.EndpointCap);
  }

  /// \returns remaining bytes progressed to time \p Now.
  Bytes remainingAt(const ActiveFlow &F, SimTime Now) const;

  /// Brings Remaining forward to now() (called before Rate changes).
  void settleFlow(ActiveFlow &F);

  /// Assigns a new rate: settles, maintains MovingFlows, invalidates the
  /// flow's completion entry and pushes a fresh one when due/moving.
  void setRate(ActiveFlow &F, BitRate NewRate);

  void pushCompletion(const ActiveFlow &F);
  /// \returns the earliest valid completion time, popping stale entries.
  bool peekCompletion(SimTime &Time);

  /// Marks a channel touched by the current rebalance (lazily resetting its
  /// scratch state) and \returns its scratch index.
  uint32_t touchChannel(ChannelId Ch);

  /// Adds a flow slot to the affected component (idempotent).
  void addToComponent(uint32_t Slot);

  /// Removes one flow from all per-channel accounting and collects rebalance
  /// seeds from its formerly saturated channels.  The slot stays allocated.
  void detachFlow(uint32_t Slot);

  /// Solves the affected component seeded by SeedSlots/SeedChannels and, if
  /// \p Probe is null, commits rates, channel usage and saturation flags and
  /// reschedules the pending event.  With \p Probe set, nothing is
  /// committed and the probe demand's hypothetical rate is returned.
  struct ProbeSpec {
    const NetPath *Path;
    double Cap;
    double Weight;
  };
  double solveComponent(const ProbeSpec *Probe);

  /// Pulls every flow incident on \p Ch into the component.
  void expandChannel(ChannelId Ch);

  /// Closes the component over channels saturated in the standing
  /// allocation, resuming from CompProcessed.
  void closeOver();

  /// Treats every flow as affected (watchdog path and verification).
  void rebalanceAll();

  /// Reschedules the single pending event from the completion heap.
  void scheduleNext();

  /// Completes flows whose remaining volume reached zero.
  void finishDueFlows();

  /// Asserts the standing rates match a full solve (check mode).
  void verifyAgainstFullSolve();

  Simulator &Sim;
  const Topology &Topo;
  Routing &Router;

  // Flow store: pooled slots + id lookup.  Iteration goes through slots
  // (deterministic order); lookups through the map.
  std::vector<ActiveFlow> Slots;
  std::vector<uint32_t> FreeSlots;
  std::unordered_map<FlowId, uint32_t> IdToSlot;
  FlowId NextFlowId = 1;
  size_t ForegroundFlows = 0;
  size_t MovingFlows = 0;

  // Per-channel standing state.
  std::vector<double> ChannelCap;   // Link capacity x TCP goodput factor.
  std::vector<double> ChannelUsage; // Sum of committed rates.
  std::vector<uint8_t> ChannelSaturated;
  std::vector<std::vector<uint32_t>> ChannelFlows; // Incidence (slot ids).

  // Link failure state: per-link flag plus a count so the common case
  // (no failures anywhere) costs one comparison per flow start.
  std::vector<uint8_t> LinkDown;
  size_t DownLinkCount = 0;

  // Completion heap (lazy invalidation by flow epoch).
  std::vector<CompletionEntry> CompletionHeap;
  // finishDueFlows() scratch, reused across completion batches (no
  // per-batch allocation once warm).  Safe as members: finishDueFlows is
  // only ever entered from its own scheduled event, never re-entrantly
  // from the callbacks it invokes.
  std::vector<std::pair<FlowId, uint32_t>> DueScratch;
  std::vector<FlowStats> DoneScratch;
  std::vector<CompletionFn> CallbackScratch;
  EventId NextEvent = InvalidEventId;
  EventKind NextEventKind = EventKind::None;
  SimTime NextEventTime = 0.0;
  bool NextEventDaemon = false;

  // Rebalance scratch, reused across events (no per-event allocation once
  // warm).  Channel scratch entries are reset lazily via a stamp.
  struct ChannelScratch {
    uint32_t Stamp = 0;
    uint32_t Local = 0;   // Resource index in the workspace.
    uint32_t SCount = 0;  // Flows of the component on this channel.
    double SUsage = 0.0;  // Their standing (pre-solve) rate sum.
    double NewUsage = 0.0;
    uint8_t Expanded = 0; // All incident flows already pulled in.
  };
  std::vector<ChannelScratch> ChanScratch;
  uint32_t CurStamp = 0;
  std::vector<uint32_t> SeedSlots;       // Event seeds (component roots).
  std::vector<ChannelId> SeedChannels;   // Channels needing usage refresh.
  std::vector<uint32_t> CompSlots;       // The affected component.
  std::vector<uint8_t> InComponent;      // Per-slot membership flag.
  size_t CompProcessed = 0;              // closeOver() resume cursor.
  std::vector<ChannelId> TouchedChannels;
  FairShareWorkspace Ws;
  FairShareWorkspace CheckWs; // Separate space for full-solve verification.

  bool CheckRebalance =
#ifdef DGSIM_CHECK_REBALANCE
      true;
#else
      false;
#endif
  uint64_t StatEvents = 0;
  uint64_t StatDemands = 0;
  uint64_t StatProbes = 0;
};

} // namespace dgsim

#endif // DGSIM_NET_FLOWNETWORK_H
