//===- fault/FaultInjector.h - Replays fault plans on a live grid ----------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives a FaultPlan through the event kernel against the live services:
///
///   * LinkDown        -> FlowNetwork::setLinkEnabled (flows stall at 0);
///   * HostCrash       -> Host::setUp(false) + TransferManager::failHost
///                        (destination transfers fail, source stripes
///                        reconnect-with-backoff until the reboot);
///   * StorageOutage   -> Host::setStorageUp(false) + source-side failHost;
///   * SensorBlackout  -> InformationService::setBlackout (queries keep
///                        answering from staleness-tagged last-known data);
///   * telemetry kinds -> InformationService::beginTelemetryFault /
///                        endTelemetryFault (sensor bias/stuck/noise/
///                        dropout/clock-skew, scoped global, host, or
///                        path), and LogCorrupt -> TransferLog::
///                        beginCorrupt[Path] via the log accessor.
///
/// All events are daemons: an armed injector never keeps run() alive.
/// Overlapping windows on the same target nest (repair happens when the
/// last covering window ends).  Stochastic processes expand with a stream
/// forked from the kernel at arm() time, so the whole outage history is a
/// deterministic function of (spec, seed).
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_FAULT_FAULTINJECTOR_H
#define DGSIM_FAULT_FAULTINJECTOR_H

#include "fault/FaultPlan.h"
#include "gridftp/TransferManager.h"
#include "monitor/InformationService.h"
#include "net/FlowNetwork.h"
#include "support/Trace.h"

#include <unordered_map>
#include <vector>

namespace dgsim {

/// Lifetime totals of everything the injector has done.  Experiment sinks
/// report these next to the transfer layer's restart/timeout counters.
struct FaultCounters {
  uint64_t LinkDowns = 0;
  uint64_t LinkRepairs = 0;
  uint64_t HostCrashes = 0;
  uint64_t HostReboots = 0;
  uint64_t StorageOutages = 0;
  uint64_t StorageRepairs = 0;
  uint64_t Blackouts = 0;
  uint64_t BlackoutEnds = 0;
  // Telemetry kinds count per window edge (each window corrupts its scope
  // independently; nesting is depth-counted inside Sensor / TransferLog).
  uint64_t SensorBiases = 0;
  uint64_t SensorBiasEnds = 0;
  uint64_t SensorStucks = 0;
  uint64_t SensorStuckEnds = 0;
  uint64_t SensorNoises = 0;
  uint64_t SensorNoiseEnds = 0;
  uint64_t SensorDropouts = 0;
  uint64_t SensorDropoutEnds = 0;
  uint64_t ClockSkews = 0;
  uint64_t ClockSkewEnds = 0;
  uint64_t LogCorrupts = 0;
  uint64_t LogCorruptEnds = 0;

  uint64_t telemetryFaults() const {
    return SensorBiases + SensorStucks + SensorNoises + SensorDropouts +
           ClockSkews + LogCorrupts;
  }

  uint64_t totalFaults() const {
    return LinkDowns + HostCrashes + StorageOutages + Blackouts +
           telemetryFaults();
  }
};

/// Replays one plan.  Construct after the grid's services exist (DataGrid
/// does this last in buildFrom()); arm() expands and schedules everything.
class FaultInjector {
public:
  /// \p Hosts must cover every host a plan window can name; the injector
  /// resolves targets against it and against \p Topo's node names.
  /// \p LogAccessor resolves the grid's TransferLog at window-fire time
  /// (not construction time — owners enable the log after the grid is
  /// built); LogCorrupt windows are counted but otherwise no-ops while it
  /// returns null.
  FaultInjector(Simulator &Sim, const Topology &Topo, FlowNetwork &Net,
                TransferManager &Transfers, InformationService &Info,
                std::vector<Host *> Hosts, TraceLog *Trace = nullptr,
                std::function<TransferLog *()> LogAccessor = {});

  FaultInjector(const FaultInjector &) = delete;
  FaultInjector &operator=(const FaultInjector &) = delete;

  /// Expands \p Plan (forking a random stream from the kernel only when
  /// the plan has stochastic processes — an all-deterministic plan leaves
  /// the kernel's fork order untouched) and schedules every window as
  /// daemon events.  May be called once.
  void arm(const FaultPlan &Plan);

  bool armed() const { return Armed; }

  /// The concrete outage history being replayed (post-expansion, sorted
  /// by start time).
  const std::vector<FaultWindow> &windows() const { return Expanded; }

  const FaultCounters &counters() const { return Counters; }

private:
  void apply(size_t I, bool Begin);
  void applyTelemetry(size_t I, bool Begin);
  void applyLogCorrupt(size_t I, bool Begin);
  LinkId resolveLink(const std::string &A, const std::string &B) const;
  Host *resolveHost(const std::string &Name) const;
  NodeId resolveEndpoint(const std::string &Name) const;
  void trace(const char *Fmt, ...) const;

  Simulator &Sim;
  const Topology &Topo;
  FlowNetwork &Net;
  TransferManager &Transfers;
  InformationService &Info;
  std::unordered_map<std::string, Host *> HostByName;
  TraceLog *Trace = nullptr;
  std::function<TransferLog *()> LogAccessor;
  bool Armed = false;
  std::vector<FaultWindow> Expanded;
  /// Per-window seeds for the kinds that need randomness at apply time
  /// (SensorNoise, LogCorrupt), drawn in window order from one extra fork
  /// taken at arm() only when such windows exist — plans without them
  /// leave the kernel's fork order untouched.
  std::vector<uint64_t> WindowSeeds;
  /// Whether a LogCorrupt window's begin edge reached a live log: the end
  /// edge must not unwind a scope that was never entered (the log may have
  /// been attached mid-window).
  std::vector<uint8_t> CorruptApplied;
  // Overlap depths: the fault holds while any window covers the target.
  std::unordered_map<LinkId, int> LinkDepth;
  std::unordered_map<Host *, int> CrashDepth;
  std::unordered_map<Host *, int> StorageDepth;
  int BlackoutDepth = 0;
  FaultCounters Counters;
};

} // namespace dgsim

#endif // DGSIM_FAULT_FAULTINJECTOR_H
