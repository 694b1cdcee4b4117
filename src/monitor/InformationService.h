//===- monitor/InformationService.h - MDS-style information server ---------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The information server of the paper's Fig 1: the one service the replica
/// selection server queries for "the performance of measurements and
/// predictions" of the three system factors.
///
/// It aggregates the monitoring substrate — NWS bandwidth sensors with
/// adaptive forecasting for links (the paper: bandwidth via NWS), and
/// CPU/I-O idle sensors for hosts (the paper: CPU via Globus MDS, I/O via
/// sysstat) — behind a single query:
///
///   SystemFactors F = Info.query(ClientNode, CandidateHost);
///
/// where F carries exactly the paper's P^BW, P^CPU, P^{I/O} percentages.
/// Readings are as fresh as the sensor periods allow; staleness is real and
/// measurable, which is what makes selection occasionally suboptimal.
///
/// The service is also the sensor registry (the NWS nameserver's role):
/// its host table and (client, server) path table index every sensor it
/// owns, and their keys keep sensor names unique.  A host's CPU and I/O
/// sensors store their last sample only; a path's bandwidth sensor stores
/// its last sample and its forecaster's 40-value window (the NWS memory's
/// role).  No other series is stored.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_MONITOR_INFORMATIONSERVICE_H
#define DGSIM_MONITOR_INFORMATIONSERVICE_H

#include "host/Host.h"
#include "monitor/Sensor.h"
#include "monitor/TransferLog.h"
#include "net/FlowNetwork.h"
#include "support/StringInterner.h"

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace dgsim {

/// How P^BW's denominator ("the highest theoretical bandwidth") is read.
///
/// The paper's phrasing admits two interpretations, and the choice matters:
/// dividing by each path's own capacity (PerPath) makes easily-saturated
/// slow links score *higher* than gigabit links a TCP probe cannot fill,
/// which can invert the ranking the paper's Table 1 relies on.  Dividing by
/// the client's theoretical access bandwidth (ClientAccess) keeps the
/// denominator constant across candidates, so the factor is monotone in
/// deliverable bandwidth.  ClientAccess is the default; the ablation bench
/// bench_ablation_weights demonstrates the difference.
enum class BwNormalization {
  /// predicted / client's fastest access link.
  ClientAccess,
  /// predicted / path bottleneck capacity (literal per-pair reading).
  PerPath,
};

/// The three system factors of the paper's cost model, plus the forecast
/// behind P^BW.
struct SystemFactors {
  /// P^BW: predicted bandwidth / highest theoretical bandwidth, in [0, 1].
  double BwFraction = 0.0;
  /// P^CPU: candidate host CPU idle fraction, in [0, 1].
  double CpuIdle = 0.0;
  /// P^{I/O}: candidate host I/O idle fraction, in [0, 1].
  double IoIdle = 0.0;
  /// NWS-forecast available bandwidth, bits/second.
  BitRate PredictedBandwidth = 0.0;
};

/// One active data-plane telemetry fault as the information service
/// tracks it.  The FaultInjector resolves a FaultWindow's names to this
/// at apply time; the service routes it to the matching sensors and
/// re-applies it to path sensors recreated after TTL eviction (the same
/// discipline as blackout suspension).  LogCorrupt never reaches the
/// service — the injector drives the TransferLog directly.
struct TelemetryFault {
  enum class Scope : uint8_t {
    /// Every sensor the service owns.
    Global,
    /// One host's CPU and I/O sensors.
    Host,
    /// One (server, client) path's bandwidth sensor.
    Path,
  };

  FaultKind Kind;
  Scope S = Scope::Global;
  /// Host scope: the registered host whose load sensors are targeted.
  const Host *TargetHost = nullptr;
  /// Path scope endpoints.
  NodeId Server = 0;
  NodeId Client = 0;
  /// FaultWindow::Magnitude / Offset, forwarded to Sensor::faultBegin.
  double Magnitude = 0.0;
  double Offset = 0.0;
  /// Window seed for SensorNoise; each sensor derives its private stream
  /// as Seed ^ fnv1a(sensor name), so streams are independent of sensor
  /// creation and tick order.
  uint64_t Seed = 0;
};

/// Sampling configuration.
struct InformationServiceConfig {
  /// Bandwidth probe period (NWS defaults probe tens of seconds apart).
  SimTime BandwidthPeriod = 10.0;
  /// Host CPU/IO sampling period (MDS/sysstat granularity).
  SimTime HostPeriod = 5.0;
  /// P^BW denominator convention.
  BwNormalization Normalization = BwNormalization::ClientAccess;

  // Scale-out knobs.  The defaults preserve the historical per-sensor
  // scheduling exactly (every sensor owns a periodic anchored at its
  // creation time), which the golden figures depend on; large-grid benches
  // opt in.

  /// Multiplex sensors behind shared SensorBatch ticks instead of one
  /// kernel event per sensor.  Changes *when* lazily-created path sensors
  /// sample (they join the batch grid rather than anchoring at creation),
  /// so this is opt-in.
  bool BatchSensors = false;
  /// Number of phase-staggered batch groups per period (>= 1).  With G
  /// groups, group g ticks at phase g*Period/G, spreading a large sensor
  /// population across the period instead of sampling in one burst.
  unsigned StaggerGroups = 1;
  /// Destroy path sensors that no query has touched for this long (a
  /// later query recreates them).  0 keeps every path sensor forever.
  SimTime PathSensorTtl = 0.0;
  /// Drive every host-load OU process (CPU, disk background) from one
  /// shared CpuLoadBatch instead of two periodic events per host.
  /// Load trajectories are identical either way (each model owns its RNG
  /// stream); only the kernel event population changes, so large-grid
  /// benches opt in.  Consumed by DataGrid, carried here with the other
  /// scale-out knobs.
  bool BatchHostLoads = false;
};

/// Aggregates sensors and answers factor queries.
class InformationService {
public:
  InformationService(Simulator &Sim, FlowNetwork &Net,
                     InformationServiceConfig Config = {});
  ~InformationService();

  InformationService(const InformationService &) = delete;
  InformationService &operator=(const InformationService &) = delete;

  /// Registers a host: creates its CPU and I/O sensors.
  void registerHost(const Host &H);

  /// Ensures a bandwidth sensor exists for Client -> Server; called lazily
  /// by query() as well.  The nodes must be connected.
  void watchPath(NodeId Client, NodeId Server);

  /// \returns the current factors for fetching data from \p Candidate to a
  /// client at \p ClientNode, computed from the sensors' current state on
  /// every call.  The candidate must have been registered.
  SystemFactors query(NodeId ClientNode, const Host &Candidate);

  /// \returns the latest CPU idle reading for a registered host.
  double cpuIdle(const Host &H) const;

  /// \returns the latest I/O idle reading for a registered host.
  double ioIdle(const Host &H) const;

  /// Starts or ends a monitoring blackout (NWS deployment outage): every
  /// sensor stops sampling and queries keep answering from last-known
  /// values, so selection degrades gracefully instead of crashing; each
  /// sensor's lastSampleTime() shows how old its value is.  Sensors
  /// created during a blackout start suspended and report never-sampled
  /// staleness.
  void setBlackout(bool V);
  bool blackout() const { return Blackout; }

  /// Applies / lifts one telemetry fault (a FaultWindow edge, driven by
  /// the FaultInjector).  Calls nest per (kind, scope): each begin pushes
  /// one depth level on the matching sensors, each end pops one.  The
  /// service remembers active faults so sensors created (or re-created
  /// after TTL eviction) mid-window inherit them.
  void beginTelemetryFault(const TelemetryFault &F);
  void endTelemetryFault(const TelemetryFault &F);

  /// Enables median/MAD plausibility gating on every sensor, existing
  /// and future (the sensor half of the robust pipeline; the TransferLog
  /// half gates appends).  Off by default: the gate judges nothing, and
  /// ingest is bit-identical to the ungated service.  Tune via
  /// gateConfig() before enabling.
  void setSensorGate(bool V);
  GateConfig &gateConfig() { return Gate; }

  /// \returns sensor samples rejected by plausibility gates, summed over
  /// live sensors plus sensors since TTL-evicted.
  uint64_t gateRejections() const;

  /// \returns samples silenced by SensorDropout windows, summed the same
  /// way (rejected and dropped are distinct: the gate judges, dropout
  /// silences).
  uint64_t droppedSamples() const;

  /// \returns the bandwidth sensor for a watched path (nullptr if absent).
  const Sensor *bandwidthSensor(NodeId Client, NodeId Server) const;

  /// \returns the current simulation time (convenience for clients that
  /// have no direct Simulator reference, e.g. for trace timestamps).
  SimTime now() const { return Sim.now(); }

  /// \returns the number of watched paths.  Introspection for the
  /// TTL-eviction tests and the scale benches: with PathSensorTtl set this
  /// must track the touched working set, not every pair ever queried.
  size_t pathSensorCount() const { return Paths.size(); }

  /// \returns total query() calls; each computes the factors afresh.
  uint64_t factorQueries() const { return FactorQueries; }

  /// Equal to factorQueries(); kept only for dgbench's per-layer report.
  uint64_t factorRecomputes() const { return FactorQueries; }

  /// Attaches a transfer log as the second prediction source: queries
  /// then refine P^BW's predicted bandwidth through the path's
  /// minimum-MSE meta-selector (probe forecast vs log-trained regression
  /// arms), trained per (candidate, client) path by completed transfers.
  /// Pass nullptr to detach.  With no log attached (the default), the
  /// factor pipeline behaves bit-identically to the historical probe-only
  /// service — the golden figures depend on that.
  void setTransferLog(TransferLog *L) { Log = L; }
  TransferLog *transferLog() { return Log; }

  /// Sets the prospective-transfer context the log-trained predictors
  /// condition on (the file size of the fetch being planned).  Sticky
  /// until the next call; consulted only while a transfer log is
  /// attached, by every query() that follows.
  void setQueryHint(Bytes FileBytes) { HintBytes = FileBytes; }

private:
  struct HostSensors {
    std::unique_ptr<Sensor> Cpu;
    std::unique_ptr<Sensor> Io;
  };

  struct PathSensors {
    std::unique_ptr<Sensor> Bandwidth;
    /// Last time a query touched this path; drives TTL eviction.
    SimTime LastQuery = 0.0;
  };

  /// Calls \p F on every sensor the service owns: each host's CPU and
  /// I/O sensors in registration order, then each path's bandwidth sensor.
  /// Const so the counter sums can use it; the tables own sensors through
  /// unique_ptr, so \p F gets them mutable.
  template <class Fn> void forEachSensor(Fn &&F) const {
    for (const HostSensors &S : Hosts) {
      F(*S.Cpu);
      F(*S.Io);
    }
    for (const auto &[Key, PS] : Paths)
      F(*PS.Bandwidth);
  }

  /// \returns the sensors for a registered host (asserts registration).
  /// Host names resolve through the interner to a dense index; every
  /// selection-loop factor read is then a vector access.
  const HostSensors &hostSensors(const Host &H) const;

  /// find-or-create + LastQuery touch behind watchPath(); \returns the
  /// entry so query() needs no second hash lookup.
  PathSensors &watchPathEntry(NodeId Client, NodeId Server);

  /// \returns the stagger-group batch for new host/path sensors, creating
  /// it lazily; nullptr when batching is off (sensors self-schedule).
  SensorBatch *hostBatch();
  SensorBatch *pathBatch();
  SensorBatch *batchFor(std::vector<std::unique_ptr<SensorBatch>> &Group,
                        SimTime Period, size_t Index);

  /// Destroys path sensors idle past the TTL.
  void evictIdlePaths();

  /// Routes \p F to the sensors its scope matches, pushing (\p Begin) or
  /// popping one fault depth level on each.
  void routeTelemetryFault(const TelemetryFault &F, bool Begin);
  /// One sensor's edge: forwards to faultBegin/faultEnd with the
  /// name-hashed noise seed.
  static void applyTelemetryFault(Sensor &S, const TelemetryFault &F,
                                  bool Begin);

  Simulator &Sim;
  FlowNetwork &Net;
  InformationServiceConfig Config;
  /// Batches must outlive their member sensors (sensor destructors detach
  /// from their batch), so they are declared before Hosts and Paths.
  std::vector<std::unique_ptr<SensorBatch>> HostBatches;
  std::vector<std::unique_ptr<SensorBatch>> PathBatches;
  uint64_t PathRoundRobin = 0;
  EventId TtlSweep = InvalidEventId;
  /// Host name -> dense id; ids index Hosts.
  StringInterner HostIds;
  std::vector<HostSensors> Hosts;
  /// Keyed by (client << 32 | server) for O(1) lookups.  forEachSensor
  /// and evictIdlePaths walk it in hash order, which no result can see:
  /// every per-sensor edge (suspension, gate attach, fault depth) is
  /// independent of the others, the counter sums are integer adds, and
  /// eviction erases every idle entry regardless of the order it meets
  /// them.
  std::unordered_map<uint64_t, PathSensors> Paths;
  uint64_t FactorQueries = 0;
  /// Completed-transfer feedback (nullptr = probe-only, the default).
  TransferLog *Log = nullptr;
  /// Prospective-transfer context for the log-trained predictors.
  Bytes HintBytes = 0.0;
  bool Blackout = false;
  /// Telemetry faults currently in force, in begin order (re-applied to
  /// sensors created mid-window).  A handful at most; scanned linearly.
  std::vector<TelemetryFault> ActiveFaults;
  /// Shared plausibility-gate configuration (sensors hold a pointer while
  /// gating is enabled).
  GateConfig Gate;
  bool GateEnabled = false;
  /// Gate rejections / dropout silences of sensors since TTL-evicted,
  /// folded in before their counters die with them.
  uint64_t RetiredRejections = 0;
  uint64_t RetiredDropped = 0;
};

} // namespace dgsim

#endif // DGSIM_MONITOR_INFORMATIONSERVICE_H
