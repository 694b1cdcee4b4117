//===- fault/FaultPlan.h - Declarative fault schedules ---------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A FaultPlan is a pure value describing every failure a simulated grid
/// will suffer: deterministic windows (link down between t and t+d, host
/// crash, storage-element outage, monitoring blackout) plus seeded
/// stochastic MTBF/MTTR renewal processes that expand into such windows.
///
/// Plans ride inside GridSpec — they serialize into the spec's canonical
/// JSON and therefore into its hash — and are replayed by a FaultInjector
/// driven off the event kernel, so two runs of the same spec suffer
/// bit-identical fault histories.  The chaos tests depend on this: a seed
/// *is* a reproducible disaster.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_FAULT_FAULTPLAN_H
#define DGSIM_FAULT_FAULTPLAN_H

#include "sim/Simulator.h"
#include "support/Random.h"

#include <string>
#include <vector>

namespace dgsim {

namespace json {
class JsonWriter;
}

/// What breaks.
enum class FaultKind : uint8_t {
  /// A WAN link loses both channels: flows crossing it stall (and the
  /// transfer layer's stall watchdog eventually tears them down).
  /// Target/Target2 name the link's endpoints (site or backbone names).
  LinkDown,
  /// A host machine crashes: it serves no data, accepts no data, and
  /// transfers writing into it fail outright.  Target names the host.
  HostCrash,
  /// The host's storage element goes offline: the machine answers but
  /// cannot serve file data.  Target names the host.
  StorageOutage,
  /// Grid-wide monitoring outage: every sensor stops sampling and the
  /// information service answers from last-known, staleness-tagged data.
  SensorBlackout,
  /// Telemetry (data-plane) faults: the world keeps working but the
  /// measurements describing it go wrong.  Scope is encoded in the
  /// targets: both empty = every sensor; Target alone = that host's
  /// cpu/io sensors; Target + Target2 = the (server, client) path's
  /// bandwidth sensor.
  ///
  /// Sensor readings are skewed: value' = value * Magnitude + Offset.
  SensorBias,
  /// Sensor readings freeze at the last recorded value (timestamps keep
  /// advancing, so the data *looks* fresh).  No magnitude.
  SensorStuck,
  /// Heavy-tailed multiplicative perturbation (seeded, per-sensor RNG
  /// streams): value' = value * lognormal(0, Magnitude).
  SensorNoise,
  /// Targeted sensor silence — the per-sensor/per-path replacement for
  /// the all-or-nothing SensorBlackout.  Samples are dropped, ages grow.
  SensorDropout,
  /// Recorded timestamps drift by Magnitude seconds, so staleness ages
  /// lie (negative Magnitude makes fresh data look stale; positive makes
  /// stale data look fresh — ages clamp at zero).
  ClockSkew,
  /// Poisoned TransferLog appends: completed-transfer throughputs are
  /// perturbed by a seeded heavy-tailed factor of scale Magnitude before
  /// the regression arms train on them.  Scope: both targets empty =
  /// every path's log; Target + Target2 = the (server, client) path.
  LogCorrupt,
};

/// \returns a stable lowercase identifier ("link-down", ...).
const char *faultKindName(FaultKind K);

/// \returns true for the data-plane kinds (SensorBias..LogCorrupt) that
/// corrupt measurements instead of breaking the simulated world.
bool isTelemetryFault(FaultKind K);

/// One concrete outage: [Start, Start + Duration).
struct FaultWindow {
  FaultKind Kind = FaultKind::LinkDown;
  std::string Target;
  /// Second endpoint: the link's far end for LinkDown, the client host
  /// for path-scoped telemetry faults; empty otherwise.
  std::string Target2;
  SimTime Start = 0.0;
  SimTime Duration = 0.0;
  /// Kind-specific strength (bias/noise/corrupt scale, skew seconds).
  /// Ignored by the non-telemetry kinds and by stuck/dropout.
  double Magnitude = 0.0;
  /// Additive term for SensorBias; ignored by every other kind.
  double Offset = 0.0;
};

/// A stochastic failure/repair renewal process: up-times are exponential
/// with mean Mtbf, down-times exponential with mean Mttr, generated out to
/// Horizon.  Expansion is seeded, so the same plan in the same grid always
/// produces the same outage history.
struct MtbfProcess {
  FaultKind Kind = FaultKind::LinkDown;
  std::string Target;
  std::string Target2;
  /// Mean time between failures (mean up-time), seconds.
  SimTime Mtbf = 3600.0;
  /// Mean time to repair (mean down-time), seconds.
  SimTime Mttr = 60.0;
  /// Failures starting at or beyond this time are not generated.
  SimTime Horizon = 3600.0;
  /// Kind-specific strength carried into every expanded window (see
  /// FaultWindow::Magnitude / Offset).
  double Magnitude = 0.0;
  double Offset = 0.0;
};

/// The declarative schedule.  Build with the fluent helpers:
///
/// \code
///   FaultPlan Plan;
///   Plan.linkDown("lizen", "tanet", 30.0, 20.0)
///       .hostCrash("alpha2", 60.0, 45.0)
///       .mtbf(FaultKind::LinkDown, "thu", "tanet", 600.0, 30.0, 3600.0);
/// \endcode
struct FaultPlan {
  std::vector<FaultWindow> Windows;
  std::vector<MtbfProcess> Processes;

  bool empty() const { return Windows.empty() && Processes.empty(); }

  FaultPlan &window(const FaultWindow &W);
  FaultPlan &linkDown(std::string A, std::string B, SimTime Start,
                      SimTime Duration);
  FaultPlan &hostCrash(std::string Host, SimTime Start, SimTime Duration);
  FaultPlan &storageOutage(std::string Host, SimTime Start,
                           SimTime Duration);
  FaultPlan &sensorBlackout(SimTime Start, SimTime Duration);
  /// Telemetry-fault helpers.  \p Server / \p Client empty = global
  /// scope; \p Server alone = that host's load sensors; both = the
  /// (server, client) path's bandwidth sensor.
  FaultPlan &sensorBias(std::string Server, std::string Client,
                        SimTime Start, SimTime Duration, double Factor,
                        double Offset = 0.0);
  FaultPlan &sensorStuck(std::string Server, std::string Client,
                         SimTime Start, SimTime Duration);
  FaultPlan &sensorNoise(std::string Server, std::string Client,
                         SimTime Start, SimTime Duration, double Scale);
  FaultPlan &sensorDropout(std::string Server, std::string Client,
                           SimTime Start, SimTime Duration);
  FaultPlan &clockSkew(std::string Server, std::string Client, SimTime Start,
                       SimTime Duration, double SkewSeconds);
  FaultPlan &logCorrupt(std::string Server, std::string Client,
                        SimTime Start, SimTime Duration, double Scale);
  FaultPlan &mtbf(FaultKind Kind, std::string Target, std::string Target2,
                  SimTime Mtbf, SimTime Mttr, SimTime Horizon,
                  double Magnitude = 0.0, double Offset = 0.0);

  /// Expands the stochastic processes (forking one child stream per
  /// process off \p Rng, in declaration order) and merges them with the
  /// deterministic windows.  \returns all windows sorted by start time,
  /// ties kept in declaration order.
  std::vector<FaultWindow> expand(RandomEngine &Rng) const;

  /// Serializes the plan (one "faults" object: windows then processes, in
  /// declaration order) for GridSpec::canonicalJson().
  void writeJson(json::JsonWriter &W) const;
};

} // namespace dgsim

#endif // DGSIM_FAULT_FAULTPLAN_H
