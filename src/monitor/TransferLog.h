//===- monitor/TransferLog.h - Completed-transfer observation log ----------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The second data source of the monitoring layer: where sensors *probe*
/// links on a schedule, the TransferLog *observes* every completed GridFTP
/// transfer (size, streams, achieved throughput) per (server, client)
/// path — the end-to-end signal Allcock et al. argue actually predicts
/// replica fetch time.  Each path keeps a TransferForecaster (the
/// probe-vs-log minimum-MSE meta-selector, trained on running
/// least-squares sums and, with the robust arms on, a 64-observation
/// window) and a sensor-style version counter bumped on every append so
/// InformationService's factor cache revalidates in one integer compare —
/// appends never disturb the epoch-cached fast path, they just invalidate
/// exactly the entries they affect.  No observation is stored.
///
/// Appends happen inside transfer-completion callbacks on the simulator's
/// one thread, so the log needs no synchronisation.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_MONITOR_TRANSFERLOG_H
#define DGSIM_MONITOR_TRANSFERLOG_H

#include "monitor/RegressionForecaster.h"
#include "monitor/Robust.h"
#include "net/Topology.h"
#include "support/Random.h"

#include <cstdint>
#include <optional>
#include <unordered_map>

namespace dgsim {

/// Per-path transfer observations and log-trained predictors.
class TransferLog {
public:
  /// Records a completed transfer \p Server -> \p Client.  \p ProbeForecast
  /// is the path's NWS bandwidth forecast at completion time (NaN when no
  /// probe sensor exists yet); it scores the meta-selector's probe arm.
  void append(NodeId Server, NodeId Client, const TransferObservation &O,
              double ProbeForecast);

  /// Predicted throughput (bits/s) for a prospective transfer, from the
  /// path's current best arm.  \returns \p ProbeForecast unchanged when
  /// the path has never been logged (the probe keeps its word until the
  /// log has evidence).
  double predict(NodeId Server, NodeId Client, Bytes FileBytes,
                 unsigned Streams, double ProbeForecast) const;

  /// \returns a counter bumped once per append on this path; 0 for a path
  /// never appended to.  Everything predict() can answer for the path is
  /// a pure function of its observation stream (plus the caller-supplied
  /// probe forecast), so an unchanged version means bit-identical reads —
  /// the same invalidation contract as Sensor::version() (DESIGN.md §13).
  uint64_t version(NodeId Server, NodeId Client) const;

  /// \returns the path's meta-selector, or nullptr when never appended to
  /// (per-arm introspection for the prediction-accuracy harness).
  const TransferForecaster *forecaster(NodeId Server, NodeId Client) const;

  /// \returns observations appended across all paths.
  uint64_t totalAppends() const { return Appends; }

  /// \returns paths with at least one observation.
  size_t pathCount() const { return Paths.size(); }

  //===--------------------------------------------------------------------===//
  // Robust pipeline (runtime configuration, DESIGN.md §15)
  //===--------------------------------------------------------------------===//

  /// Enables the robust pipeline over every path (existing and future):
  /// \p GateAppends runs each append's throughput through a median/MAD
  /// plausibility gate (rejected appends are counted and never train the
  /// arms), \p RobustArms / \p Quarantine forward
  /// to TransferForecaster.  Any change bumps configVersion().
  void setRobust(bool GateAppends, bool RobustArms, bool Quarantine);

  /// Gate tuning shared by every path; mutate before enabling.
  GateConfig &gateConfig() { return Gate; }

  /// \returns appends rejected by the plausibility gate, across paths.
  uint64_t rejectedAppends() const { return Rejected; }

  /// \returns a counter bumped on every setRobust() change.  Per-path
  /// versions cover what appends change; this covers what configuration
  /// changes, and the factor cache stamps both.
  uint64_t configVersion() const { return ConfigVersion; }

  /// \returns quarantine bench events across all path forecasters (0
  /// unless the quarantine pipeline is enabled).
  uint64_t totalBenches() const;

  //===--------------------------------------------------------------------===//
  // LogCorrupt fault hooks (driven by the FaultInjector)
  //===--------------------------------------------------------------------===//

  /// Begins/ends a poisoned-append window: while active, each append's
  /// throughput is multiplied by a seeded heavy-tailed factor
  /// (lognormal(0, Scale)).
  /// Global and per-path scopes nest independently, depth-counted; nested
  /// windows of the same scope share the innermost seed/scale.
  void beginCorrupt(uint64_t Seed, double Scale);
  void endCorrupt();
  void beginCorruptPath(NodeId Server, NodeId Client, uint64_t Seed,
                        double Scale);
  void endCorruptPath(NodeId Server, NodeId Client);

  /// \returns appends that were perturbed by an active corruption window.
  uint64_t corruptedAppends() const { return Corrupted; }

private:
  struct PathLog {
    TransferForecaster Fc;
    PlausibilityGate PathGate;
    uint64_t Version = 0;
  };

  /// One corruption scope (global, or one path): depth-counted like every
  /// other fault kind; the RNG persists across windows of the scope so
  /// re-opened windows continue their stream deterministically.
  struct CorruptState {
    int Depth = 0;
    double Scale = 0.0;
    std::optional<RandomEngine> Rng;
  };

  PathLog &pathFor(uint64_t Key);
  void applyCorrupt(CorruptState &C, TransferObservation &O);

  /// Keyed by (server << 32 | client); looked up, never iterated for
  /// results, so hash order cannot leak into them.
  std::unordered_map<uint64_t, PathLog> Paths;
  uint64_t Appends = 0;

  GateConfig Gate;
  bool GateAppends = false;
  bool RobustArms = false;
  bool Quarantine = false;
  uint64_t Rejected = 0;
  uint64_t ConfigVersion = 0;

  CorruptState GlobalCorrupt;
  std::unordered_map<uint64_t, CorruptState> PathCorrupt;
  uint64_t Corrupted = 0;
};

} // namespace dgsim

#endif // DGSIM_MONITOR_TRANSFERLOG_H
