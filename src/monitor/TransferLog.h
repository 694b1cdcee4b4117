//===- monitor/TransferLog.h - Completed-transfer observation log ----------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The second data source of the monitoring layer: where sensors *probe*
/// links on a schedule, the TransferLog *observes* every completed GridFTP
/// transfer (size, achieved throughput) per (server, client) path — the
/// end-to-end signal Allcock et al. argue actually predicts replica fetch
/// time.  Each path keeps a TransferForecaster (the probe-vs-log
/// minimum-MSE meta-selector, trained on running least-squares sums) and
/// an optional plausibility gate on appends; each InformationService
/// query reads the path's current prediction.  No observation is stored.
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
                 double ProbeForecast) const;

  /// \returns the path's meta-selector, or nullptr when never appended to
  /// (per-arm introspection for the prediction-accuracy harness).
  const TransferForecaster *forecaster(NodeId Server, NodeId Client) const;

  /// \returns observations appended across all paths.
  uint64_t totalAppends() const { return Appends; }

  /// \returns paths with at least one observation.
  size_t pathCount() const { return Paths.size(); }

  //===--------------------------------------------------------------------===//
  // Append gate (the log half of the robust pipeline, DESIGN.md §15)
  //===--------------------------------------------------------------------===//

  /// Enables or disables the median/MAD plausibility gate on every path's
  /// appends (existing and future).  A rejected append is counted and
  /// never trains the forecaster.  Off by default.  A flip changes no
  /// prediction by itself: the forecasters are untouched until the next
  /// ingested append.
  void setAppendGate(bool V) { GateAppends = V; }

  /// Gate tuning shared by every path; mutate before enabling.
  GateConfig &gateConfig() { return Gate; }

  /// \returns appends rejected by the plausibility gate, across paths.
  uint64_t rejectedAppends() const { return Rejected; }

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
  };

  /// One corruption scope (global, or one path): depth-counted like every
  /// other fault kind; the RNG persists across windows of the scope so
  /// re-opened windows continue their stream deterministically.
  struct CorruptState {
    int Depth = 0;
    double Scale = 0.0;
    std::optional<RandomEngine> Rng;
  };

  void applyCorrupt(CorruptState &C, TransferObservation &O);

  /// Keyed by (server << 32 | client); looked up, never iterated for
  /// results, so hash order cannot leak into them.
  std::unordered_map<uint64_t, PathLog> Paths;
  uint64_t Appends = 0;

  GateConfig Gate;
  bool GateAppends = false;
  uint64_t Rejected = 0;

  CorruptState GlobalCorrupt;
  std::unordered_map<uint64_t, CorruptState> PathCorrupt;
  uint64_t Corrupted = 0;
};

} // namespace dgsim

#endif // DGSIM_MONITOR_TRANSFERLOG_H
