//===- host/CpuLoadModel.h - Stochastic CPU utilisation -------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-host CPU utilisation as a mean-reverting stochastic process.
///
/// The paper treats CPU load as "a dynamic system factor" measured through
/// MDS: grid hosts run local cluster jobs, so utilisation wanders around a
/// site-specific operating point.  We model it as a clipped
/// Ornstein-Uhlenbeck process updated on a fixed tick.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_HOST_CPULOADMODEL_H
#define DGSIM_HOST_CPULOADMODEL_H

#include "sim/PeriodicBatch.h"
#include "sim/Simulator.h"
#include "support/Random.h"

namespace dgsim {

class CpuLoadModel;

/// Advances a set of same-period CPU-load models behind one periodic
/// kernel event, in registration order.
using CpuLoadBatch = PeriodicBatch<CpuLoadModel>;

/// Parameters of the load process.
struct CpuLoadConfig {
  /// Long-run mean utilisation in [0, 1].
  double MeanLoad = 0.3;
  /// Mean-reversion speed (1/seconds).
  double Reversion = 0.05;
  /// Diffusion strength per sqrt(second).
  double Volatility = 0.05;
  /// Tick period, seconds.
  static constexpr SimTime UpdatePeriod = 1.0;
};

/// A live CPU-load process attached to a simulator.
///
/// Self-scheduled by default (one periodic kernel event per model, the
/// historical behaviour).  When constructed with a CpuLoadBatch the batch
/// drives the OU ticks instead, multiplexing any number of same-period
/// models behind one kernel event.  Either way each model advances its own
/// forked RNG stream exactly once per tick, so the load trajectory is
/// identical in both modes.
class CpuLoadModel {
public:
  CpuLoadModel(Simulator &Sim, CpuLoadConfig Config,
               CpuLoadBatch *Batch = nullptr);
  ~CpuLoadModel();

  CpuLoadModel(const CpuLoadModel &) = delete;
  CpuLoadModel &operator=(const CpuLoadModel &) = delete;

  /// \returns current utilisation in [0, 1].
  double load() const { return BaseLoad; }

  /// \returns current idle fraction, the paper's P^CPU factor.
  double idleFraction() const { return 1.0 - load(); }

  const CpuLoadConfig &config() const { return Config; }

private:
  friend CpuLoadBatch;

  void tick();

  Simulator &Sim;
  CpuLoadConfig Config;
  RandomEngine Rng;
  double BaseLoad; // OU level, clamped to [0, 1] by tick().
  EventId TickHandle = InvalidEventId;
  /// Batch membership (batch-driven mode); maintained by CpuLoadBatch.
  CpuLoadBatch *Batch = nullptr;
  size_t BatchPos = 0;
};

} // namespace dgsim

#endif // DGSIM_HOST_CPULOADMODEL_H
