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
/// Ornstein-Uhlenbeck process updated on a fixed tick, optionally overlaid
/// with Poisson job bursts that pin the CPU near 100% for an exponential
/// duration — the "somebody started a BLAST run" event.
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
  SimTime UpdatePeriod = 1.0;
  /// Mean time between burst jobs, seconds (0 disables bursts).
  SimTime BurstMeanInterarrival = 0.0;
  /// Mean burst duration, seconds.
  SimTime BurstMeanDuration = 30.0;
  /// Extra utilisation a burst adds (result is clipped to [0, 1]).
  double BurstLoad = 0.6;
};

/// A live CPU-load process attached to a simulator.
///
/// Self-scheduled by default (one periodic kernel event per model, the
/// historical behaviour).  When constructed with a CpuLoadBatch the batch
/// drives the OU ticks instead, multiplexing any number of same-period
/// models behind one kernel event; burst arrivals stay self-scheduled
/// (they are Poisson events at irregular times).  Either way each model
/// advances its own forked RNG stream exactly once per tick, so the load
/// trajectory is identical in both modes and at any thread count.
class CpuLoadModel {
public:
  CpuLoadModel(Simulator &Sim, CpuLoadConfig Config,
               CpuLoadBatch *Batch = nullptr);
  ~CpuLoadModel();

  CpuLoadModel(const CpuLoadModel &) = delete;
  CpuLoadModel &operator=(const CpuLoadModel &) = delete;

  /// \returns current utilisation in [0, 1].
  double load() const;

  /// \returns current idle fraction, the paper's P^CPU factor.
  double idleFraction() const { return 1.0 - load(); }

  const CpuLoadConfig &config() const { return Config; }

private:
  friend CpuLoadBatch;

  void tick();
  void scheduleBurst();

  Simulator &Sim;
  CpuLoadConfig Config;
  RandomEngine Rng;
  double BaseLoad;      // OU component.
  double SqrtDt = 0.0;  // sqrt(UpdatePeriod), hoisted out of tick().
  double ActiveBursts = 0.0;
  EventId TickHandle = InvalidEventId;
  EventId BurstArrival = InvalidEventId;
  /// Batch membership (batch-driven mode); maintained by CpuLoadBatch.
  CpuLoadBatch *Batch = nullptr;
  size_t BatchPos = 0;
};

} // namespace dgsim

#endif // DGSIM_HOST_CPULOADMODEL_H
