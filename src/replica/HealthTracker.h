//===- replica/HealthTracker.h - Site health and circuit breakers ----------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tracks per-site transfer health from observed outcomes and gates
/// traffic through a circuit breaker, so overloaded or flapping replica
/// holders are demoted (and eventually rested) instead of hammered.
///
/// Each site carries an EWMA of observed payload throughput and an EWMA
/// of the failure/timeout rate.  The breaker runs the classic three-state
/// machine with hysteresis:
///
///           failure EWMA >= TripThreshold
///   Closed ────────────────────────────────▶ Open
///      ▲                                       │ OpenSeconds elapsed
///      │ probe ok && failure EWMA              ▼ (seeded jitter, exp.
///      │         <= CloseThreshold          HalfOpen    backoff per trip)
///      └───────────────────────────────────────┘│
///                 probe fails: back to Open  ◀──┘
///
/// Transitions are lazy — evaluated when callers ask, never via kernel
/// events — and the only randomness is the probe-window jitter drawn from
/// an engine forked at construction, so runs are bit-identical per seed.
/// HalfOpen admits exactly one probe transfer at a time.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_REPLICA_HEALTHTRACKER_H
#define DGSIM_REPLICA_HEALTHTRACKER_H

#include "host/Host.h"
#include "sim/Simulator.h"
#include "support/Random.h"
#include "support/Trace.h"

#include <unordered_map>

namespace dgsim {

/// Breaker position for one site.
enum class BreakerState : uint8_t {
  /// Healthy: traffic flows, outcomes feed the EWMAs.
  Closed,
  /// Tripped: the site is excluded from selection until the open window
  /// elapses.
  Open,
  /// Probing: exactly one transfer is admitted; its outcome closes the
  /// breaker or re-opens it with a longer window.
  HalfOpen,
};

/// EWMA and breaker knobs.  The defaults trip after a sustained burst of
/// failures (not one blip) and re-admit cautiously.
struct HealthConfig {
  /// EWMA smoothing factor for both throughput and failure rate.
  static constexpr double Alpha = 0.3;
  /// Failure-rate EWMA at or above which a Closed breaker trips.
  double TripThreshold = 0.5;
  /// Failure-rate EWMA at or below which a successful probe closes the
  /// breaker.  Must be < TripThreshold: the gap is the hysteresis band
  /// that stops a site flapping between states on every sample.
  static constexpr double CloseThreshold = 0.25;
  /// Samples required before the breaker may trip (cold sites get the
  /// benefit of the doubt).
  unsigned MinSamples = 4;
  /// Open window after the first trip, seconds; consecutive re-trips
  /// back off exponentially up to OpenMaxSeconds.
  SimTime OpenSeconds = 20.0;
  static constexpr double OpenBackoffFactor = 2.0;
  static constexpr SimTime OpenMaxSeconds = 160.0;
  /// Probe scheduling jitter as a fraction of the open window, drawn
  /// from the tracker's forked engine (deterministic per seed).  Keeps a
  /// fleet of breakers tripped by one outage from probing in lockstep.
  double ProbeJitter = 0.25;
  /// Smallest health score a known-bad site reports: keeps scores
  /// positive so demotion never turns into division blow-ups upstream.
  static constexpr double HealthFloor = 0.05;
};

/// Observes transfer outcomes per source site and answers health queries
/// for the selection stack.
class HealthTracker {
public:
  /// Forks the jitter engine off \p Sim's root engine at construction —
  /// construct in a fixed order relative to other forks.
  explicit HealthTracker(Simulator &Sim, HealthConfig Config = HealthConfig());

  HealthTracker(const HealthTracker &) = delete;
  HealthTracker &operator=(const HealthTracker &) = delete;

  /// Feeds one successful transfer from \p Site: \p PayloadBytes moved in
  /// \p DataSeconds of data phase.  Closes or sustains the breaker.
  void recordSuccess(const Host &Site, Bytes PayloadBytes,
                     SimTime DataSeconds);

  /// Feeds one failed (or timed-out) transfer from \p Site.  May trip the
  /// breaker, or re-open it when a probe fails.
  void recordFailure(const Host &Site);

  /// A dispatched transfer never ran (e.g. shed by destination admission
  /// control): releases a HalfOpen probe slot without recording a sample.
  void noteAbandoned(const Host &Site);

  /// Current breaker position (advances Open → HalfOpen when the open
  /// window has elapsed).
  BreakerState state(const Host &Site);

  /// True when selection may route a transfer to \p Site now: Closed, or
  /// HalfOpen with the probe slot free.
  bool allows(const Host &Site);

  /// Marks a transfer as dispatched to \p Site; a HalfOpen site's probe
  /// slot is taken until the outcome arrives.
  void noteDispatch(const Host &Site);

  /// Health score in [HealthFloor, 1]: (1 - failure EWMA) scaled by the
  /// site's throughput EWMA relative to its own observed peak.  1.0 for
  /// sites with no samples yet.  Policies multiply this into their cost
  /// score to demote degraded sites.
  double healthScore(const Host &Site);

  /// Failure-rate EWMA (0 for unknown sites).
  double failureRate(const Host &Site) const;

  /// Throughput EWMA, bits/second (0 for unknown sites).
  BitRate throughputEwma(const Host &Site) const;

  /// Breaker trips across all sites since construction.
  uint64_t totalTrips() const { return Trips; }

  const HealthConfig &config() const { return Config; }

  /// Attaches a trace log (TraceCategory::Health events).
  void setTrace(TraceLog *Log) { Trace = Log; }

private:
  struct SiteState {
    double TputEwma = 0.0; // bits/second
    double PeakTput = 0.0;
    double FailEwma = 0.0;
    unsigned Samples = 0;
    unsigned ConsecutiveTrips = 0;
    BreakerState State = BreakerState::Closed;
    SimTime OpenUntil = 0.0;
    bool ProbeInFlight = false;
  };

  /// Looks up (or creates) a site's state and applies the lazy
  /// Open → HalfOpen transition.
  SiteState &refresh(const Host &Site);
  void trip(SiteState &S, const Host &Site);

  Simulator &Sim;
  HealthConfig Config;
  RandomEngine Rng;
  TraceLog *Trace = nullptr;
  /// Keyed by host pointer and only ever looked up (never iterated):
  /// the unordered map cannot leak nondeterminism into the simulation.
  std::unordered_map<const Host *, SiteState> Sites;
  uint64_t Trips = 0;
};

} // namespace dgsim

#endif // DGSIM_REPLICA_HEALTHTRACKER_H
