//===- net/CrossTraffic.h - Background traffic generation ------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Background traffic that makes link bandwidth "unstable and dynamic", as
/// the paper puts it.  A generator injects flows between a node pair with
/// exponential inter-arrival times and Pareto (heavy-tailed) sizes — the
/// classic self-similar WAN traffic recipe — so the available bandwidth an
/// NWS probe sees varies over time and forecasting becomes meaningful.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_NET_CROSSTRAFFIC_H
#define DGSIM_NET_CROSSTRAFFIC_H

#include "net/FlowNetwork.h"
#include "sim/Simulator.h"
#include "support/Random.h"

namespace dgsim {

/// Configuration of one background traffic source.
struct CrossTrafficConfig {
  NodeId Src = InvalidNodeId;
  NodeId Dst = InvalidNodeId;
  /// Mean time between flow arrivals, seconds.
  SimTime MeanInterarrival = 1.0;
  /// Pareto scale (minimum flow size), bytes.
  Bytes MinFlowBytes = 512.0 * 1024.0;
  /// Pareto shape; 1 < alpha <= 2 gives heavy tails.
  static constexpr double ParetoShape = 1.5;
  /// Streams per background flow.
  unsigned Streams = 1;
};

/// Injects background flows until stopped.  Construction order determines
/// the PRNG fork order, so build generators deterministically.
class CrossTraffic {
public:
  CrossTraffic(Simulator &Sim, FlowNetwork &Net, CrossTrafficConfig Config);
  ~CrossTraffic() { stop(); }

  CrossTraffic(const CrossTraffic &) = delete;
  CrossTraffic &operator=(const CrossTraffic &) = delete;

  /// Begins injecting flows (idempotent).
  void start();

  /// Stops new arrivals; in-flight background flows drain naturally.
  void stop();

  /// \returns the number of background flows injected so far.
  uint64_t flowsInjected() const { return Injected; }

private:
  void scheduleNext();

  Simulator &Sim;
  FlowNetwork &Net;
  CrossTrafficConfig Config;
  RandomEngine Rng;
  bool Running = false;
  EventId NextArrival = InvalidEventId;
  uint64_t Injected = 0;
};

} // namespace dgsim

#endif // DGSIM_NET_CROSSTRAFFIC_H
