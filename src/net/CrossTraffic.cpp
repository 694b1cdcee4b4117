//===- net/CrossTraffic.cpp ------------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "net/CrossTraffic.h"

#include <cassert>

using namespace dgsim;

CrossTraffic::CrossTraffic(Simulator &Sim, FlowNetwork &Net,
                           CrossTrafficConfig Config)
    : Sim(Sim), Net(Net), Config(Config), Rng(Sim.forkRng()) {
  assert(Config.MeanInterarrival > 0.0 && "non-positive interarrival time");
  assert(Config.MinFlowBytes > 0.0 && "non-positive flow size");
}

void CrossTraffic::start() {
  if (Running)
    return;
  Running = true;
  scheduleNext();
}

void CrossTraffic::stop() {
  Running = false;
  if (NextArrival != InvalidEventId) {
    Sim.cancel(NextArrival);
    NextArrival = InvalidEventId;
  }
}

void CrossTraffic::scheduleNext() {
  SimTime Gap = Rng.exponential(Config.MeanInterarrival);
  NextArrival = Sim.scheduleDaemon(Gap, [this] {
    NextArrival = InvalidEventId;
    if (!Running)
      return;
    Bytes Size =
        Rng.pareto(Config.MinFlowBytes, CrossTrafficConfig::ParetoShape);
    FlowOptions Options;
    Options.Streams = Config.Streams;
    Options.Background = true;
    Net.startFlow(Config.Src, Config.Dst, Size, Options, nullptr);
    ++Injected;
    scheduleNext();
  });
}
