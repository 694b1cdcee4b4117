//===- host/CpuLoadModel.cpp -----------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "host/CpuLoadModel.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace dgsim;

CpuLoadModel::CpuLoadModel(Simulator &Sim, CpuLoadConfig Config,
                           CpuLoadBatch *Batch)
    : Sim(Sim), Config(Config), Rng(Sim.forkRng()),
      BaseLoad(Config.MeanLoad) {
  assert(Config.MeanLoad >= 0.0 && Config.MeanLoad <= 1.0 &&
         "mean load outside [0, 1]");
  if (Batch) {
    assert(Batch->period() == CpuLoadConfig::UpdatePeriod &&
           "batch-driven model must share the batch period");
    Batch->add(*this);
  } else {
    TickHandle =
        Sim.schedulePeriodic(CpuLoadConfig::UpdatePeriod, [this] { tick(); });
  }
}

CpuLoadModel::~CpuLoadModel() {
  if (Batch)
    Batch->remove(*this);
  Sim.cancelPeriodic(TickHandle);
}

void CpuLoadModel::tick() {
  // Euler-Maruyama step of the OU SDE, clipped to the unit interval.
  constexpr double Dt = CpuLoadConfig::UpdatePeriod;
  BaseLoad += Config.Reversion * (Config.MeanLoad - BaseLoad) * Dt +
              Config.Volatility * std::sqrt(Dt) * Rng.normal(0.0, 1.0);
  BaseLoad = std::clamp(BaseLoad, 0.0, 1.0);
}
