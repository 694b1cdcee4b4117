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
  assert(Config.UpdatePeriod > 0.0 && "non-positive update period");
  SqrtDt = std::sqrt(Config.UpdatePeriod);
  if (Batch) {
    assert(Batch->period() == Config.UpdatePeriod &&
           "batch-driven model must share the batch period");
    Batch->add(*this);
  } else {
    TickHandle = Sim.schedulePeriodic(Config.UpdatePeriod, [this] { tick(); });
  }
  if (Config.BurstMeanInterarrival > 0.0)
    scheduleBurst();
}

CpuLoadModel::~CpuLoadModel() {
  if (Batch)
    Batch->remove(*this);
  Sim.cancelPeriodic(TickHandle);
  if (BurstArrival != InvalidEventId)
    Sim.cancel(BurstArrival);
}

double CpuLoadModel::load() const {
  return std::clamp(BaseLoad + ActiveBursts * Config.BurstLoad, 0.0, 1.0);
}

void CpuLoadModel::tick() {
  // Euler-Maruyama step of the OU SDE, clipped to the unit interval.
  double Dt = Config.UpdatePeriod;
  BaseLoad += Config.Reversion * (Config.MeanLoad - BaseLoad) * Dt +
              Config.Volatility * SqrtDt * Rng.normal(0.0, 1.0);
  BaseLoad = std::clamp(BaseLoad, 0.0, 1.0);
}

void CpuLoadModel::scheduleBurst() {
  SimTime Gap = Rng.exponential(Config.BurstMeanInterarrival);
  BurstArrival = Sim.scheduleDaemon(Gap, [this] {
    BurstArrival = InvalidEventId;
    ActiveBursts += 1.0;
    SimTime Duration = Rng.exponential(Config.BurstMeanDuration);
    Sim.scheduleDaemon(Duration, [this] { ActiveBursts -= 1.0; });
    scheduleBurst();
  });
}

//===----------------------------------------------------------------------===//
// CpuLoadBatch
//===----------------------------------------------------------------------===//

CpuLoadBatch::CpuLoadBatch(Simulator &Sim, SimTime Period)
    : Sim(Sim), Period(Period) {
  assert(Period > 0.0 && "batches need a positive period");
  Periodic = Sim.schedulePeriodic(Period, [this] { tick(); });
}

CpuLoadBatch::~CpuLoadBatch() {
  assert(size() == 0 && "batch destroyed while models still attached");
  Sim.cancelPeriodic(Periodic);
}

void CpuLoadBatch::add(CpuLoadModel &M) {
  assert(!M.Batch && "model already batch-driven");
  M.Batch = this;
  M.BatchPos = Members.size();
  Members.push_back(&M);
}

void CpuLoadBatch::remove(CpuLoadModel &M) {
  assert(M.Batch == this && Members[M.BatchPos] == &M &&
         "model not a member of this batch");
  Members[M.BatchPos] = nullptr;
  M.Batch = nullptr;
  ++Dead;
  if (Dead * 2 > Members.size()) {
    // Compact, preserving registration order so tick order is unchanged.
    size_t Out = 0;
    for (CpuLoadModel *M2 : Members)
      if (M2) {
        M2->BatchPos = Out;
        Members[Out++] = M2;
      }
    Members.resize(Out);
    Dead = 0;
  }
}

void CpuLoadBatch::tick() {
  size_t N = Members.size();
  for (size_t I = 0; I != N; ++I)
    if (CpuLoadModel *M = Members[I])
      M->tick();
}
