//===- monitor/Sensor.cpp --------------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "monitor/Sensor.h"

// Header-only use of the FaultKind enum: the monitor layer never calls
// into dgsim_fault, the fault layer drives sensors through the
// information service.
#include "fault/FaultPlan.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

using namespace dgsim;

Sensor::Sensor(Simulator &Sim, std::string Name, SimTime Period,
               std::function<double()> Measure, size_t HistoryCapacity)
    : Sim(Sim), Name(std::move(Name)), Measure(std::move(Measure)),
      History(HistoryCapacity) {
  assert(Period > 0.0 && "sensors need a positive period");
  assert(this->Measure && "sensors need a measurement closure");
  Periodic = Sim.schedulePeriodic(Period, [this] { sampleNow(); });
}

Sensor::Sensor(Simulator &Sim, std::string Name, SensorBatch &Batch,
               std::function<double()> Measure, size_t HistoryCapacity)
    : Sim(Sim), Name(std::move(Name)), Measure(std::move(Measure)),
      History(HistoryCapacity) {
  assert(this->Measure && "sensors need a measurement closure");
  Batch.add(*this);
}

Sensor::~Sensor() {
  if (Batch)
    Batch->remove(*this);
  Sim.cancelPeriodic(Periodic);
}

void Sensor::sampleNow() {
  if (Suspended)
    return;
  record(Sim.now(), Measure());
}

double Sensor::lastValue() const {
  return History.empty() ? 0.0 : History.latest().Value;
}

SimTime Sensor::lastSampleTime() const {
  if (History.empty())
    return -std::numeric_limits<double>::infinity();
  // An active clock skew lies at *read* time: stored timestamps stay
  // truthful (and monotone), the reported one drifts while the fault is
  // in force and snaps back the moment it lifts.
  return History.latest().Time + clockSkew();
}

double Sensor::clockSkew() const {
  return Faults && Faults->SkewDepth ? Faults->SkewSeconds : 0.0;
}

SensorFaultState &Sensor::faults() {
  if (!Faults)
    Faults = std::make_unique<SensorFaultState>();
  return *Faults;
}

void Sensor::faultBegin(FaultKind Kind, double Magnitude, double Offset,
                        uint64_t NoiseSeed) {
  SensorFaultState &F = faults();
  switch (Kind) {
  case FaultKind::SensorBias:
    ++F.BiasDepth;
    F.BiasFactor = Magnitude;
    F.BiasOffset = Offset;
    break;
  case FaultKind::SensorStuck:
    ++F.StuckDepth;
    break;
  case FaultKind::SensorNoise:
    ++F.NoiseDepth;
    F.NoiseScale = Magnitude;
    if (!F.NoiseRng)
      F.NoiseRng.emplace(NoiseSeed);
    break;
  case FaultKind::SensorDropout:
    ++F.DropDepth;
    break;
  case FaultKind::ClockSkew:
    ++F.SkewDepth;
    F.SkewSeconds = Magnitude;
    break;
  default:
    assert(false && "not a sensor-level telemetry fault kind");
  }
  ++Version;
}

void Sensor::faultEnd(FaultKind Kind) {
  assert(Faults && "faultEnd without a matching faultBegin");
  SensorFaultState &F = *Faults;
  switch (Kind) {
  case FaultKind::SensorBias:
    assert(F.BiasDepth > 0);
    --F.BiasDepth;
    break;
  case FaultKind::SensorStuck:
    assert(F.StuckDepth > 0);
    --F.StuckDepth;
    break;
  case FaultKind::SensorNoise:
    assert(F.NoiseDepth > 0);
    --F.NoiseDepth;
    break;
  case FaultKind::SensorDropout:
    assert(F.DropDepth > 0);
    --F.DropDepth;
    break;
  case FaultKind::ClockSkew:
    assert(F.SkewDepth > 0);
    --F.SkewDepth;
    break;
  default:
    assert(false && "not a sensor-level telemetry fault kind");
  }
  ++Version;
}

void Sensor::recordSlow(SimTime Now, double Value) {
  if (Faults) {
    SensorFaultState &F = *Faults;
    if (F.DropDepth) {
      ++F.Dropped;
      return;
    }
    if (F.StuckDepth) {
      if (History.empty())
        return; // Nothing to freeze at yet: stuck-from-birth stays mute.
      Value = History.latest().Value;
    } else {
      if (F.BiasDepth)
        Value = Value * F.BiasFactor + F.BiasOffset;
      if (F.NoiseDepth)
        Value *= F.NoiseRng->logNormal(0.0, F.NoiseScale);
      if (!std::isfinite(Value))
        return; // A corrupted non-finite reading is a dropped reading.
    }
  }
  if (GateCfg && !Gate.admit(Value, *GateCfg))
    return; // Rejected: counted by the gate, surfaced by the service.
  History.add(Now, Value);
  Fc.observe(Value);
  ++Version;
}

//===----------------------------------------------------------------------===//
// SensorBatch
//===----------------------------------------------------------------------===//

SensorBatch::SensorBatch(Simulator &Sim, SimTime Period, SimTime Phase)
    : Sim(Sim) {
  assert(Period > 0.0 && "batches need a positive period");
  assert(Phase >= 0.0 && "batch phase must be non-negative");
  Periodic = Sim.schedulePeriodic(Period, [this] { tick(); }, Phase);
}

SensorBatch::~SensorBatch() {
  assert(size() == 0 && "batch destroyed while sensors still attached");
  Sim.cancelPeriodic(Periodic);
}

void SensorBatch::add(Sensor &S) {
  assert(!S.Batch && "sensor already batch-driven");
  S.Batch = this;
  S.BatchPos = Members.size();
  Members.push_back(&S);
}

void SensorBatch::remove(Sensor &S) {
  assert(S.Batch == this && Members[S.BatchPos] == &S &&
         "sensor not a member of this batch");
  Members[S.BatchPos] = nullptr;
  S.Batch = nullptr;
  ++Dead;
  if (Dead * 2 > Members.size()) {
    // Compact, preserving registration order so tick order is unchanged.
    size_t Out = 0;
    for (Sensor *M : Members)
      if (M) {
        M->BatchPos = Out;
        Members[Out++] = M;
      }
    Members.resize(Out);
    Dead = 0;
  }
}

void SensorBatch::tick() {
  // Members added during a tick (a measurement closure creating sensors is
  // unusual but legal) are sampled starting from the next tick: index-based
  // iteration over the pre-tick size keeps the pass well defined even if
  // Members reallocates.
  size_t N = Members.size();
  for (size_t I = 0; I != N; ++I)
    if (Sensor *M = Members[I])
      M->sampleNow();
}
