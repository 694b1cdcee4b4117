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

#include <cassert>
#include <cmath>
#include <limits>

using namespace dgsim;

Sensor::Sensor(Simulator &Sim, std::string Name, SimTime Period,
               std::function<double()> Measure, bool Forecasts)
    : Sim(Sim), Name(std::move(Name)), Measure(std::move(Measure)),
      Forecasts(Forecasts) {
  assert(Period > 0.0 && "sensors need a positive period");
  assert(this->Measure && "sensors need a measurement closure");
  Periodic = Sim.schedulePeriodic(Period, [this] { sampleNow(); });
}

Sensor::Sensor(Simulator &Sim, std::string Name, SensorBatch &Batch,
               std::function<double()> Measure, bool Forecasts)
    : Sim(Sim), Name(std::move(Name)), Measure(std::move(Measure)),
      Forecasts(Forecasts) {
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
}

void Sensor::recordSlow(SimTime Now, double Value) {
  if (Faults) {
    SensorFaultState &F = *Faults;
    if (F.DropDepth) {
      ++F.Dropped;
      return;
    }
    if (F.StuckDepth) {
      if (Last.Time == -std::numeric_limits<double>::infinity())
        return; // Nothing to freeze at yet: stuck-from-birth stays mute.
      Value = Last.Value;
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
  ingest(Now, Value);
}
