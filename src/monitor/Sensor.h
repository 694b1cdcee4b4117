//===- monitor/Sensor.h - Periodic measurement processes -------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The nws_sensor analogue: a process that periodically measures one scalar
/// (available bandwidth, CPU idle %, I/O idle %) and keeps its last sample.
/// A forecasting sensor also feeds an NwsForecaster so consumers can ask
/// for a prediction instead of a stale last reading; the forecaster's
/// 40-value window is the only stored series (the nws_memory analogue).
/// The InformationService makes its bandwidth sensors forecast and keeps
/// only the last sample of host CPU and I/O, which the paper read from MDS
/// and sysstat rather than from a forecaster.  A sensor holds only its own
/// state; the service that owns it indexes it by host or path.
///
/// Sensors come in two scheduling modes.  A self-scheduled sensor owns one
/// periodic kernel event (the historical behaviour, and still the default).
/// A batch-driven sensor is sampled by a SensorBatch, which multiplexes any
/// number of same-period sensors behind a single periodic event — at 10k+
/// sensors the per-sensor events otherwise dominate the event heap.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_MONITOR_SENSOR_H
#define DGSIM_MONITOR_SENSOR_H

#include "monitor/Forecaster.h"
#include "monitor/Robust.h"
#include "sim/PeriodicBatch.h"
#include "sim/Simulator.h"
#include "support/Random.h"
#include "support/TimeSeries.h"

#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>

namespace dgsim {

class Sensor;
enum class FaultKind : uint8_t;

/// Samples a set of same-period sensors behind one periodic kernel event;
/// an owner can stagger several batches across one period (the Phase
/// argument) so a large sensor population does not sample in one burst.
using SensorBatch = PeriodicBatch<Sensor>;

/// Data-plane corruption state of one sensor (DESIGN.md §15), allocated
/// only while at least one telemetry fault window touches the sensor.
/// Each kind is depth-counted so overlapping windows nest like every
/// other fault kind; parameters are the innermost window's.
struct SensorFaultState {
  int BiasDepth = 0;
  double BiasFactor = 1.0;
  double BiasOffset = 0.0;
  int StuckDepth = 0;
  int NoiseDepth = 0;
  double NoiseScale = 0.0;
  /// Sensor-private noise stream: a shared stream would make values
  /// depend on sampling interleave.
  /// Seeded from the window seed hashed with the sensor name, so the
  /// draw sequence is independent of sensor creation or tick order.
  std::optional<RandomEngine> NoiseRng;
  int DropDepth = 0;
  int SkewDepth = 0;
  double SkewSeconds = 0.0;
  /// Samples silenced by an active dropout (introspection/counters).
  uint64_t Dropped = 0;
};

/// A periodic sensor over a measurement closure.
class Sensor {
public:
  /// Self-scheduled: the sensor owns a periodic event firing every
  /// \p Period seconds, first at creation time.
  /// \param Name unique sensor name, e.g. "bw/alpha1->hit0".
  /// \param Period sampling period, seconds.
  /// \param Measure closure producing the current value of the resource.
  /// \param Forecasts whether samples also feed the forecaster; when
  ///        false only the last sample is kept.
  Sensor(Simulator &Sim, std::string Name, SimTime Period,
         std::function<double()> Measure, bool Forecasts = true);

  /// Batch-driven: the sensor is sampled whenever \p Batch ticks, first at
  /// the batch's next tick (adding it takes no sample; an owner that needs
  /// one now calls sampleNow()).  It owns no kernel event and detaches
  /// from the batch on destruction.
  Sensor(Simulator &Sim, std::string Name, SensorBatch &Batch,
         std::function<double()> Measure, bool Forecasts = true);

  ~Sensor();

  Sensor(const Sensor &) = delete;
  Sensor &operator=(const Sensor &) = delete;

  const std::string &name() const { return Name; }

  /// \returns the most recent sample value; 0 before the first sample.
  double lastValue() const { return Last.Value; }

  /// \returns the time of the most recent sample, or -inf when none.
  /// An active clock skew lies at read time only: the stored time stays
  /// truthful, and the reported one snaps back when the fault lifts.
  SimTime lastSampleTime() const { return Last.Time + clockSkew(); }

  /// \returns the NWS forecast of the next value; 0 for a sensor that
  /// does not forecast.
  double forecast() const { return Fc.predict(); }

  /// \returns the adaptive forecaster (for error introspection; its
  /// observationCount() is the number of samples a forecasting sensor
  /// ingested, and stays 0 for one that does not forecast).
  const NwsForecaster &forecaster() const { return Fc; }

  /// Takes one sample immediately, outside the periodic schedule.
  /// No-op while suspended.
  void sampleNow();

  /// Suspends (or resumes) sampling: a suspended sensor keeps its periodic
  /// schedule but takes no measurements, so consumers see the last-known
  /// value ageing — exactly what a monitoring blackout looks like from the
  /// information service.  lastSampleTime() exposes the staleness.
  void setSuspended(bool V) { Suspended = V; }
  bool suspended() const { return Suspended; }

  //===--------------------------------------------------------------------===//
  // Telemetry corruption and plausibility gating (DESIGN.md §15)
  //===--------------------------------------------------------------------===//

  /// Begins one telemetry fault on this sensor.  \p Kind must be a
  /// sensor-level telemetry kind (bias/stuck/noise/dropout/clock-skew);
  /// \p Magnitude / \p Offset follow FaultWindow's conventions and
  /// \p NoiseSeed seeds the sensor-private noise stream (SensorNoise
  /// only).  Calls nest; faultEnd() unwinds one level.
  void faultBegin(FaultKind Kind, double Magnitude, double Offset,
                  uint64_t NoiseSeed);
  void faultEnd(FaultKind Kind);

  /// \returns the corruption state, or nullptr when no fault ever touched
  /// this sensor.
  const SensorFaultState *faultState() const { return Faults.get(); }

  /// Attaches the owner's shared plausibility-gate configuration (null
  /// detaches).  While attached and enabled, every sample is judged by a
  /// median/MAD gate before ingest; rejected samples are counted here and
  /// aggregated by the information service, never silently dropped.
  void setGateConfig(const GateConfig *Cfg) { GateCfg = Cfg; }

  uint64_t gateRejected() const { return Gate.rejected(); }

  /// Reported-clock drift currently in force (0 when unskewed): consumers
  /// reading lastSampleTime() see the true time plus this.
  double clockSkew() const;

private:
  friend SensorBatch;

  /// One batch tick: a scheduled sample.
  void tick() { sampleNow(); }

  /// Ingests one already-measured sample: the last sample, plus the
  /// forecaster when the sensor forecasts.  The corrupted/gated path
  /// branches out once, so the healthy fast path stays two pointer-width
  /// checks.
  void record(SimTime Now, double Value) {
    if (Faults || GateCfg) {
      recordSlow(Now, Value);
      return;
    }
    ingest(Now, Value);
  }

  /// Stores one admitted sample.
  void ingest(SimTime Now, double Value) {
    Last = {Now, Value};
    if (Forecasts)
      Fc.observe(Value);
  }

  /// The corruption/gating pipeline: dropout -> stuck -> bias -> noise,
  /// then the plausibility gate, then ingest.
  void recordSlow(SimTime Now, double Value);

  SensorFaultState &faults();

  Simulator &Sim;
  std::string Name;
  std::function<double()> Measure;
  /// The most recent ingested sample; Time is -inf before the first.
  Sample Last{-std::numeric_limits<double>::infinity(), 0.0};
  NwsForecaster Fc;
  EventId Periodic = InvalidEventId;
  /// Batch membership (batch-driven mode); maintained by SensorBatch.
  SensorBatch *Batch = nullptr;
  size_t BatchPos = 0;
  bool Suspended = false;
  bool Forecasts;
  std::unique_ptr<SensorFaultState> Faults;
  const GateConfig *GateCfg = nullptr;
  PlausibilityGate Gate;
};

} // namespace dgsim

#endif // DGSIM_MONITOR_SENSOR_H
