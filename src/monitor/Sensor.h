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
/// and sysstat rather than from a forecaster.
///
/// A sensor holds only state some reader can reach.  The battery is built
/// out of line at the second sample (or at the first forecaster() read),
/// fed the first sample and then the second, so its state is what it
/// would have been from birth; a battery that has seen one value forecasts
/// exactly that value, so until then forecast() serves the last sample.
/// The plausibility gate is built when a configuration first attaches.
/// A sensor stores no name: the service that owns it indexes it by host
/// or path and derives the name a noise seed hashes from those.
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
  /// Seeded from the window seed hashed with the sensor's name, which
  /// its owner derives from the host or path it watches, so the
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
  /// \param Period sampling period, seconds.
  /// \param Measure closure producing the current value of the resource.
  /// \param Forecasts whether samples also feed the forecaster; when
  ///        false only the last sample is kept.
  Sensor(Simulator &Sim, SimTime Period, std::function<double()> Measure,
         bool Forecasts = true);

  /// Batch-driven: the sensor is sampled whenever \p Batch ticks, first at
  /// the batch's next tick (adding it takes no sample; an owner that needs
  /// one now calls sampleNow()).  It owns no kernel event and detaches
  /// from the batch on destruction.
  Sensor(Simulator &Sim, SensorBatch &Batch, std::function<double()> Measure,
         bool Forecasts = true);

  ~Sensor();

  Sensor(const Sensor &) = delete;
  Sensor &operator=(const Sensor &) = delete;

  /// \returns the most recent sample value; 0 before the first sample.
  double lastValue() const { return Last.Value; }

  /// \returns the time of the most recent sample, or -inf when none.
  /// An active clock skew lies at read time only: the stored time stays
  /// truthful, and the reported one snaps back when the fault lifts.
  SimTime lastSampleTime() const { return Last.Time + clockSkew(); }

  /// \returns the NWS forecast of the next value; 0 for a sensor that
  /// does not forecast.  Before the battery exists that is the last
  /// sample (0 before any), which is what a one-value battery predicts:
  /// every member's error is 0, so member 0 (last value) wins the tie.
  double forecast() const {
    if (Fc)
      return Fc->predict();
    return Forecasts ? Last.Value : 0.0;
  }

  /// \returns the adaptive forecaster (for error introspection; its
  /// observationCount() is the number of samples a forecasting sensor
  /// ingested, and stays 0 for one that does not forecast).  The first
  /// read of a forecasting sensor's battery builds it from the sample it
  /// holds; a sensor that does not forecast returns one shared empty
  /// battery and never builds its own.
  const NwsForecaster &forecaster() const;

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
  /// aggregated by the information service, never silently dropped.  The
  /// first attach builds the gate; a detached gate keeps its window.
  void setGateConfig(const GateConfig *Cfg) {
    if (Cfg && !Gate)
      Gate = std::make_unique<PlausibilityGate>();
    GateCfg = Cfg;
  }

  /// \returns samples the gate rejected; 0 before a gate was attached.
  uint64_t gateRejected() const { return Gate ? Gate->rejected() : 0; }

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

  /// Stores one admitted sample.  A forecasting sensor's second sample
  /// builds the battery.
  void ingest(SimTime Now, double Value) {
    if (Fc)
      Fc->observe(Value);
    else if (Forecasts && Last.Time != NoSample)
      buildForecaster()->observe(Value);
    Last = {Now, Value};
  }

  /// Builds the battery and feeds it the sample already held, if any.
  /// \returns the new battery.
  NwsForecaster *buildForecaster() const;

  /// The corruption/gating pipeline: dropout -> stuck -> bias -> noise,
  /// then the plausibility gate, then ingest.
  void recordSlow(SimTime Now, double Value);

  SensorFaultState &faults();

  static constexpr SimTime NoSample = -std::numeric_limits<double>::infinity();

  Simulator &Sim;
  std::function<double()> Measure;
  /// The most recent ingested sample; Time is NoSample before the first.
  Sample Last{NoSample, 0.0};
  /// The battery of a forecasting sensor, from its second sample or first
  /// forecaster() read on; null until then and for one that does not
  /// forecast.
  mutable std::unique_ptr<NwsForecaster> Fc;
  EventId Periodic = InvalidEventId;
  /// Batch membership (batch-driven mode); maintained by SensorBatch.
  SensorBatch *Batch = nullptr;
  size_t BatchPos = 0;
  bool Suspended = false;
  bool Forecasts;
  std::unique_ptr<SensorFaultState> Faults;
  const GateConfig *GateCfg = nullptr;
  /// Built by the first setGateConfig() that attaches a configuration.
  std::unique_ptr<PlausibilityGate> Gate;
};

} // namespace dgsim

#endif // DGSIM_MONITOR_SENSOR_H
