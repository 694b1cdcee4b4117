//===- monitor/InformationService.cpp ---------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "monitor/InformationService.h"

// Header-only use of the FaultKind enum (see Sensor.cpp).
#include "fault/FaultPlan.h"
#include "support/Json.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace dgsim;

static uint64_t pathKey(NodeId Client, NodeId Server) {
  return (static_cast<uint64_t>(Client) << 32) | Server;
}

InformationService::InformationService(Simulator &Sim, FlowNetwork &Net,
                                       InformationServiceConfig Config)
    : Sim(Sim), Net(Net), Config(Config) {
  assert(Config.BandwidthPeriod > 0.0 && Config.HostPeriod > 0.0 &&
         "sensor periods must be positive");
  assert(Config.StaggerGroups >= 1 && "need at least one stagger group");
  if (Config.PathSensorTtl > 0.0)
    TtlSweep = Sim.schedulePeriodic(Config.PathSensorTtl,
                                    [this] { evictIdlePaths(); });
}

InformationService::~InformationService() { Sim.cancelPeriodic(TtlSweep); }

SensorBatch *
InformationService::batchFor(std::vector<std::unique_ptr<SensorBatch>> &Group,
                             SimTime Period, size_t Index) {
  if (!Config.BatchSensors)
    return nullptr;
  if (Group.empty())
    Group.resize(Config.StaggerGroups);
  size_t G = Index % Config.StaggerGroups;
  if (!Group[G])
    Group[G] = std::make_unique<SensorBatch>(
        Sim, Period, Period * double(G) / double(Config.StaggerGroups));
  return Group[G].get();
}

SensorBatch *InformationService::hostBatch() {
  return batchFor(HostBatches, Config.HostPeriod, Hosts.size());
}

SensorBatch *InformationService::pathBatch() {
  return batchFor(PathBatches, Config.BandwidthPeriod, PathRoundRobin++);
}

void InformationService::registerHost(const Host &H) {
  assert(HostIds.find(H.name()) == StringInterner::InvalidId &&
         "host already registered");
  // query() reads a host's last CPU and I/O samples, never a forecast, so
  // host sensors keep the last sample only.
  HostSensors S;
  if (SensorBatch *B = hostBatch()) {
    S.Cpu = std::make_unique<Sensor>(Sim, "cpu/" + H.name(), *B,
                                     [&H] { return H.cpuIdle(); },
                                     /*Forecasts=*/false);
    S.Io = std::make_unique<Sensor>(Sim, "io/" + H.name(), *B,
                                    [&H] { return H.ioIdle(); },
                                    /*Forecasts=*/false);
  } else {
    S.Cpu = std::make_unique<Sensor>(Sim, "cpu/" + H.name(),
                                     Config.HostPeriod,
                                     [&H] { return H.cpuIdle(); },
                                     /*Forecasts=*/false);
    S.Io = std::make_unique<Sensor>(Sim, "io/" + H.name(), Config.HostPeriod,
                                    [&H] { return H.ioIdle(); },
                                    /*Forecasts=*/false);
  }
  if (GateEnabled) {
    S.Cpu->setGateConfig(&Gate);
    S.Io->setGateConfig(&Gate);
  }
  // A host registered mid-window inherits the global telemetry faults
  // (host-scoped ones cannot target a host that did not exist at arm).
  for (const TelemetryFault &F : ActiveFaults)
    if (F.S == TelemetryFault::Scope::Global) {
      applyTelemetryFault(*S.Cpu, F, /*Begin=*/true);
      applyTelemetryFault(*S.Io, F, /*Begin=*/true);
    }
  // Prime the series so queries before the first tick see a value.
  S.Cpu->sampleNow();
  S.Io->sampleNow();
  StringInterner::Id Id = HostIds.intern(H.name());
  assert(Id == Hosts.size() && "intern ids must stay dense");
  (void)Id;
  Hosts.push_back(std::move(S));
}

void InformationService::watchPath(NodeId Client, NodeId Server) {
  (void)watchPathEntry(Client, Server);
}

InformationService::PathSensors &
InformationService::watchPathEntry(NodeId Client, NodeId Server) {
  uint64_t Key = pathKey(Client, Server);
  auto Existing = Paths.find(Key);
  if (Existing != Paths.end()) {
    Existing->second.LastQuery = Sim.now();
    return Existing->second;
  }
  // The bandwidth sensor measures what one more well-provisioned GridFTP
  // transfer would obtain right now (a multi-stream probe, as NWS
  // deployments tuned for GridFTP used large probe messages).
  auto Probe = [this, Client, Server] {
    BitRate R = Net.probeBandwidth(Server, Client, /*Streams=*/4);
    // A same-node path is unbounded; store a finite sentinel so the
    // forecaster arithmetic stays well defined.
    return std::min(R, 1e12);
  };
  std::string Name =
      "bw/" + std::to_string(Server) + "->" + std::to_string(Client);
  PathSensors PS;
  PS.LastQuery = Sim.now();
  if (SensorBatch *B = pathBatch())
    PS.Bandwidth =
        std::make_unique<Sensor>(Sim, std::move(Name), *B, std::move(Probe));
  else
    PS.Bandwidth = std::make_unique<Sensor>(
        Sim, std::move(Name), Config.BandwidthPeriod, std::move(Probe));
  // A probe launched during a blackout measures nothing: the sensor is
  // born suspended and its series stays empty until the blackout lifts.
  PS.Bandwidth->setSuspended(Blackout);
  if (GateEnabled)
    PS.Bandwidth->setGateConfig(&Gate);
  // A path sensor created (or re-created after TTL eviction) inside a
  // telemetry fault window inherits it, same as blackout suspension: the
  // fault targets the *path*, not one incarnation of its sensor.
  for (const TelemetryFault &F : ActiveFaults)
    if (F.S == TelemetryFault::Scope::Global ||
        (F.S == TelemetryFault::Scope::Path && F.Server == Server &&
         F.Client == Client))
      applyTelemetryFault(*PS.Bandwidth, F, /*Begin=*/true);
  PS.Bandwidth->sampleNow();
  return Paths.emplace(Key, std::move(PS)).first->second;
}

SystemFactors InformationService::query(NodeId ClientNode,
                                        const Host &Candidate) {
  // The entry lookup doubles as the TTL touch.
  const Sensor *Bw =
      watchPathEntry(ClientNode, Candidate.node()).Bandwidth.get();
  assert(Bw && "watchPath did not create a sensor");
  ++FactorQueries;

  SystemFactors F;
  F.PredictedBandwidth = Bw->forecast();
  if (Log)
    F.PredictedBandwidth = Log->predict(Candidate.node(), ClientNode,
                                        HintBytes, F.PredictedBandwidth);

  double Denominator = 0.0;
  if (Config.Normalization == BwNormalization::ClientAccess) {
    // The client can never receive faster than its best access link.
    const Topology &Topo = Net.topology();
    for (LinkId L : Topo.linksAt(ClientNode))
      Denominator = std::max(Denominator, Topo.link(L).Capacity);
  } else if (const NetPath *Path =
                 Net.routing().pathRef(Candidate.node(), ClientNode)) {
    Denominator = Path->BottleneckCapacity;
  }
  if (Candidate.node() == ClientNode || !std::isfinite(Denominator) ||
      Denominator <= 0.0) {
    // Local replica (or an isolated client): bandwidth does not bind.
    F.BwFraction = 1.0;
  } else {
    F.BwFraction = std::clamp(F.PredictedBandwidth / Denominator, 0.0, 1.0);
  }
  const HostSensors &HS = hostSensors(Candidate);
  F.CpuIdle = HS.Cpu->lastValue();
  F.IoIdle = HS.Io->lastValue();
  return F;
}

void InformationService::applyTelemetryFault(Sensor &S,
                                             const TelemetryFault &F,
                                             bool Begin) {
  if (Begin)
    S.faultBegin(F.Kind, F.Magnitude, F.Offset,
                 F.Seed ^ fnv1a(S.name()));
  else
    S.faultEnd(F.Kind);
}

void InformationService::routeTelemetryFault(const TelemetryFault &F,
                                             bool Begin) {
  switch (F.S) {
  case TelemetryFault::Scope::Global:
    forEachSensor([&](Sensor &S) { applyTelemetryFault(S, F, Begin); });
    break;
  case TelemetryFault::Scope::Host: {
    StringInterner::Id Id = HostIds.find(F.TargetHost->name());
    assert(Id != StringInterner::InvalidId &&
           "telemetry fault on unregistered host");
    HostSensors &S = Hosts[Id];
    applyTelemetryFault(*S.Cpu, F, Begin);
    applyTelemetryFault(*S.Io, F, Begin);
    break;
  }
  case TelemetryFault::Scope::Path: {
    auto It = Paths.find(pathKey(F.Client, F.Server));
    if (It == Paths.end())
      break; // Not watched yet; watchPathEntry applies on creation.
    applyTelemetryFault(*It->second.Bandwidth, F, Begin);
    break;
  }
  }
}

void InformationService::beginTelemetryFault(const TelemetryFault &F) {
  ActiveFaults.push_back(F);
  routeTelemetryFault(F, /*Begin=*/true);
}

void InformationService::endTelemetryFault(const TelemetryFault &F) {
  // Pop the oldest matching window: overlap is depth-counted on the
  // sensors, so which of two identically-scoped entries dies first is
  // immaterial — but exactly one must.
  for (auto It = ActiveFaults.begin(); It != ActiveFaults.end(); ++It) {
    if (It->Kind == F.Kind && It->S == F.S &&
        It->TargetHost == F.TargetHost && It->Server == F.Server &&
        It->Client == F.Client) {
      ActiveFaults.erase(It);
      routeTelemetryFault(F, /*Begin=*/false);
      return;
    }
  }
  assert(false && "endTelemetryFault without a matching begin");
}

void InformationService::setSensorGate(bool V) {
  if (GateEnabled == V)
    return;
  GateEnabled = V;
  const GateConfig *Cfg = V ? &Gate : nullptr;
  forEachSensor([Cfg](Sensor &S) { S.setGateConfig(Cfg); });
}

uint64_t InformationService::gateRejections() const {
  uint64_t N = RetiredRejections;
  forEachSensor([&N](const Sensor &S) { N += S.gateRejected(); });
  return N;
}

uint64_t InformationService::droppedSamples() const {
  uint64_t N = RetiredDropped;
  forEachSensor([&N](const Sensor &S) {
    if (const SensorFaultState *F = S.faultState())
      N += F->Dropped;
  });
  return N;
}

void InformationService::setBlackout(bool V) {
  if (Blackout == V)
    return;
  Blackout = V;
  forEachSensor([V](Sensor &S) { S.setSuspended(V); });
}

void InformationService::evictIdlePaths() {
  SimTime Cutoff = Sim.now() - Config.PathSensorTtl;
  for (auto It = Paths.begin(); It != Paths.end();) {
    if (It->second.LastQuery < Cutoff) {
      // Fold robustness counters in before they die with the sensor.
      const Sensor &S = *It->second.Bandwidth;
      RetiredRejections += S.gateRejected();
      if (const SensorFaultState *F = S.faultState())
        RetiredDropped += F->Dropped;
      It = Paths.erase(It);
    } else {
      ++It;
    }
  }
}

const InformationService::HostSensors &
InformationService::hostSensors(const Host &H) const {
  StringInterner::Id Id = HostIds.find(H.name());
  assert(Id != StringInterner::InvalidId && "host not registered");
  return Hosts[Id];
}

double InformationService::cpuIdle(const Host &H) const {
  return hostSensors(H).Cpu->lastValue();
}

double InformationService::ioIdle(const Host &H) const {
  return hostSensors(H).Io->lastValue();
}

const Sensor *InformationService::bandwidthSensor(NodeId Client,
                                                  NodeId Server) const {
  auto It = Paths.find(pathKey(Client, Server));
  return It == Paths.end() ? nullptr : It->second.Bandwidth.get();
}

