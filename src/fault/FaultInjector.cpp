//===- fault/FaultInjector.cpp -----------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "fault/FaultInjector.h"

#include <algorithm>
#include <cassert>
#include <cstdarg>
#include <cstdio>

using namespace dgsim;

FaultInjector::FaultInjector(Simulator &Sim, const Topology &Topo,
                             FlowNetwork &Net, TransferManager &Transfers,
                             InformationService &Info,
                             std::vector<Host *> Hosts, TraceLog *Trace,
                             std::function<TransferLog *()> LogAccessor)
    : Sim(Sim), Topo(Topo), Net(Net), Transfers(Transfers), Info(Info),
      Trace(Trace), LogAccessor(std::move(LogAccessor)) {
  for (Host *H : Hosts) {
    assert(H && "null host in the injector's host list");
    HostByName.emplace(H->name(), H);
  }
}

void FaultInjector::trace(const char *Fmt, ...) const {
  if (!Trace || !Trace->enabled(TraceCategory::Fault))
    return;
  char Buf[256];
  va_list Args;
  va_start(Args, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  Trace->record(Sim.now(), TraceCategory::Fault, Buf);
}

NodeId FaultInjector::resolveEndpoint(const std::string &Name) const {
  // Link endpoints are spec-level names: a site resolves to its switch
  // (DataGrid names it "<site>-sw"), anything else must be a topology node
  // (backbone routers keep their plain name).
  NodeId N = Topo.findNode(Name + "-sw");
  if (N == InvalidNodeId)
    N = Topo.findNode(Name);
  assert(N != InvalidNodeId && "fault target names no topology node");
  return N;
}

LinkId FaultInjector::resolveLink(const std::string &A,
                                  const std::string &B) const {
  NodeId NA = resolveEndpoint(A);
  NodeId NB = resolveEndpoint(B);
  for (LinkId L : Topo.linksAt(NA)) {
    const NetLink &Lk = Topo.link(L);
    if ((Lk.A == NA && Lk.B == NB) || (Lk.A == NB && Lk.B == NA))
      return L;
  }
  assert(false && "fault plan names a link that does not exist");
  return 0;
}

Host *FaultInjector::resolveHost(const std::string &Name) const {
  auto It = HostByName.find(Name);
  assert(It != HostByName.end() && "fault plan names an unknown host");
  return It->second;
}

void FaultInjector::arm(const FaultPlan &Plan) {
  assert(!Armed && "a FaultInjector arms exactly one plan");
  Armed = true;
  if (Plan.Processes.empty()) {
    // No randomness needed: do not fork, so a windows-only (or empty)
    // plan leaves every other component's random stream untouched.
    Expanded = Plan.Windows;
    std::stable_sort(Expanded.begin(), Expanded.end(),
                     [](const FaultWindow &A, const FaultWindow &B) {
                       return A.Start < B.Start;
                     });
  } else {
    RandomEngine Rng = Sim.forkRng();
    Expanded = Plan.expand(Rng);
  }
  // Resolve every target eagerly: a typo in a plan fails at arm() time,
  // not halfway through a run.
  for (const FaultWindow &W : Expanded) {
    switch (W.Kind) {
    case FaultKind::LinkDown:
      (void)resolveLink(W.Target, W.Target2);
      break;
    case FaultKind::HostCrash:
    case FaultKind::StorageOutage:
      (void)resolveHost(W.Target);
      break;
    case FaultKind::SensorBlackout:
      break;
    case FaultKind::SensorBias:
    case FaultKind::SensorStuck:
    case FaultKind::SensorNoise:
    case FaultKind::SensorDropout:
    case FaultKind::ClockSkew:
      // Global (no target), host (one name), or path (both names —
      // endpoints are hosts, not topology links).
      if (!W.Target.empty())
        (void)resolveHost(W.Target);
      if (!W.Target2.empty())
        (void)resolveHost(W.Target2);
      break;
    case FaultKind::LogCorrupt:
      // Global or path scoped; a host-only scope has no meaning for the
      // shared transfer log.
      assert((W.Target.empty() || !W.Target2.empty()) &&
             "log corruption is global or path-scoped, never host-scoped");
      if (!W.Target.empty()) {
        (void)resolveHost(W.Target);
        (void)resolveHost(W.Target2);
      }
      break;
    }
  }
  // Seed the windows that need randomness at fire time.  One extra fork,
  // taken only when such windows exist, keeps every other plan's fork
  // order (and so every golden) untouched.  Seeds are drawn in window
  // order, making each window's stream a function of (spec, seed) alone.
  bool NeedSeeds = false;
  for (const FaultWindow &W : Expanded)
    NeedSeeds |= W.Kind == FaultKind::SensorNoise ||
                 W.Kind == FaultKind::LogCorrupt;
  WindowSeeds.assign(Expanded.size(), 0);
  CorruptApplied.assign(Expanded.size(), 0);
  if (NeedSeeds) {
    RandomEngine SeedRng = Sim.forkRng();
    for (size_t I = 0, E = Expanded.size(); I != E; ++I)
      if (Expanded[I].Kind == FaultKind::SensorNoise ||
          Expanded[I].Kind == FaultKind::LogCorrupt)
        WindowSeeds[I] = SeedRng.next();
  }
  for (size_t I = 0, E = Expanded.size(); I != E; ++I) {
    const FaultWindow &W = Expanded[I];
    assert(W.Start >= Sim.now() && "fault window starts in the past");
    assert(W.Duration > 0.0 && "fault window needs a positive duration");
    // Daemons: a scheduled disaster never keeps the simulation alive.
    Sim.scheduleDaemonAt(W.Start, [this, I] { apply(I, /*Begin=*/true); });
    Sim.scheduleDaemonAt(W.Start + W.Duration,
                         [this, I] { apply(I, /*Begin=*/false); });
  }
  trace("armed: %zu window(s)", Expanded.size());
}

void FaultInjector::apply(size_t I, bool Begin) {
  const FaultWindow &W = Expanded[I];
  switch (W.Kind) {
  case FaultKind::LinkDown: {
    LinkId L = resolveLink(W.Target, W.Target2);
    int &Depth = LinkDepth[L];
    if (Begin) {
      if (++Depth == 1) {
        Net.setLinkEnabled(L, false);
        ++Counters.LinkDowns;
        trace("link %s <-> %s DOWN", W.Target.c_str(), W.Target2.c_str());
      }
    } else if (--Depth == 0) {
      Net.setLinkEnabled(L, true);
      ++Counters.LinkRepairs;
      trace("link %s <-> %s repaired", W.Target.c_str(),
            W.Target2.c_str());
    }
    break;
  }
  case FaultKind::HostCrash: {
    Host *H = resolveHost(W.Target);
    int &Depth = CrashDepth[H];
    if (Begin) {
      if (++Depth == 1) {
        H->setUp(false);
        ++Counters.HostCrashes;
        trace("host %s CRASHED", W.Target.c_str());
        // In-flight consequences: destination transfers die, source
        // stripes fall into reconnect-with-backoff.
        Transfers.failHost(*H, /*MachineDown=*/true);
      }
    } else if (--Depth == 0) {
      H->setUp(true);
      ++Counters.HostReboots;
      trace("host %s rebooted", W.Target.c_str());
    }
    break;
  }
  case FaultKind::StorageOutage: {
    Host *H = resolveHost(W.Target);
    int &Depth = StorageDepth[H];
    if (Begin) {
      if (++Depth == 1) {
        H->setStorageUp(false);
        ++Counters.StorageOutages;
        trace("storage on %s OFFLINE", W.Target.c_str());
        // The machine still answers, so only reads it was serving break.
        Transfers.failHost(*H, /*MachineDown=*/false);
      }
    } else if (--Depth == 0) {
      H->setStorageUp(true);
      ++Counters.StorageRepairs;
      trace("storage on %s back online", W.Target.c_str());
    }
    break;
  }
  case FaultKind::SensorBlackout:
    if (Begin) {
      if (++BlackoutDepth == 1) {
        Info.setBlackout(true);
        ++Counters.Blackouts;
        trace("monitoring blackout begins");
      }
    } else if (--BlackoutDepth == 0) {
      Info.setBlackout(false);
      ++Counters.BlackoutEnds;
      trace("monitoring blackout ends");
    }
    break;
  case FaultKind::SensorBias:
  case FaultKind::SensorStuck:
  case FaultKind::SensorNoise:
  case FaultKind::SensorDropout:
  case FaultKind::ClockSkew:
    applyTelemetry(I, Begin);
    break;
  case FaultKind::LogCorrupt:
    applyLogCorrupt(I, Begin);
    break;
  }
}

void FaultInjector::applyTelemetry(size_t I, bool Begin) {
  const FaultWindow &W = Expanded[I];
  TelemetryFault F;
  F.Kind = W.Kind;
  F.Magnitude = W.Magnitude;
  F.Offset = W.Offset;
  F.Seed = WindowSeeds[I];
  const char *ScopeName = "all sensors";
  if (!W.Target2.empty()) {
    F.S = TelemetryFault::Scope::Path;
    F.Server = resolveHost(W.Target)->node();
    F.Client = resolveHost(W.Target2)->node();
    ScopeName = "path sensors";
  } else if (!W.Target.empty()) {
    F.S = TelemetryFault::Scope::Host;
    F.TargetHost = resolveHost(W.Target);
    ScopeName = "host sensors";
  }
  if (Begin)
    Info.beginTelemetryFault(F);
  else
    Info.endTelemetryFault(F);
  switch (W.Kind) {
  case FaultKind::SensorBias:
    ++(Begin ? Counters.SensorBiases : Counters.SensorBiasEnds);
    break;
  case FaultKind::SensorStuck:
    ++(Begin ? Counters.SensorStucks : Counters.SensorStuckEnds);
    break;
  case FaultKind::SensorNoise:
    ++(Begin ? Counters.SensorNoises : Counters.SensorNoiseEnds);
    break;
  case FaultKind::SensorDropout:
    ++(Begin ? Counters.SensorDropouts : Counters.SensorDropoutEnds);
    break;
  case FaultKind::ClockSkew:
    ++(Begin ? Counters.ClockSkews : Counters.ClockSkewEnds);
    break;
  default:
    assert(false && "not a sensor-level telemetry kind");
  }
  trace("%s %s on %s [%s%s%s]", faultKindName(W.Kind),
        Begin ? "begins" : "ends", ScopeName, W.Target.c_str(),
        W.Target2.empty() ? "" : " -> ", W.Target2.c_str());
}

void FaultInjector::applyLogCorrupt(size_t I, bool Begin) {
  const FaultWindow &W = Expanded[I];
  ++(Begin ? Counters.LogCorrupts : Counters.LogCorruptEnds);
  TransferLog *Log = LogAccessor ? LogAccessor() : nullptr;
  if (Begin) {
    if (!Log) {
      trace("log corruption window with no transfer log attached");
      return;
    }
    CorruptApplied[I] = 1;
    if (W.Target.empty())
      Log->beginCorrupt(WindowSeeds[I], W.Magnitude);
    else
      Log->beginCorruptPath(resolveHost(W.Target)->node(),
                            resolveHost(W.Target2)->node(), WindowSeeds[I],
                            W.Magnitude);
    trace("transfer log corruption begins [%s%s%s]", W.Target.c_str(),
          W.Target.empty() ? "" : " -> ", W.Target2.c_str());
    return;
  }
  // The end edge only unwinds a scope the begin edge actually entered —
  // the log may have been attached (or detached) mid-window.
  if (!CorruptApplied[I] || !Log)
    return;
  if (W.Target.empty())
    Log->endCorrupt();
  else
    Log->endCorruptPath(resolveHost(W.Target)->node(),
                        resolveHost(W.Target2)->node());
  trace("transfer log corruption ends [%s%s%s]", W.Target.c_str(),
        W.Target.empty() ? "" : " -> ", W.Target2.c_str());
}
