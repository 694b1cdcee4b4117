//===- grid/DataGrid.cpp -----------------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "grid/DataGrid.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

using namespace dgsim;

std::unique_ptr<DataGrid> DataGrid::buildFrom(const GridSpec &Spec) {
  // Reject malformed specs up front with messages naming the offending
  // field — a bad name would otherwise surface as a bare assert (or, with
  // NDEBUG, a null deref) deep inside the build.
  std::vector<std::string> Problems = Spec.validate();
  if (!Problems.empty()) {
    std::fprintf(stderr, "GridSpec validation failed (%zu problem%s):\n",
                 Problems.size(), Problems.size() == 1 ? "" : "s");
    for (const std::string &P : Problems)
      std::fprintf(stderr, "  - %s\n", P.c_str());
    std::abort();
  }
  return std::unique_ptr<DataGrid>(new DataGrid(Spec));
}

DataGrid::DataGrid(const GridSpec &Given) : Sim(Given.Seed), Spec(Given) {
  for (const SiteConfig &S : Spec.Sites)
    buildSite(S);
  for (const std::string &B : Spec.Backbones)
    Topo.addNode(B);
  for (const LinkSpec &L : Spec.Links)
    Topo.addLink(endpoint(L.A), endpoint(L.B), L.Capacity, L.Delay, L.Loss);

  // The topology is complete: bring the services up.
  Router = std::make_unique<Routing>(Topo);
  Net = std::make_unique<FlowNetwork>(Sim, Topo, *Router);
  InfoService = std::make_unique<InformationService>(Sim, *Net, Spec.Info);
  Transfers = std::make_unique<TransferManager>(Sim, *Net);
  Transfers->setTrace(&Trace);
  for (auto &S : Sites)
    for (auto &H : S->Hosts)
      InfoService->registerHost(*H);

  for (const CrossTrafficSpec &T : Spec.Traffic) {
    CrossTrafficConfig C;
    C.Src = findSite(T.FromSite)->switchNode();
    C.Dst = findSite(T.ToSite)->switchNode();
    C.MeanInterarrival = T.MeanInterarrival;
    C.MinFlowBytes = T.MinFlowBytes;
    C.Streams = T.Streams;
    Traffic.push_back(std::make_unique<CrossTraffic>(Sim, *Net, C));
    Traffic.back()->start();
  }
  for (const CatalogFileSpec &F : Spec.Files)
    addToCatalog(F);
  // One child stream per workload, forked in declaration order: adding a
  // later workload (or the fault plan) never perturbs this one's arrivals.
  for (const WorkloadSpec &W : Spec.Workloads) {
    RandomEngine Rng = Sim.forkRng();
    WorkloadArrivalLists.push_back(expandWorkload(W, Rng));
  }
  // The injector comes last, so a stochastic plan's random fork lands
  // after every component built above: adding faults perturbs nothing
  // that came before.  The log accessor resolves at window-fire time:
  // enableTransferLog() is called after the build, and LogCorrupt
  // windows must still find the log.
  if (!Spec.Faults.empty()) {
    Injector = std::make_unique<FaultInjector>(
        Sim, Topo, *Net, *Transfers, *InfoService, allHosts(), &Trace,
        [this]() -> TransferLog * { return Log.get(); });
    Injector->arm(Spec.Faults);
  }
}

DataGrid::~DataGrid() = default;

void DataGrid::buildSite(const SiteConfig &Config) {
  NodeId Switch = Topo.addNode(Config.Name + "-sw");
  auto S = std::make_unique<Site>(Config.Name, Switch);
  for (const SiteHostSpec &HostSpec : Config.Hosts) {
    NodeId Node = Topo.addNode(HostSpec.Name);
    Topo.addLink(Node, Switch, Config.LanCapacity, SiteConfig::LanDelay);
    HostConfig HC;
    HC.Name = HostSpec.Name;
    HC.CpuSpeed = HostSpec.CpuSpeed;
    HC.NicRate = HostSpec.NicRate;
    HC.Cpu.MeanLoad = HostSpec.CpuMeanLoad;
    HC.Cpu.Volatility = HostSpec.LoadVolatility;
    HC.DiskCfg.ReadRate = HostSpec.DiskReadRate;
    HC.DiskCfg.WriteRate = HostSpec.DiskWriteRate;
    HC.DiskCfg.Background.MeanLoad = HostSpec.IoMeanLoad;
    HC.DiskCfg.Background.Volatility = HostSpec.LoadVolatility;
    if (Spec.Info.BatchHostLoads && !HostLoadBatch)
      HostLoadBatch =
          std::make_unique<CpuLoadBatch>(Sim, CpuLoadConfig::UpdatePeriod);
    S->Hosts.push_back(
        std::make_unique<Host>(Sim, HC, Node, HostLoadBatch.get()));
  }
  Sites.push_back(std::move(S));
  Site &Built = *Sites.back();
  SiteByName[Built.name()] = &Built;
  for (auto &H : Built.Hosts) {
    HostByName[H->name()] = H.get();
    SiteOfHost[H.get()] = &Built;
  }
}

NodeId DataGrid::endpoint(const std::string &Name) const {
  auto It = SiteByName.find(Name);
  if (It != SiteByName.end())
    return It->second->switchNode();
  // validate() has checked that the name is a declared backbone.
  NodeId Backbone = Topo.findNode(Name);
  assert(Backbone != InvalidNodeId && "link endpoint names no node");
  return Backbone;
}

Site *DataGrid::findSite(const std::string &Name) {
  auto It = SiteByName.find(Name);
  return It == SiteByName.end() ? nullptr : It->second;
}

Host *DataGrid::findHost(const std::string &Name) {
  auto It = HostByName.find(Name);
  return It == HostByName.end() ? nullptr : It->second;
}

Site *DataGrid::siteOf(const Host &H) {
  auto It = SiteOfHost.find(&H);
  return It == SiteOfHost.end() ? nullptr : It->second;
}

std::vector<Host *> DataGrid::allHosts() {
  std::vector<Host *> Result;
  for (auto &S : Sites)
    for (auto &H : S->Hosts)
      Result.push_back(H.get());
  return Result;
}

TransferLog &DataGrid::enableTransferLog() {
  if (Log)
    return *Log;
  Log = std::make_unique<TransferLog>();
  InfoService->setTransferLog(Log.get());
  // Every single-source completion that moved data becomes a path
  // observation.  Striped transfers are skipped (no single path to
  // attribute the throughput to), as are failures that never entered the
  // data phase.  The probe forecast snapshotted here scores the
  // meta-selector's probe arm against the same ground truth.
  Transfers->setCompletionObserver(
      [this](const TransferSpec &S, const TransferResult &R) {
        if (R.Status != TransferStatus::Completed)
          return;
        if (!S.Source || !S.Destination || !S.Stripes.empty())
          return;
        if (R.DataSeconds <= 0.0 || R.FileBytes <= 0.0)
          return;
        TransferObservation O;
        O.FileBytes = R.FileBytes;
        O.Throughput = R.FileBytes * 8.0 / R.DataSeconds;
        const Sensor *Bw = InfoService->bandwidthSensor(
            S.Destination->node(), S.Source->node());
        double Probe = Bw ? Bw->forecast()
                          : std::numeric_limits<double>::quiet_NaN();
        Log->append(S.Source->node(), S.Destination->node(), O, Probe);
      });
  return *Log;
}

void DataGrid::registerCatalogFile(const CatalogFileSpec &File) {
  addToCatalog(File);
  Spec.Files.push_back(File);
}

void DataGrid::addToCatalog(const CatalogFileSpec &File) {
  Catalog.registerFile(File.Lfn, File.SizeBytes);
  for (const std::string &HostName : File.ReplicaHosts) {
    Host *H = findHost(HostName);
    assert(H && "catalog replica on an unknown host");
    Catalog.addReplica(File.Lfn, *H);
  }
}
