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

DataGrid::DataGrid(uint64_t Seed, InformationServiceConfig InfoConfig)
    : Sim(Seed), InfoConfig(InfoConfig) {
  Spec.Seed = Seed;
  Spec.Info = InfoConfig;
}

DataGrid::~DataGrid() = default;

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
  auto G = std::make_unique<DataGrid>(Spec.Seed, Spec.Info);
  for (const SiteConfig &S : Spec.Sites)
    G->addSite(S);
  for (const std::string &B : Spec.Backbones)
    G->addBackboneNode(B);
  for (const LinkSpec &L : Spec.Links) {
    Site *SA = G->findSite(L.A);
    Site *SB = G->findSite(L.B);
    if (SA && SB) {
      G->connectSites(L.A, L.B, L.Capacity, L.Delay, L.Loss);
    } else if (SA || SB) {
      const std::string &SiteName = SA ? L.A : L.B;
      const std::string &BackboneName = SA ? L.B : L.A;
      auto It = G->BackboneByName.find(BackboneName);
      assert(It != G->BackboneByName.end() &&
             "link endpoint is neither a site nor a backbone node");
      G->connectToBackbone(SiteName, It->second, L.Capacity, L.Delay,
                           L.Loss);
    } else {
      G->connectBackbones(L.A, L.B, L.Capacity, L.Delay, L.Loss);
    }
  }
  G->finalize();
  for (const CrossTrafficSpec &T : Spec.Traffic)
    G->addCrossTraffic(T.FromSite, T.ToSite, T.MeanInterarrival,
                       T.MinFlowBytes, T.Streams);
  for (const CatalogFileSpec &F : Spec.Files)
    G->registerCatalogFile(F);
  for (const WorkloadSpec &L : Spec.Workloads)
    G->addWorkload(L);
  if (!Spec.Faults.empty())
    G->setFaultPlan(Spec.Faults);
  // Replaying appends to the new grid's own spec in the same canonical
  // order, so the round trip must be exact.
  assert(G->spec().hash() == Spec.hash() &&
         "buildFrom() must reproduce the spec it was given");
  return G;
}

Site &DataGrid::addSite(const SiteConfig &Config) {
  assert(!finalized() && "cannot add sites after finalize()");
  assert(!Config.Name.empty() && "sites need a name");
  assert(!Config.Hosts.empty() && "sites need at least one host");
  assert(!findSite(Config.Name) && "duplicate site name");
  assert(!BackboneByName.count(Config.Name) &&
         "site name collides with a backbone node");

  NodeId Switch = Topo.addNode(Config.Name + "-sw");
  auto S = std::make_unique<Site>(Config.Name, Switch);
  for (const SiteHostSpec &Spec : Config.Hosts) {
    assert(!findHost(Spec.Name) && "duplicate host name");
    NodeId Node = Topo.addNode(Spec.Name);
    Topo.addLink(Node, Switch, Config.LanCapacity, SiteConfig::LanDelay);
    HostConfig HC;
    HC.Name = Spec.Name;
    HC.CpuSpeed = Spec.CpuSpeed;
    HC.NicRate = Spec.NicRate;
    HC.Cpu.MeanLoad = Spec.CpuMeanLoad;
    HC.Cpu.Volatility = Spec.LoadVolatility;
    HC.DiskCfg.ReadRate = Spec.DiskReadRate;
    HC.DiskCfg.WriteRate = Spec.DiskWriteRate;
    HC.DiskCfg.Background.MeanLoad = Spec.IoMeanLoad;
    HC.DiskCfg.Background.Volatility = Spec.LoadVolatility;
    if (InfoConfig.BatchHostLoads && !HostLoadBatch)
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
  Spec.Sites.push_back(Config);
  return Built;
}

NodeId DataGrid::addBackboneNode(const std::string &Name) {
  assert(!finalized() && "cannot grow the topology after finalize()");
  assert(!BackboneByName.count(Name) && "duplicate backbone name");
  assert(!findSite(Name) && "backbone name collides with a site");
  NodeId Node = Topo.addNode(Name);
  BackboneByName[Name] = Node;
  Spec.Backbones.push_back(Name);
  return Node;
}

void DataGrid::connectSites(const std::string &A, const std::string &B,
                            BitRate Capacity, SimTime Delay, double Loss) {
  assert(!finalized() && "cannot grow the topology after finalize()");
  Site *SA = findSite(A);
  Site *SB = findSite(B);
  assert(SA && SB && "connectSites on unknown site names");
  Topo.addLink(SA->switchNode(), SB->switchNode(), Capacity, Delay, Loss);
  Spec.Links.push_back({A, B, Capacity, Delay, Loss});
}

void DataGrid::connectToBackbone(const std::string &SiteName, NodeId Backbone,
                                 BitRate Capacity, SimTime Delay,
                                 double Loss) {
  assert(!finalized() && "cannot grow the topology after finalize()");
  Site *S = findSite(SiteName);
  assert(S && "connectToBackbone on an unknown site name");
  Topo.addLink(S->switchNode(), Backbone, Capacity, Delay, Loss);
  // Record by name; the node must have come from addBackboneNode().
  const std::string *BackboneName = nullptr;
  for (const auto &[Name, Node] : BackboneByName)
    if (Node == Backbone)
      BackboneName = &Name;
  assert(BackboneName && "connectToBackbone on an unknown backbone node");
  Spec.Links.push_back({SiteName, *BackboneName, Capacity, Delay, Loss});
}

void DataGrid::connectBackbones(const std::string &A, const std::string &B,
                                BitRate Capacity, SimTime Delay,
                                double Loss) {
  assert(!finalized() && "cannot grow the topology after finalize()");
  auto ItA = BackboneByName.find(A);
  auto ItB = BackboneByName.find(B);
  assert(ItA != BackboneByName.end() && ItB != BackboneByName.end() &&
         "connectBackbones on unknown backbone names");
  Topo.addLink(ItA->second, ItB->second, Capacity, Delay, Loss);
  Spec.Links.push_back({A, B, Capacity, Delay, Loss});
}

void DataGrid::finalize() {
  assert(!finalized() && "finalize() called twice");
  Router = std::make_unique<Routing>(Topo);
  Net = std::make_unique<FlowNetwork>(Sim, Topo, *Router);
  InfoService = std::make_unique<InformationService>(Sim, *Net, InfoConfig);
  Transfers = std::make_unique<TransferManager>(Sim, *Net);
  Transfers->setTrace(&Trace);
  for (auto &S : Sites)
    for (auto &H : S->Hosts)
      InfoService->registerHost(*H);
}

FlowNetwork &DataGrid::network() {
  assert(finalized() && "network() before finalize()");
  return *Net;
}

InformationService &DataGrid::info() {
  assert(finalized() && "info() before finalize()");
  return *InfoService;
}

TransferManager &DataGrid::transfers() {
  assert(finalized() && "transfers() before finalize()");
  return *Transfers;
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

CrossTraffic &DataGrid::addCrossTraffic(const std::string &FromSite,
                                        const std::string &ToSite,
                                        SimTime MeanInterarrival,
                                        Bytes MinFlowBytes,
                                        unsigned Streams) {
  assert(finalized() && "addCrossTraffic() before finalize()");
  Site *From = findSite(FromSite);
  Site *To = findSite(ToSite);
  assert(From && To && "addCrossTraffic on unknown site names");
  CrossTrafficConfig C;
  C.Src = From->switchNode();
  C.Dst = To->switchNode();
  C.MeanInterarrival = MeanInterarrival;
  C.MinFlowBytes = MinFlowBytes;
  C.Streams = Streams;
  Traffic.push_back(std::make_unique<CrossTraffic>(Sim, *Net, C));
  Traffic.back()->start();
  Spec.Traffic.push_back(
      {FromSite, ToSite, MeanInterarrival, MinFlowBytes, Streams});
  return *Traffic.back();
}

size_t DataGrid::addWorkload(const WorkloadSpec &W) {
  assert(finalized() && "addWorkload() before finalize()");
  assert(!Injector &&
         "addWorkload() after setFaultPlan() would reorder random forks");
  // One child stream per workload, forked in declaration order: adding a
  // later workload (or the fault plan) never perturbs this one's arrivals.
  RandomEngine Rng = Sim.forkRng();
  WorkloadArrivalLists.push_back(expandWorkload(W, Rng));
  Spec.Workloads.push_back(W);
  return Spec.Workloads.size() - 1;
}

void DataGrid::setFaultPlan(const FaultPlan &Plan) {
  assert(finalized() && "setFaultPlan() before finalize()");
  assert(!Injector && "setFaultPlan() called twice");
  if (Plan.empty())
    return;
  // Construct last so a stochastic plan's random fork lands after every
  // component the build created (hosts, traffic): adding faults perturbs
  // nothing that came before.
  // The log accessor resolves at window-fire time: enableTransferLog()
  // is typically called after setFaultPlan(), and LogCorrupt windows must
  // still find the log.
  Injector = std::make_unique<FaultInjector>(
      Sim, Topo, *Net, *Transfers, *InfoService, allHosts(), &Trace,
      [this]() -> TransferLog * { return Log.get(); });
  Injector->arm(Plan);
  Spec.Faults = Plan;
}

TransferLog &DataGrid::enableTransferLog() {
  assert(finalized() && "enableTransferLog() before finalize()");
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
  assert(finalized() && "registerCatalogFile() before finalize()");
  Catalog.registerFile(File.Lfn, File.SizeBytes);
  for (const std::string &HostName : File.ReplicaHosts) {
    Host *H = findHost(HostName);
    assert(H && "catalog replica on an unknown host");
    Catalog.addReplica(File.Lfn, *H);
  }
  Spec.Files.push_back(File);
}
