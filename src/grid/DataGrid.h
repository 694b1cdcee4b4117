//===- grid/DataGrid.h - The Data Grid facade -------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One object owning a complete simulated Data Grid: the event kernel, the
/// network, sites of hosts, the monitoring services, the replica catalog
/// and the transfer service.  Typical use:
///
/// \code
///   DataGrid Grid(Seed);
///   Site &Thu = Grid.addSite({"thu", ...});
///   Grid.connectSites("thu", "hit", units::gbps(1), 0.002, 5e-5);
///   Grid.finalize();
///   Grid.catalog().registerFile("file-a", units::megabytes(1024));
///   ...
///   Grid.sim().run();
/// \endcode
///
/// Build methods (addSite / connect*) must all happen before finalize();
/// services are available only after.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_GRID_DATAGRID_H
#define DGSIM_GRID_DATAGRID_H

#include "fault/FaultInjector.h"
#include "grid/GridSpec.h"
#include "gridftp/TransferManager.h"
#include "net/CrossTraffic.h"
#include "replica/ReplicaCatalog.h"
#include "support/Trace.h"

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace dgsim {

/// A built site: its switch node and live hosts.
class Site {
public:
  Site(std::string Name, NodeId Switch) : Name(std::move(Name)),
                                          Switch(Switch) {}

  const std::string &name() const { return Name; }
  NodeId switchNode() const { return Switch; }

  const std::vector<std::unique_ptr<Host>> &hosts() const { return Hosts; }
  Host &host(size_t I) const { return *Hosts.at(I); }
  size_t hostCount() const { return Hosts.size(); }

private:
  friend class DataGrid;
  std::string Name;
  NodeId Switch;
  std::vector<std::unique_ptr<Host>> Hosts;
};

/// The facade.
class DataGrid {
public:
  explicit DataGrid(uint64_t Seed = 1,
                    InformationServiceConfig InfoConfig = {});
  ~DataGrid();

  DataGrid(const DataGrid &) = delete;
  DataGrid &operator=(const DataGrid &) = delete;

  /// Builds a complete grid from a declarative spec: sites, backbone
  /// nodes, links, then finalize(), then cross-traffic and catalog
  /// contents — the same canonical order as the imperative API, so a
  /// spec-built grid is bit-identical to the equivalent hand-built one.
  static std::unique_ptr<DataGrid> buildFrom(const GridSpec &Spec);

  /// The declarative record of everything built so far.  Imperative build
  /// calls (addSite, connect*, addCrossTraffic, registerCatalogFile)
  /// append to it, so spec().hash() identifies the grid either way.
  const GridSpec &spec() const { return Spec; }

  //===--------------------------------------------------------------------===//
  // Build phase
  //===--------------------------------------------------------------------===//

  /// Creates a site with its switch, hosts and LAN links.
  Site &addSite(const SiteConfig &Config);

  /// Adds a named interior node (e.g. a WAN backbone router).
  NodeId addBackboneNode(const std::string &Name);

  /// Joins two sites' switches directly.
  void connectSites(const std::string &A, const std::string &B,
                    BitRate Capacity, SimTime Delay, double Loss = 0.0);

  /// Joins a site's switch to a backbone node.
  void connectToBackbone(const std::string &SiteName, NodeId Backbone,
                         BitRate Capacity, SimTime Delay, double Loss = 0.0);

  /// Joins two backbone nodes (both from addBackboneNode) by name.
  void connectBackbones(const std::string &A, const std::string &B,
                        BitRate Capacity, SimTime Delay, double Loss = 0.0);

  /// Freezes the topology and brings the services up.
  void finalize();

  //===--------------------------------------------------------------------===//
  // Run phase
  //===--------------------------------------------------------------------===//

  bool finalized() const { return Net != nullptr; }

  Simulator &sim() { return Sim; }
  Topology &topology() { return Topo; }

  /// The grid-wide trace log.  Enable categories before running; the
  /// transfer manager is wired to it automatically at finalize().
  TraceLog &trace() { return Trace; }
  FlowNetwork &network();
  InformationService &info();
  ReplicaCatalog &catalog() { return Catalog; }
  TransferManager &transfers();

  /// \returns the site named \p Name, or nullptr.
  Site *findSite(const std::string &Name);

  /// \returns the host named \p Name across all sites, or nullptr.
  Host *findHost(const std::string &Name);

  /// \returns the site a host belongs to, or nullptr for foreign hosts.
  Site *siteOf(const Host &H);

  /// All hosts of all sites, site order then host order.
  std::vector<Host *> allHosts();

  /// Starts background traffic between two sites' switches; the generator
  /// lives as long as the grid.  Must be called after finalize().
  CrossTraffic &addCrossTraffic(const std::string &FromSite,
                                const std::string &ToSite,
                                SimTime MeanInterarrival, Bytes MinFlowBytes,
                                unsigned Streams = 1);

  /// Registers a logical file and its replicas (by host name) in the
  /// catalog, recording it in spec().  Must be called after finalize().
  void registerCatalogFile(const CatalogFileSpec &File);

  /// Declares an open-loop workload: records it in spec() and expands its
  /// arrival stream through a RandomEngine forked off the kernel (one
  /// child per workload, declaration order — the FaultPlan convention).
  /// Must be called after finalize() and before setFaultPlan(), so the
  /// injector's fork always lands after every workload's.  Expansion only
  /// — nothing runs until a WorkloadDriver starts it.
  /// \returns the workload's index (for workloadArrivals / driver start).
  size_t addWorkload(const WorkloadSpec &W);

  /// The expanded arrival stream of workload \p Index (addWorkload order).
  const std::vector<WorkloadArrival> &workloadArrivals(size_t Index) const {
    return WorkloadArrivalLists.at(Index);
  }

  /// Arms \p Plan on the grid: records it in spec() and constructs the
  /// FaultInjector that replays it.  Must be called after finalize(), at
  /// most once, and — for bit-identical spec replay — after every other
  /// build call (buildFrom arms it last).  An empty plan is a no-op.
  void setFaultPlan(const FaultPlan &Plan);

  /// \returns the armed injector, or nullptr when no plan was set.
  FaultInjector *faults() { return Injector.get(); }

  /// Turns on completed-transfer feedback: a TransferLog fed by every
  /// completion (size, streams, achieved throughput) is
  /// attached to the information service, whose bandwidth predictions
  /// then flow through each path's probe-vs-log minimum-MSE
  /// meta-selector.  Runtime configuration like setRetryPolicy — not part
  /// of spec(); a grid without this call is bit-identical to one built
  /// before the log existed.  Must be called after finalize(); idempotent.
  /// \returns the log (also reachable via transferLog()).
  TransferLog &enableTransferLog();

  /// \returns the attached log, or nullptr when feedback is off.
  TransferLog *transferLog() { return Log.get(); }

private:
  Simulator Sim;
  Topology Topo;
  InformationServiceConfig InfoConfig;
  /// Shared tick driver for every host-load OU process when
  /// InfoConfig.BatchHostLoads is set; null otherwise.  Declared before
  /// Sites so it outlives the member models that detach on destruction.
  std::unique_ptr<CpuLoadBatch> HostLoadBatch;
  std::vector<std::unique_ptr<Site>> Sites;
  std::unique_ptr<Routing> Router;
  std::unique_ptr<FlowNetwork> Net;
  std::unique_ptr<InformationService> InfoService;
  std::unique_ptr<TransferManager> Transfers;
  /// Completed-transfer feedback (enableTransferLog); consumed by
  /// InfoService, fed by the Transfers completion observer.
  std::unique_ptr<TransferLog> Log;
  std::vector<std::unique_ptr<CrossTraffic>> Traffic;
  std::vector<std::vector<WorkloadArrival>> WorkloadArrivalLists;
  std::unique_ptr<FaultInjector> Injector;
  ReplicaCatalog Catalog;
  TraceLog Trace;
  GridSpec Spec;
  // Name -> object indexes, maintained by addSite/addBackboneNode so every
  // lookup is O(1) (findHost sits on the per-job hot path).
  std::unordered_map<std::string, Site *> SiteByName;
  std::unordered_map<std::string, Host *> HostByName;
  std::unordered_map<const Host *, Site *> SiteOfHost;
  std::unordered_map<std::string, NodeId> BackboneByName;
};

} // namespace dgsim

#endif // DGSIM_GRID_DATAGRID_H
