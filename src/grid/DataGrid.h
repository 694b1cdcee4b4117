//===- grid/DataGrid.h - The Data Grid facade -------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One object owning a complete simulated Data Grid: the event kernel, the
/// network, sites of hosts, the monitoring services, the replica catalog
/// and the transfer service.  A grid is built from a GridSpec and nothing
/// else.  Typical use:
///
/// \code
///   GridSpec Spec;
///   Spec.Seed = Seed;
///   Spec.Sites = {Thu, Hit};   // SiteConfig values: name, hosts, LAN
///   Spec.Links.push_back({"thu", "hit", units::gbps(1), 0.002, 5e-5});
///   std::unique_ptr<DataGrid> Grid = DataGrid::buildFrom(Spec);
///   Grid->catalog().registerFile("file-a", units::megabytes(1024));
///   ...
///   Grid->sim().run();
/// \endcode
///
/// A built grid is complete: every service exists once buildFrom returns.
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
  ~DataGrid();

  DataGrid(const DataGrid &) = delete;
  DataGrid &operator=(const DataGrid &) = delete;

  /// Builds the grid \p Spec describes, in canonical order: sites,
  /// backbone nodes, links, the services, cross-traffic, catalog files,
  /// workloads, then the fault plan.  The order fixes where every random
  /// fork lands, so two grids built from one spec simulate bit-identically.
  /// A spec that fails GridSpec::validate() aborts with its messages.
  static std::unique_ptr<DataGrid> buildFrom(const GridSpec &Spec);

  /// The spec the grid was built from, plus the files registerCatalogFile
  /// added since, so spec().hash() identifies the grid.
  const GridSpec &spec() const { return Spec; }

  Simulator &sim() { return Sim; }
  const Topology &topology() const { return Topo; }

  /// The grid-wide trace log.  Enable categories before running; the
  /// transfer manager is wired to it at build time.
  TraceLog &trace() { return Trace; }
  FlowNetwork &network() { return *Net; }
  InformationService &info() { return *InfoService; }
  ReplicaCatalog &catalog() { return Catalog; }
  TransferManager &transfers() { return *Transfers; }

  /// \returns the site named \p Name, or nullptr.
  Site *findSite(const std::string &Name);

  /// \returns the host named \p Name across all sites, or nullptr.
  Host *findHost(const std::string &Name);

  /// \returns the site a host belongs to, or nullptr for foreign hosts.
  Site *siteOf(const Host &H);

  /// All hosts of all sites, site order then host order.
  std::vector<Host *> allHosts();

  /// Registers a logical file and its replicas (by host name) in the
  /// catalog, recording it in spec().
  void registerCatalogFile(const CatalogFileSpec &File);

  /// The expanded arrival stream of workload \p Index (spec().Workloads
  /// order).  Expansion only: nothing runs until a WorkloadDriver starts
  /// it.
  const std::vector<WorkloadArrival> &workloadArrivals(size_t Index) const {
    return WorkloadArrivalLists.at(Index);
  }

  /// \returns the injector replaying spec().Faults, or nullptr when the
  /// plan is empty.
  FaultInjector *faults() { return Injector.get(); }

  /// Turns on completed-transfer feedback: a TransferLog fed by every
  /// completion (size, streams, achieved throughput) is
  /// attached to the information service, whose bandwidth predictions
  /// then flow through each path's probe-vs-log minimum-MSE
  /// meta-selector.  Runtime configuration like setRetryPolicy — not part
  /// of spec(); a grid without this call is bit-identical to one built
  /// before the log existed.  Idempotent.
  /// \returns the log (also reachable via transferLog()).
  TransferLog &enableTransferLog();

  /// \returns the attached log, or nullptr when feedback is off.
  TransferLog *transferLog() { return Log.get(); }

private:
  explicit DataGrid(const GridSpec &Spec);

  /// Creates a site with its switch, hosts and LAN links.
  void buildSite(const SiteConfig &Config);

  /// Resolves a link endpoint by GridSpec's rule: a site name to the
  /// site's switch, any other name to the backbone node of that name.
  NodeId endpoint(const std::string &Name) const;

  /// Puts \p File and its replicas in the catalog.
  void addToCatalog(const CatalogFileSpec &File);

  Simulator Sim;
  Topology Topo;
  /// Shared tick driver for every host-load OU process when
  /// spec().Info.BatchHostLoads is set; null otherwise.  Declared before
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
  // Name -> object indexes, filled as sites are built so every lookup is
  // O(1) (findHost sits on the per-job hot path).
  std::unordered_map<std::string, Site *> SiteByName;
  std::unordered_map<std::string, Host *> HostByName;
  std::unordered_map<const Host *, Site *> SiteOfHost;
};

} // namespace dgsim

#endif // DGSIM_GRID_DATAGRID_H
