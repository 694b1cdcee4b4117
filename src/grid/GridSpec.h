//===- grid/GridSpec.h - Declarative description of a Data Grid ------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A GridSpec is a pure value describing everything a DataGrid builds:
/// sites (with per-host knobs), backbone nodes, wide-area links,
/// background cross-traffic, replica-catalog contents, workloads and the
/// fault plan, plus the seed and service configurations.  It is the only
/// way to make a grid: `DataGrid::buildFrom(Spec)` builds a spec in a
/// canonical order, so two grids built from one spec are bit-identical.
///
/// Specs are hashable: canonicalJson() serializes every field in a fixed
/// order and hash() folds that string with FNV-1a.  The experiment layer
/// records the hash per trial, so BENCH_*.json results are traceable to
/// the exact grid they ran on.
///
/// Link endpoints are *names*: a site name resolves to the site's switch,
/// anything else must be a declared backbone node.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_GRID_GRIDSPEC_H
#define DGSIM_GRID_GRIDSPEC_H

#include "fault/FaultPlan.h"
#include "grid/Workload.h"
#include "monitor/InformationService.h"
#include "support/Units.h"

#include <string>
#include <vector>

namespace dgsim {

/// Per-host knobs within a site description.
struct SiteHostSpec {
  std::string Name;
  /// Relative CPU speed (1.0 = P4 2.8 GHz class).
  double CpuSpeed = 1.0;
  BitRate NicRate = 1e9;
  BitRate DiskReadRate = 400e6;
  BitRate DiskWriteRate = 320e6;
  /// Operating points of the stochastic load processes.
  double CpuMeanLoad = 0.2;
  double IoMeanLoad = 0.1;
  /// Diffusion of the load processes (0 = frozen at the mean).
  double LoadVolatility = 0.05;
};

/// A site (PC cluster): hosts behind a LAN switch.
struct SiteConfig {
  std::string Name;
  std::vector<SiteHostSpec> Hosts;
  /// LAN link from each host to the site switch.
  BitRate LanCapacity = 1e9;
  static constexpr SimTime LanDelay = 0.0001;
};

/// A wide-area link between two named endpoints (site or backbone names).
struct LinkSpec {
  std::string A;
  std::string B;
  BitRate Capacity = 1e9;
  SimTime Delay = 0.001;
  double Loss = 0.0;
};

/// Background traffic between two sites' switches.
struct CrossTrafficSpec {
  std::string FromSite;
  std::string ToSite;
  SimTime MeanInterarrival = 1.0;
  Bytes MinFlowBytes = 0.0;
  unsigned Streams = 1;
};

/// A logical file and the hosts holding its replicas at start of run.
struct CatalogFileSpec {
  std::string Lfn;
  Bytes SizeBytes = 0.0;
  std::vector<std::string> ReplicaHosts;
};

/// The declarative grid description.
struct GridSpec {
  uint64_t Seed = 1;
  InformationServiceConfig Info;
  std::vector<SiteConfig> Sites;
  std::vector<std::string> Backbones;
  std::vector<LinkSpec> Links;
  std::vector<CrossTrafficSpec> Traffic;
  std::vector<CatalogFileSpec> Files;
  /// Open-loop request streams driven against the grid (empty = no
  /// synthetic load).  buildFrom expands them in declaration order, so a
  /// spec's hash covers its offered load and every grid built from the
  /// spec replays the same arrival stream.
  std::vector<WorkloadSpec> Workloads;
  /// The fault schedule the grid replays (empty = nothing ever breaks).
  /// buildFrom arms it after everything else, so a spec's hash covers its
  /// disasters too.
  FaultPlan Faults;

  /// Serializes every field, in declaration order, to a canonical JSON
  /// document (deterministic number formatting; no whitespace).
  std::string canonicalJson() const;

  /// Structural validation: every problem that would make buildFrom
  /// assert or silently build the wrong grid is reported as one
  /// human-readable message (empty vector = spec is well-formed).
  /// Checks name resolution (link endpoints, traffic sites, replica and
  /// workload hosts, catalog files), duplicate names, and parameter
  /// sanity (positive sizes, rates, windows; fault-plan MTBF/MTTR).
  std::vector<std::string> validate() const;

  /// FNV-1a hash of canonicalJson(): two specs hash equal iff they would
  /// build identical grids.
  uint64_t hash() const;

  /// hash() rendered as 16 lowercase hex digits (the form stored in
  /// BENCH_*.json provenance).
  std::string hashHex() const;
};

} // namespace dgsim

#endif // DGSIM_GRID_GRIDSPEC_H
