//===- grid/Hierarchy.h - Declarative tiered-topology generator -----------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A HierarchySpec describes a MONARC-style tiered grid — one tier-0 core,
/// N regional tier-1 backbones, M campus tier-2 sites per region — and
/// expands it into plain GridSpec sites, backbones, links and catalog
/// files.  The paper's future work asks for "a dynamic and larger number
/// of sites environment"; this is the declarative path to one.
///
/// Expansion is deterministic: a root RandomEngine seeded from the spec is
/// forked into one child per randomised aspect (link classes, host knobs,
/// catalog placement) in a fixed order, exactly the forked-RNG discipline
/// DataGrid::buildFrom uses.  The generated entries land in the GridSpec
/// itself, so the spec's canonical JSON and content hash cover the whole
/// generated grid and buildFrom replays it bit-identically.
///
/// Every site attaches straight to its regional backbone, so the
/// topology is a tree and Routing's LCA fast path serves every route.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_GRID_HIERARCHY_H
#define DGSIM_GRID_HIERARCHY_H

#include "grid/GridSpec.h"
#include "support/Units.h"

#include <string>
#include <vector>

namespace dgsim {

/// One wide-area link class (a capacity/delay/loss triple).  Access
/// classes carry a draw weight so a hierarchy can mix, say, mostly-gigabit
/// campuses with a tail of DSL-class ones.
struct LinkClassSpec {
  BitRate Capacity = 1e9;
  SimTime Delay = 0.001;
  double Loss = 0.0;
  /// Relative selection weight when this class sits in a weighted list.
  double Weight = 1.0;
};

/// Declarative tiered-grid description; expand with appendHierarchy().
struct HierarchySpec {
  /// Name prefix for every generated entity.  The core backbone is
  /// "<Prefix>-core", regions "<Prefix>-r<g>", sites "<Prefix>-r<g>-s<i>",
  /// hosts "<site>-h<k>", files "<Prefix>-f<n>".
  std::string Prefix = "tier";
  /// Seed of the generator's private RNG tree (independent of the grid
  /// seed, so regenerating a topology never perturbs runtime draws).
  uint64_t Seed = 1;

  /// Tier-1 regional backbones hanging off the tier-0 core.
  unsigned Regions = 4;
  /// Tier-2 campus sites per region.
  unsigned SitesPerRegion = 8;
  /// Hosts per generated site.
  unsigned HostsPerSite = 2;

  /// Core <-> regional backbone trunks.
  LinkClassSpec RootLink{10e9, 0.020, 0.0, 1.0};
  /// Site access-link classes, drawn per site by weight (heterogeneous
  /// last-mile capacities).  Must be non-empty.
  std::vector<LinkClassSpec> AccessClasses{
      {1e9, 0.005, 0.0, 0.5},
      {100e6, 0.010, 0.0005, 0.35},
      {20e6, 0.025, 0.002, 0.15},
  };

  /// Host storage, uniform across generated hosts.  The defaults match
  /// SiteHostSpec's 2005-era single-disk machine; a scale bench whose
  /// per-client ingest exceeds ~300 Mb/s must raise these to RAID-class
  /// rates or the open-loop backlog grows without bound.
  BitRate DiskReadRate = 400e6;
  BitRate DiskWriteRate = 320e6;

  /// Host heterogeneity: each host draws its relative CPU speed and load
  /// operating points uniformly from these ranges.  Generated sites keep
  /// SiteConfig's LAN defaults.
  static constexpr double CpuSpeedMin = 0.75;
  static constexpr double CpuSpeedMax = 1.5;
  static constexpr double CpuMeanLoadMin = 0.1;
  static constexpr double CpuMeanLoadMax = 0.35;
  static constexpr double IoMeanLoadMin = 0.05;
  static constexpr double IoMeanLoadMax = 0.25;

  /// Generated catalog: FileCount logical files with sizes drawn from
  /// [FileSizeMin, FileSizeMax] and ReplicasPerFile distinct holder hosts
  /// drawn uniformly over every generated host.  0 files = no catalog.
  unsigned FileCount = 0;
  Bytes FileSizeMin = 256e6;
  Bytes FileSizeMax = 2e9;
  unsigned ReplicasPerFile = 3;

  /// Structural validation, mirroring GridSpec::validate(): every shape
  /// problem (zero fan-out, empty access classes, bad ranges, more
  /// replicas than hosts, ...) is one human-readable message.  Empty
  /// vector = well-formed.
  std::vector<std::string> validate() const;
};

/// Expanded name lists, for benches and tests that drive a generated grid
/// (workload clients, replica holders, fetchable LFNs).
struct HierarchyLayout {
  std::vector<std::string> Sites;
  std::vector<std::string> Hosts;
  std::vector<std::string> Lfns;
};

/// Expands \p H and appends the generated sites, backbones, links and
/// files to \p Spec.  On any validation problem (including a prefix that
/// collides with entities already in \p Spec) nothing is appended and the
/// problems are returned; an empty vector means success.  \p Layout, when
/// non-null, receives the generated name lists.
std::vector<std::string> appendHierarchy(GridSpec &Spec,
                                         const HierarchySpec &H,
                                         HierarchyLayout *Layout = nullptr);

} // namespace dgsim

#endif // DGSIM_GRID_HIERARCHY_H
