//===- grid/Hierarchy.cpp --------------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "grid/Hierarchy.h"

#include "support/Random.h"

#include <cassert>

using namespace dgsim;

static std::string quoted(const std::string &S) { return "'" + S + "'"; }

static void checkLinkClass(std::vector<std::string> &Errors,
                           const std::string &What, const LinkClassSpec &C) {
  if (C.Capacity <= 0.0)
    Errors.push_back("hierarchy " + What + " has non-positive capacity");
  if (C.Delay <= 0.0)
    Errors.push_back("hierarchy " + What + " has non-positive delay");
  if (C.Loss < 0.0 || C.Loss >= 1.0)
    Errors.push_back("hierarchy " + What + " has loss outside [0, 1)");
  if (C.Weight < 0.0)
    Errors.push_back("hierarchy " + What + " has negative weight");
}

std::vector<std::string> HierarchySpec::validate() const {
  std::vector<std::string> Errors;
  auto Err = [&Errors](std::string Msg) { Errors.push_back(std::move(Msg)); };

  if (Prefix.empty())
    Err("hierarchy has an empty prefix");
  // Zero fan-out at any tier generates an empty (or host-less) grid.
  if (Regions == 0)
    Err("hierarchy has zero regions");
  if (SitesPerRegion == 0)
    Err("hierarchy has zero sites per region");
  if (HostsPerSite == 0)
    Err("hierarchy has zero hosts per site");

  checkLinkClass(Errors, "root link", RootLink);
  if (AccessClasses.empty())
    Err("hierarchy has no access link classes");
  double TotalWeight = 0.0;
  for (size_t I = 0; I != AccessClasses.size(); ++I) {
    checkLinkClass(Errors, "access class " + std::to_string(I),
                   AccessClasses[I]);
    TotalWeight += AccessClasses[I].Weight;
  }
  if (!AccessClasses.empty() && TotalWeight <= 0.0)
    Err("hierarchy access classes have no positive weight");

  if (DiskReadRate <= 0.0 || DiskWriteRate <= 0.0)
    Err("hierarchy has non-positive disk rates");

  if (FileCount > 0) {
    if (FileSizeMin <= 0.0 || FileSizeMax < FileSizeMin)
      Err("hierarchy has a bad file size range");
    if (ReplicasPerFile == 0)
      Err("hierarchy files have zero replicas");
    uint64_t HostCount = uint64_t(Regions) * SitesPerRegion * HostsPerSite;
    if (ReplicasPerFile > HostCount)
      Err("hierarchy wants " + std::to_string(ReplicasPerFile) +
          " replicas per file but generates only " +
          std::to_string(HostCount) + " hosts");
  }
  return Errors;
}

std::vector<std::string> dgsim::appendHierarchy(GridSpec &Spec,
                                                const HierarchySpec &H,
                                                HierarchyLayout *Layout) {
  std::vector<std::string> Errors = H.validate();
  std::string Core = H.Prefix + "-core";
  for (const std::string &B : Spec.Backbones)
    if (B == Core)
      Errors.push_back("hierarchy prefix " + quoted(H.Prefix) +
                       " collides with backbone " + quoted(Core) +
                       " already in the spec");
  if (!Errors.empty())
    return Errors;

  // The forked-RNG discipline: one child per randomised aspect, forked in
  // declaration order from a root private to the generator.  Draw order
  // within each stream is fixed (sites then hosts then files, generation
  // order), so the expansion is a pure function of the spec.
  RandomEngine Root(H.Seed);
  RandomEngine LinkRng = Root.fork(); // per-site access class
  RandomEngine HostRng = Root.fork(); // per-host speed and load knobs
  RandomEngine FileRng = Root.fork(); // per-file size and placement

  std::vector<double> AccessWeights;
  AccessWeights.reserve(H.AccessClasses.size());
  for (const LinkClassSpec &C : H.AccessClasses)
    AccessWeights.push_back(C.Weight);

  auto addLink = [&Spec](const std::string &A, const std::string &B,
                         const LinkClassSpec &C) {
    LinkSpec L;
    L.A = A;
    L.B = B;
    L.Capacity = C.Capacity;
    L.Delay = C.Delay;
    L.Loss = C.Loss;
    Spec.Links.push_back(std::move(L));
  };

  HierarchyLayout Names;
  Spec.Backbones.push_back(Core);
  for (unsigned G = 0; G != H.Regions; ++G) {
    std::string Region = H.Prefix + "-r" + std::to_string(G);
    Spec.Backbones.push_back(Region);
    addLink(Core, Region, H.RootLink);
    for (unsigned I = 0; I != H.SitesPerRegion; ++I) {
      SiteConfig Site;
      Site.Name = Region + "-s" + std::to_string(I);
      for (unsigned K = 0; K != H.HostsPerSite; ++K) {
        SiteHostSpec Host;
        Host.Name = Site.Name + "-h" + std::to_string(K);
        Host.CpuSpeed = HostRng.uniform(HierarchySpec::CpuSpeedMin,
                                        HierarchySpec::CpuSpeedMax);
        Host.CpuMeanLoad = HostRng.uniform(HierarchySpec::CpuMeanLoadMin,
                                           HierarchySpec::CpuMeanLoadMax);
        Host.IoMeanLoad = HostRng.uniform(HierarchySpec::IoMeanLoadMin,
                                          HierarchySpec::IoMeanLoadMax);
        Host.DiskReadRate = H.DiskReadRate;
        Host.DiskWriteRate = H.DiskWriteRate;
        Names.Hosts.push_back(Host.Name);
        Site.Hosts.push_back(std::move(Host));
      }
      addLink(Site.Name, Region,
              H.AccessClasses[LinkRng.weightedIndex(AccessWeights)]);
      Names.Sites.push_back(Site.Name);
      Spec.Sites.push_back(std::move(Site));
    }
  }

  for (unsigned N = 0; N != H.FileCount; ++N) {
    CatalogFileSpec File;
    File.Lfn = H.Prefix + "-f" + std::to_string(N);
    File.SizeBytes = FileRng.uniform(H.FileSizeMin, H.FileSizeMax);
    // Distinct holders via rejection; validate() guarantees enough hosts.
    std::vector<uint32_t> Holders;
    while (Holders.size() < H.ReplicasPerFile) {
      uint32_t P = uint32_t(FileRng.uniformInt(Names.Hosts.size()));
      bool Dup = false;
      for (uint32_t Existing : Holders)
        Dup = Dup || Existing == P;
      if (!Dup)
        Holders.push_back(P);
    }
    for (uint32_t P : Holders)
      File.ReplicaHosts.push_back(Names.Hosts[P]);
    Names.Lfns.push_back(File.Lfn);
    Spec.Files.push_back(std::move(File));
  }

  if (Layout)
    *Layout = std::move(Names);
  return Errors;
}
