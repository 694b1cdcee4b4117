//===- tests/HierarchyTest.cpp - Tiered-topology generator tests ----------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the declarative hierarchy generator and the routing machinery it
/// leans on at scale: same-seed bit-identity at 1k+ sites, spec-hash
/// stability, validate() rejections, the LCA fast path against Dijkstra,
/// and bounded-cache eviction.
///
//===----------------------------------------------------------------------===//

#include "grid/DataGrid.h"
#include "grid/Hierarchy.h"
#include "net/Routing.h"
#include "support/Units.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace dgsim;
using namespace dgsim::units;

namespace {

/// A 1024-site tiered grid (32 regions x 32 sites), single host per site.
HierarchySpec kiloSiteSpec() {
  HierarchySpec H;
  H.Seed = 42;
  H.Regions = 32;
  H.SitesPerRegion = 32;
  H.HostsPerSite = 1;
  H.FileCount = 128;
  H.FileSizeMin = megabytes(1);
  H.FileSizeMax = megabytes(8);
  H.ReplicasPerFile = 3;
  return H;
}

} // namespace

//===----------------------------------------------------------------------===//
// Determinism and hashing
//===----------------------------------------------------------------------===//

TEST(Hierarchy, SameSeedBitIdenticalAtKiloSite) {
  HierarchySpec H = kiloSiteSpec();

  GridSpec A, B;
  A.Seed = B.Seed = 7;
  HierarchyLayout LayoutA, LayoutB;
  EXPECT_TRUE(appendHierarchy(A, H, &LayoutA).empty());
  EXPECT_TRUE(appendHierarchy(B, H, &LayoutB).empty());

  // The whole generated grid lands in the spec, so canonical JSON equality
  // is bit-identity of every site, link, host knob and replica placement.
  EXPECT_EQ(A.canonicalJson(), B.canonicalJson());
  EXPECT_EQ(A.hash(), B.hash());
  EXPECT_EQ(LayoutA.Sites, LayoutB.Sites);
  EXPECT_EQ(LayoutA.Hosts, LayoutB.Hosts);
  EXPECT_EQ(LayoutA.Lfns, LayoutB.Lfns);

  EXPECT_EQ(LayoutA.Sites.size(), 1024u);
  EXPECT_EQ(LayoutA.Hosts.size(), 1024u);
  EXPECT_EQ(LayoutA.Lfns.size(), 128u);
}

TEST(Hierarchy, SpecHashTracksEveryKnob) {
  HierarchySpec H = kiloSiteSpec();
  H.Regions = 4;
  H.SitesPerRegion = 4;

  auto hashOf = [](const HierarchySpec &Spec) {
    GridSpec G;
    G.Seed = 1;
    EXPECT_TRUE(appendHierarchy(G, Spec).empty());
    return G.hash();
  };

  uint64_t Base = hashOf(H);
  EXPECT_EQ(Base, hashOf(H)) << "same spec must hash identically";

  HierarchySpec Reseeded = H;
  Reseeded.Seed += 1;
  EXPECT_NE(Base, hashOf(Reseeded)) << "the generator seed is material";

  HierarchySpec Wider = H;
  Wider.SitesPerRegion += 1;
  EXPECT_NE(Base, hashOf(Wider));

  HierarchySpec FasterDisks = H;
  FasterDisks.DiskWriteRate *= 2.0;
  EXPECT_NE(Base, hashOf(FasterDisks))
      << "generated host disk rates must reach the hashed spec";
}

//===----------------------------------------------------------------------===//
// Validation
//===----------------------------------------------------------------------===//

TEST(Hierarchy, ValidateRejectsBadShapes) {
  {
    HierarchySpec H;
    H.Regions = 0;
    EXPECT_FALSE(H.validate().empty());
  }
  {
    HierarchySpec H;
    H.SitesPerRegion = 0;
    EXPECT_FALSE(H.validate().empty());
  }
  {
    HierarchySpec H;
    H.HostsPerSite = 0;
    EXPECT_FALSE(H.validate().empty());
  }
  {
    HierarchySpec H;
    H.AccessClasses.clear();
    EXPECT_FALSE(H.validate().empty());
  }
  {
    HierarchySpec H;
    H.DiskWriteRate = 0.0;
    EXPECT_FALSE(H.validate().empty());
  }
  {
    HierarchySpec H;
    H.Regions = 2;
    H.SitesPerRegion = 2;
    H.HostsPerSite = 1;
    H.FileCount = 1;
    H.ReplicasPerFile = 5; // Only 4 hosts exist.
    EXPECT_FALSE(H.validate().empty());
  }
  // The default spec is well-formed.
  EXPECT_TRUE(HierarchySpec().validate().empty());
}

TEST(Hierarchy, RejectsPrefixCollisionWithoutAppending) {
  GridSpec Spec;
  Spec.Seed = 3;
  HierarchySpec H;
  H.Regions = 2;
  H.SitesPerRegion = 2;
  EXPECT_TRUE(appendHierarchy(Spec, H).empty());
  std::string Before = Spec.canonicalJson();

  // Same prefix again: the core backbone name collides.  Nothing may be
  // appended — a partial expansion would corrupt the spec.
  EXPECT_FALSE(appendHierarchy(Spec, H).empty());
  EXPECT_EQ(Spec.canonicalJson(), Before);

  // A bad spec is also rejected atomically.
  HierarchySpec Bad = H;
  Bad.Prefix = "other";
  Bad.HostsPerSite = 0;
  EXPECT_FALSE(appendHierarchy(Spec, Bad).empty());
  EXPECT_EQ(Spec.canonicalJson(), Before);

  // A fresh prefix composes fine next to the first hierarchy.
  HierarchySpec Second = H;
  Second.Prefix = "edge";
  EXPECT_TRUE(appendHierarchy(Spec, Second).empty());
  EXPECT_NE(Spec.canonicalJson(), Before);
}

//===----------------------------------------------------------------------===//
// Routing over generated topologies
//===----------------------------------------------------------------------===//

namespace {

/// Compares the LCA fast path against Dijkstra over every client/holder
/// pair of a built grid: identical channel sequences and aggregates.
void expectLcaMatchesDijkstra(DataGrid &G, const HierarchyLayout &Layout,
                              size_t Stride) {
  Routing Lca(G.topology());
  Routing Dij(G.topology());
  Dij.setTreeRouting(false);

  size_t Compared = 0;
  for (size_t I = 0; I < Layout.Hosts.size(); I += Stride) {
    for (size_t J = 0; J < Layout.Hosts.size(); J += Stride) {
      NodeId Src = G.findHost(Layout.Hosts[I])->node();
      NodeId Dst = G.findHost(Layout.Hosts[J])->node();
      const NetPath *A = Lca.pathRef(Src, Dst);
      const NetPath *B = Dij.pathRef(Src, Dst);
      ASSERT_NE(A, nullptr);
      ASSERT_NE(B, nullptr);
      EXPECT_EQ(A->Channels, B->Channels);
      EXPECT_DOUBLE_EQ(A->Rtt, B->Rtt);
      EXPECT_DOUBLE_EQ(A->BottleneckCapacity, B->BottleneckCapacity);
      EXPECT_DOUBLE_EQ(A->LossRate, B->LossRate);
      ++Compared;
    }
  }
  EXPECT_GT(Compared, 0u);
  EXPECT_TRUE(Lca.usesTreeRouting())
      << "a generated hierarchy must be recognised as a forest";
}

} // namespace

TEST(Hierarchy, LcaRoutesMatchDijkstraOnTieredGrid) {
  // A few seeds vary the drawn access classes and host knobs; the route
  // equivalence must hold on each resulting topology.
  for (uint64_t Seed : {1u, 9u, 23u}) {
    GridSpec Spec;
    Spec.Seed = Seed;
    HierarchySpec H;
    H.Seed = Seed * 977;
    H.Regions = 3;
    H.SitesPerRegion = 4;
    H.HostsPerSite = 2;
    HierarchyLayout Layout;
    ASSERT_TRUE(appendHierarchy(Spec, H, &Layout).empty());
    std::unique_ptr<DataGrid> G = DataGrid::buildFrom(Spec);
    expectLcaMatchesDijkstra(*G, Layout, /*Stride=*/3);
  }
}

TEST(Hierarchy, BoundedRouteCacheEvictsAndRecomputes) {
  GridSpec Spec;
  Spec.Seed = 11;
  HierarchySpec H;
  H.Regions = 4;
  H.SitesPerRegion = 4;
  H.HostsPerSite = 2;
  HierarchyLayout Layout;
  ASSERT_TRUE(appendHierarchy(Spec, H, &Layout).empty());
  std::unique_ptr<DataGrid> G = DataGrid::buildFrom(Spec);

  Routing R(G->topology());
  NodeId Probe = G->findHost(Layout.Hosts[0])->node();
  NodeId ProbeDst = G->findHost(Layout.Hosts[1])->node();
  const NetPath *FreshRef = R.pathRef(Probe, ProbeDst);
  ASSERT_NE(FreshRef, nullptr);
  NetPath Fresh = *FreshRef; // A copy: the sweep below evicts the entry.

  // Sweep every ordered host pair through a tiny cache: the sweep must
  // evict (32 hosts = 992 distinct pairs vs 64 slots) yet stay bounded.
  R.setCacheLimit(64);
  for (const std::string &A : Layout.Hosts)
    for (const std::string &B : Layout.Hosts) {
      if (A == B)
        continue;
      ASSERT_NE(R.pathRef(G->findHost(A)->node(), G->findHost(B)->node()),
                nullptr);
    }
  EXPECT_GT(R.evictions(), 0u);
  EXPECT_LE(R.cacheSize(), 64u + Routing::RecentRingSize);

  // An evicted route recomputes to exactly the original path.
  const NetPath *Again = R.pathRef(Probe, ProbeDst);
  ASSERT_NE(Again, nullptr);
  EXPECT_EQ(Fresh.Channels, Again->Channels);
  EXPECT_DOUBLE_EQ(Fresh.Rtt, Again->Rtt);
  EXPECT_DOUBLE_EQ(Fresh.BottleneckCapacity, Again->BottleneckCapacity);
  EXPECT_DOUBLE_EQ(Fresh.LossRate, Again->LossRate);
}
