//===- tests/GridSpecTest.cpp - GridSpec / buildFrom tests -----------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The declarative construction contract: buildFrom() builds every section
/// of a spec into the grid and keeps the spec it was given; two grids built
/// from one spec simulate identically; and the spec hash is a stable
/// content hash that moves when (and only when) the described grid
/// changes.
///
//===----------------------------------------------------------------------===//

#include "grid/DataGrid.h"
#include "grid/Testbed.h"
#include "support/Json.h"
#include "support/Units.h"

#include <gtest/gtest.h>

using namespace dgsim;
using namespace dgsim::units;

namespace {

/// A small two-site grid: sites behind one backbone, cross-traffic and
/// one catalog file.
GridSpec twoSiteSpec(uint64_t Seed) {
  GridSpec Spec;
  Spec.Seed = Seed;
  for (const char *Name : {"left", "right"}) {
    SiteConfig S;
    S.Name = Name;
    S.Hosts.resize(2);
    S.Hosts[0].Name = std::string(Name) + "0";
    S.Hosts[1].Name = std::string(Name) + "1";
    S.Hosts[1].CpuSpeed = 0.5;
    Spec.Sites.push_back(S);
  }
  Spec.Backbones.push_back("core");
  Spec.Links.push_back({"left", "core", gbps(1), 0.002, 1e-5});
  Spec.Links.push_back({"right", "core", mbps(30), 0.01, 1e-2});
  Spec.Traffic.push_back({"left", "right", 5.0, megabytes(1), 2});
  Spec.Files.push_back({"file-x", megabytes(64), {"right0"}});
  return Spec;
}

/// twoSiteSpec() grown to fill every section: a second backbone, one link
/// of each endpoint shape (site-site, site-backbone, backbone-backbone), a
/// workload and a fault plan.
GridSpec everySectionSpec() {
  GridSpec Spec = twoSiteSpec(11);
  Spec.Info.BandwidthPeriod = 5.0;
  Spec.Backbones.push_back("edge");
  Spec.Links[1].B = "edge";
  Spec.Links.push_back({"core", "edge", mbps(622), 0.004, 1e-5});
  Spec.Links.push_back({"left", "right", mbps(10), 0.03, 1e-3});
  WorkloadSpec W;
  W.Clients = {"left0"};
  W.Lfns = {"file-x"};
  Spec.Workloads.push_back(W);
  Spec.Faults.hostCrash("left1", 40.0, 10.0);
  return Spec;
}

/// True when \p Topo has a link between \p A and \p B of \p Capacity.
bool hasLink(const Topology &Topo, NodeId A, NodeId B, BitRate Capacity) {
  for (LinkId L : Topo.linksAt(A)) {
    const NetLink &Link = Topo.link(L);
    if (((Link.A == A && Link.B == B) || (Link.A == B && Link.B == A)) &&
        Link.Capacity == Capacity)
      return true;
  }
  return false;
}

/// Warms \p G up, fetches 64 MB from right0 to left0 and runs the grid
/// dry.  \returns the fetch's total seconds.
double fetchSeconds(DataGrid &G) {
  G.sim().runUntil(30.0);
  TransferSpec Fetch;
  Fetch.Source = G.findHost("right0");
  Fetch.Destination = G.findHost("left0");
  Fetch.FileBytes = megabytes(64);
  Fetch.Protocol = TransferProtocol::GridFtpModeE;
  Fetch.Streams = 4;
  double Seconds = 0.0;
  G.transfers().submit(
      Fetch, [&](const TransferResult &R) { Seconds = R.totalSeconds(); });
  G.sim().run();
  return Seconds;
}

} // namespace

TEST(GridSpec, BuildFromBuildsEverySection) {
  const GridSpec Spec = everySectionSpec();
  ASSERT_TRUE(Spec.validate().empty());
  std::unique_ptr<DataGrid> G = DataGrid::buildFrom(Spec);

  // The grid keeps the spec it was given.
  EXPECT_EQ(G->spec().canonicalJson(), Spec.canonicalJson());

  // Sites and hosts.
  ASSERT_NE(G->findSite("left"), nullptr);
  ASSERT_NE(G->findSite("right"), nullptr);
  EXPECT_EQ(G->findSite("right")->hostCount(), 2u);
  ASSERT_NE(G->findHost("right1"), nullptr);
  EXPECT_EQ(G->siteOf(*G->findHost("right1"))->name(), "right");

  // Backbones, and every link between the nodes its endpoints name: a
  // site resolves to its switch, anything else to a backbone node.
  const Topology &Topo = G->topology();
  auto Node = [&](const std::string &Name) {
    if (Site *S = G->findSite(Name))
      return S->switchNode();
    return Topo.findNode(Name);
  };
  EXPECT_NE(Topo.findNode("core"), InvalidNodeId);
  EXPECT_NE(Topo.findNode("edge"), InvalidNodeId);
  // 4 hosts' LAN links plus the spec's links.
  EXPECT_EQ(Topo.linkCount(), 4u + Spec.Links.size());
  for (const LinkSpec &L : Spec.Links)
    EXPECT_TRUE(hasLink(Topo, Node(L.A), Node(L.B), L.Capacity))
        << L.A << " -- " << L.B;

  // Services: every host is registered with the information service
  // (reading an unregistered host asserts) and primed with a sample.
  for (Host *H : G->allHosts())
    EXPECT_GT(G->info().cpuIdle(*H), 0.0) << H->name();

  // Catalog files, workloads and the fault plan.
  ASSERT_TRUE(G->catalog().hasFile("file-x"));
  EXPECT_EQ(G->catalog().locateRef("file-x").size(), 1u);
  EXPECT_FALSE(G->workloadArrivals(0).empty());
  ASSERT_NE(G->faults(), nullptr);
  EXPECT_EQ(G->faults()->windows().size(), 1u);

  // Cross-traffic: background flows commit rebalances before any
  // foreground transfer exists.
  G->sim().runUntil(30.0);
  EXPECT_GT(G->network().rebalanceEvents(), 0u);
}

TEST(GridSpec, CanonicalJsonIsWellFormedAndDeterministic) {
  auto G = DataGrid::buildFrom(twoSiteSpec(7));
  std::string Doc = G->spec().canonicalJson();
  EXPECT_TRUE(json::validate(Doc));
  EXPECT_EQ(Doc, DataGrid::buildFrom(twoSiteSpec(7))->spec().canonicalJson());
}

TEST(GridSpec, HashTracksContent) {
  auto A = DataGrid::buildFrom(twoSiteSpec(7));
  auto B = DataGrid::buildFrom(twoSiteSpec(7));
  EXPECT_EQ(A->spec().hash(), B->spec().hash());
  auto C = DataGrid::buildFrom(twoSiteSpec(8)); // Seed is part of the content.
  EXPECT_NE(A->spec().hash(), C->spec().hash());
  EXPECT_EQ(A->spec().hashHex().size(), 16u);
  // The scale-out knobs change when sensors and host loads tick and which
  // path sensors survive, so each is part of the content too.
  const GridSpec Base = twoSiteSpec(7);
  GridSpec Batched = Base, Staggered = Base, Ttl = Base, BatchedLoads = Base;
  Batched.Info.BatchSensors = true;
  Staggered.Info.StaggerGroups = 4;
  Ttl.Info.PathSensorTtl = 60.0;
  BatchedLoads.Info.BatchHostLoads = true;
  for (const GridSpec *S : {&Batched, &Staggered, &Ttl, &BatchedLoads})
    EXPECT_NE(S->hash(), Base.hash());
}

TEST(GridSpec, BuildFromGridBehavesIdentically) {
  // Two grids built from one spec must not just describe the same
  // topology — they must *simulate* identically: same transfer, same
  // result, the same workload arrivals and the same faults fired.
  const GridSpec Spec = everySectionSpec();
  std::unique_ptr<DataGrid> A = DataGrid::buildFrom(Spec);
  std::unique_ptr<DataGrid> B = DataGrid::buildFrom(Spec);
  double SecondsA = fetchSeconds(*A);
  double SecondsB = fetchSeconds(*B);
  EXPECT_GT(SecondsA, 0.0);
  EXPECT_EQ(SecondsA, SecondsB); // Bit-identical, not approximately equal.
  EXPECT_EQ(A->sim().eventsExecuted(), B->sim().eventsExecuted());
  ASSERT_EQ(A->workloadArrivals(0).size(), B->workloadArrivals(0).size());
  for (size_t I = 0; I != A->workloadArrivals(0).size(); ++I)
    EXPECT_EQ(A->workloadArrivals(0)[I].Time, B->workloadArrivals(0)[I].Time);
  EXPECT_EQ(A->faults()->counters().HostCrashes, 1u);
  EXPECT_EQ(B->faults()->counters().HostCrashes, 1u);
}

TEST(GridSpec, PaperTestbedIsSpecBuilt) {
  PaperTestbedOptions O;
  GridSpec S = PaperTestbed::spec(O);
  EXPECT_EQ(S.Sites.size(), 3u);
  EXPECT_EQ(S.Seed, O.Seed);
  PaperTestbed T(O);
  EXPECT_EQ(T.grid().spec().hash(), S.hash());
}

TEST(GridSpec, FindHostAndSiteIndexes) {
  auto G = DataGrid::buildFrom(twoSiteSpec(7));
  Host *H = G->findHost("left1");
  ASSERT_NE(H, nullptr);
  EXPECT_EQ(H->name(), "left1");
  Site *S = G->findSite("right");
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->name(), "right");
  EXPECT_EQ(G->siteOf(*H)->name(), "left");
  EXPECT_EQ(G->findHost("nope"), nullptr);
  EXPECT_EQ(G->findSite("nope"), nullptr);
}

//===----------------------------------------------------------------------===//
// Build-time validation: every malformed shape is rejected with a message
// that names the offending element, and a well-formed spec validates clean.
//===----------------------------------------------------------------------===//

namespace {

/// True when some validation message contains \p Needle.
bool flags(const GridSpec &S, const std::string &Needle) {
  for (const std::string &Msg : S.validate())
    if (Msg.find(Needle) != std::string::npos)
      return true;
  return false;
}

/// A well-formed baseline the malformed cases each perturb.
GridSpec validSpec() { return twoSiteSpec(7); }

} // namespace

TEST(GridSpecValidate, WellFormedSpecIsClean) {
  EXPECT_TRUE(validSpec().validate().empty());
  PaperTestbedOptions O;
  EXPECT_TRUE(PaperTestbed::spec(O).validate().empty());
}

TEST(GridSpecValidate, DuplicateSiteName) {
  GridSpec S = validSpec();
  S.Sites.push_back(S.Sites[0]);
  EXPECT_TRUE(flags(S, "duplicate site name 'left'"));
}

TEST(GridSpecValidate, DuplicateHostNameAcrossSites) {
  GridSpec S = validSpec();
  S.Sites[1].Hosts[0].Name = "left0";
  EXPECT_TRUE(flags(S, "duplicate host name 'left0'"));
}

TEST(GridSpecValidate, SiteWithoutHosts) {
  GridSpec S = validSpec();
  S.Sites[0].Hosts.clear();
  EXPECT_TRUE(flags(S, "site 'left' has no hosts"));
}

TEST(GridSpecValidate, NonPositiveDeviceRate) {
  GridSpec S = validSpec();
  S.Sites[0].Hosts[0].NicRate = 0.0;
  EXPECT_TRUE(flags(S, "host 'left0' has a non-positive device rate"));
}

TEST(GridSpecValidate, LinkToUnknownEndpoint) {
  GridSpec S = validSpec();
  S.Links[0].B = "nowhere";
  EXPECT_TRUE(
      flags(S, "link endpoint 'nowhere' names no declared site or backbone"));
}

TEST(GridSpecValidate, LinkLossOutOfRange) {
  GridSpec S = validSpec();
  S.Links[0].Loss = 1.0;
  EXPECT_TRUE(flags(S, "has loss outside [0, 1)"));
}

TEST(GridSpecValidate, CrossTrafficToUnknownSite) {
  GridSpec S = validSpec();
  S.Traffic[0].ToSite = "mars";
  EXPECT_TRUE(flags(S, "cross-traffic endpoint 'mars' names no site"));
}

TEST(GridSpecValidate, CatalogFileShapes) {
  GridSpec S = validSpec();
  S.Files[0].SizeBytes = 0.0;
  EXPECT_TRUE(flags(S, "catalog file 'file-x' has non-positive size"));
  S = validSpec();
  S.Files[0].ReplicaHosts = {"ghost"};
  EXPECT_TRUE(flags(
      S, "replica host 'ghost' of file 'file-x' names no declared host"));
}

TEST(GridSpecValidate, WorkloadShapes) {
  WorkloadSpec W;
  W.Name = "load";
  W.Clients = {"left0"};
  W.Lfns = {"file-x"};

  GridSpec S = validSpec();
  S.Workloads.push_back(W);
  EXPECT_TRUE(S.validate().empty()) << "baseline workload must be clean";

  S.Workloads[0].ArrivalsPerSecond = 0.0;
  EXPECT_TRUE(flags(S, "workload 'load' has non-positive arrival rate"));

  S = validSpec();
  W.Clients = {"ghost"};
  S.Workloads.push_back(W);
  EXPECT_TRUE(
      flags(S, "workload 'load' client 'ghost' names no declared host"));

  S = validSpec();
  W.Clients = {"left0"};
  W.Lfns = {"no-such-file"};
  S.Workloads.push_back(W);
  EXPECT_TRUE(flags(
      S, "workload 'load' file 'no-such-file' names no catalog file"));
}

TEST(GridSpecValidate, FaultWindowEndBeforeStart) {
  // The fluent builder asserts on this shape; a hand-assembled or
  // deserialized plan can still carry it, and validate() must catch it.
  GridSpec S = validSpec();
  FaultWindow W;
  W.Kind = FaultKind::HostCrash;
  W.Target = "left0";
  W.Start = 10.0;
  W.Duration = 0.0;
  S.Faults.Windows.push_back(W);
  EXPECT_TRUE(flags(S, "has end <= start"));
}

TEST(GridSpecValidate, FaultTargetsMustResolve) {
  GridSpec S = validSpec();
  S.Faults.hostCrash("ghost", 10.0, 5.0);
  EXPECT_TRUE(flags(S, "target 'ghost' names no declared host"));
  S = validSpec();
  S.Faults.linkDown("left", "nowhere", 10.0, 5.0);
  EXPECT_TRUE(
      flags(S, "link endpoint 'nowhere' names no declared site or backbone"));
}

TEST(GridSpecValidate, MtbfProcessShapes) {
  // Hand-assembled processes bypass the builder's assertions; validate()
  // still has to name the bad parameter.
  MtbfProcess P;
  P.Kind = FaultKind::HostCrash;
  P.Target = "left0";
  P.Mttr = 5.0;
  P.Horizon = 100.0;

  GridSpec S = validSpec();
  P.Mtbf = 0.0;
  S.Faults.Processes.push_back(P);
  EXPECT_TRUE(flags(S, "has non-positive MTBF"));

  S = validSpec();
  P.Mtbf = 60.0;
  P.Mttr = 0.0;
  S.Faults.Processes.push_back(P);
  EXPECT_TRUE(flags(S, "has non-positive MTTR"));
}
