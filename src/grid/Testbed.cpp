//===- grid/Testbed.cpp ------------------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "grid/Testbed.h"

#include "support/Units.h"

#include <cassert>
#include <cstdio>

using namespace dgsim;
using namespace dgsim::units;

// Relative CPU speeds (P4 2.8 GHz == 1.0).
static constexpr double ThuCpuSpeed = 0.85;   // dual AthlonMP 2.0 GHz
static constexpr double LiZenCpuSpeed = 0.32; // Celeron 900 MHz
static constexpr double HitCpuSpeed = 1.0;    // P4 2.8 GHz

GridSpec PaperTestbed::spec(const PaperTestbedOptions &Options) {
  GridSpec Spec;
  Spec.Seed = Options.Seed;
  Spec.Info = Options.Info;

  double Vol = Options.DynamicLoad ? 0.04 : 0.0;

  auto MakeSite = [&](const char *SiteName, const char *HostPrefix,
                      int FirstIndex, double CpuSpeed, BitRate Nic,
                      BitRate DiskRead, BitRate DiskWrite, BitRate Lan,
                      double CpuLoad, double IoLoad) {
    SiteConfig S;
    S.Name = SiteName;
    S.LanCapacity = Lan;
    for (int I = 0; I < 4; ++I) {
      SiteHostSpec H;
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%s%d", HostPrefix, FirstIndex + I);
      H.Name = Buf;
      H.CpuSpeed = CpuSpeed;
      H.NicRate = Nic;
      H.DiskReadRate = DiskRead;
      H.DiskWriteRate = DiskWrite;
      H.CpuMeanLoad = CpuLoad;
      H.IoMeanLoad = IoLoad;
      H.LoadVolatility = Vol;
      S.Hosts.push_back(H);
    }
    Spec.Sites.push_back(std::move(S));
  };

  // THU: fast hosts, a lightly loaded university cluster.
  MakeSite("thu", "alpha", 1, ThuCpuSpeed, gbps(1), mbps(400), mbps(320),
           gbps(1), /*CpuLoad=*/0.20, /*IoLoad=*/0.12);
  // Li-Zen: slow hosts (the high-school lab), mostly idle machines.
  MakeSite("lizen", "lz0", 1, LiZenCpuSpeed, mbps(100), mbps(240),
           mbps(200), mbps(100), /*CpuLoad=*/0.10, /*IoLoad=*/0.08);
  // HIT: fast hosts with a busier local workload.
  MakeSite("hit", "hit", 0, HitCpuSpeed, gbps(1), mbps(480), mbps(400),
           gbps(1), /*CpuLoad=*/0.35, /*IoLoad=*/0.25);

  // TANet-like backbone.  Clean gigabit access for the universities; the
  // high school hangs off a long, lossy 30 Mb/s municipal link — which is
  // exactly what makes MODE E parallel streams pay off there (Fig 4).
  // Inter-campus routes go through the TANet core in Taipei, so one-way
  // delays are several milliseconds even between Taichung campuses.
  Spec.Backbones.push_back("tanet");
  Spec.Links.push_back({"thu", "tanet", gbps(1), 0.0040, 2e-5});
  Spec.Links.push_back({"hit", "tanet", gbps(1), 0.0050, 2e-5});
  Spec.Links.push_back({"lizen", "tanet", mbps(30), 0.0100, 1e-2});

  if (Options.CrossTraffic) {
    // University-to-university bulk traffic keeps the backbone share of
    // the gigabit paths dynamic...
    Spec.Traffic.push_back({"thu", "hit", /*MeanInterarrival=*/2.0,
                            /*MinFlowBytes=*/megabytes(4), /*Streams=*/4});
    Spec.Traffic.push_back({"hit", "thu", 2.5, megabytes(4), 4});
    // ...and light web-ish traffic keeps the Li-Zen access busy.
    Spec.Traffic.push_back({"thu", "lizen", 6.0, kilobytes(512), 1});
    Spec.Traffic.push_back({"hit", "lizen", 7.0, kilobytes(512), 1});
  }
  return Spec;
}

PaperTestbed::PaperTestbed(PaperTestbedOptions Options)
    : Options(Options), Grid(DataGrid::buildFrom(spec(Options))) {}

Host &PaperTestbed::alpha(int I) {
  assert(I >= 1 && I <= 4 && "THU hosts are alpha1..alpha4");
  return Grid->findSite("thu")->host(static_cast<size_t>(I - 1));
}

Host &PaperTestbed::lz(int I) {
  assert(I >= 1 && I <= 4 && "Li-Zen hosts are lz01..lz04");
  return Grid->findSite("lizen")->host(static_cast<size_t>(I - 1));
}

Host &PaperTestbed::hit(int I) {
  assert(I >= 0 && I <= 3 && "HIT hosts are hit0..hit3");
  return Grid->findSite("hit")->host(static_cast<size_t>(I));
}

void PaperTestbed::publishFileA() {
  ReplicaCatalog &Cat = Grid->catalog();
  if (Cat.hasFile(FileA))
    return;
  CatalogFileSpec F;
  F.Lfn = FileA;
  F.SizeBytes = megabytes(1024);
  F.ReplicaHosts = {alpha(4).name(), hit(0).name(), lz(2).name()};
  Grid->registerCatalogFile(F);
}
