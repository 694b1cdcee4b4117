//===- grid/GridSpec.cpp -----------------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "grid/GridSpec.h"

#include "support/Json.h"

#include <cstdio>
#include <set>

using namespace dgsim;

namespace {

/// "host 'alpha9' in ..." style formatting without pulling in a printf
/// wrapper: validation messages must name the offending field so a user
/// can fix the spec without reading DataGrid internals.
std::string quoted(const std::string &S) { return "'" + S + "'"; }

} // namespace

std::vector<std::string> GridSpec::validate() const {
  std::vector<std::string> Errors;
  auto Err = [&Errors](std::string Msg) { Errors.push_back(std::move(Msg)); };

  // Name tables first; later checks resolve against them.
  std::set<std::string> SiteNames, HostNames, EndpointNames, LfnNames;
  for (const SiteConfig &S : Sites) {
    if (S.Name.empty())
      Err("site with empty name");
    if (!SiteNames.insert(S.Name).second)
      Err("duplicate site name " + quoted(S.Name));
    if (S.Hosts.empty())
      Err("site " + quoted(S.Name) + " has no hosts");
    if (S.LanCapacity <= 0.0)
      Err("site " + quoted(S.Name) + " has non-positive LAN capacity");
    for (const SiteHostSpec &H : S.Hosts) {
      if (H.Name.empty())
        Err("host with empty name in site " + quoted(S.Name));
      if (!HostNames.insert(H.Name).second)
        Err("duplicate host name " + quoted(H.Name));
      if (H.CpuSpeed <= 0.0)
        Err("host " + quoted(H.Name) + " has non-positive CPU speed");
      if (H.NicRate <= 0.0 || H.DiskReadRate <= 0.0 || H.DiskWriteRate <= 0.0)
        Err("host " + quoted(H.Name) + " has a non-positive device rate");
    }
  }
  EndpointNames = SiteNames;
  for (const std::string &B : Backbones) {
    if (B.empty())
      Err("backbone with empty name");
    if (!EndpointNames.insert(B).second)
      Err("duplicate endpoint name " + quoted(B) +
          " (backbone collides with a site or another backbone)");
  }

  for (const LinkSpec &L : Links) {
    for (const std::string &End : {L.A, L.B})
      if (!EndpointNames.count(End))
        Err("link endpoint " + quoted(End) +
            " names no declared site or backbone");
    if (L.A == L.B)
      Err("link from " + quoted(L.A) + " to itself");
    if (L.Capacity <= 0.0)
      Err("link " + quoted(L.A) + "-" + quoted(L.B) +
          " has non-positive capacity");
    if (L.Loss < 0.0 || L.Loss >= 1.0)
      Err("link " + quoted(L.A) + "-" + quoted(L.B) +
          " has loss outside [0, 1)");
  }

  for (const CrossTrafficSpec &T : Traffic) {
    for (const std::string &End : {T.FromSite, T.ToSite})
      if (!SiteNames.count(End))
        Err("cross-traffic endpoint " + quoted(End) + " names no site");
    if (T.MeanInterarrival <= 0.0)
      Err("cross-traffic " + quoted(T.FromSite) + "->" + quoted(T.ToSite) +
          " has non-positive mean interarrival");
  }

  for (const CatalogFileSpec &F : Files) {
    if (F.Lfn.empty())
      Err("catalog file with empty LFN");
    if (!LfnNames.insert(F.Lfn).second)
      Err("duplicate catalog file " + quoted(F.Lfn));
    if (F.SizeBytes <= 0.0)
      Err("catalog file " + quoted(F.Lfn) + " has non-positive size");
    if (F.ReplicaHosts.empty())
      Err("catalog file " + quoted(F.Lfn) + " has no replica hosts");
    for (const std::string &R : F.ReplicaHosts)
      if (!HostNames.count(R))
        Err("replica host " + quoted(R) + " of file " + quoted(F.Lfn) +
            " names no declared host");
  }

  for (const WorkloadSpec &L : Workloads) {
    if (L.ArrivalsPerSecond <= 0.0)
      Err("workload " + quoted(L.Name) + " has non-positive arrival rate");
    if (L.Duration <= 0.0)
      Err("workload " + quoted(L.Name) + " has non-positive duration");
    if (L.Start < 0.0)
      Err("workload " + quoted(L.Name) + " starts before t=0");
    if (L.Clients.empty())
      Err("workload " + quoted(L.Name) + " has no client hosts");
    if (L.Lfns.empty())
      Err("workload " + quoted(L.Name) + " has no files");
    if (L.ZipfExponent < 0.0)
      Err("workload " + quoted(L.Name) + " has negative Zipf exponent");
    for (const std::string &C : L.Clients)
      if (!HostNames.count(C))
        Err("workload " + quoted(L.Name) + " client " + quoted(C) +
            " names no declared host");
    for (const std::string &F : L.Lfns)
      if (!LfnNames.count(F))
        Err("workload " + quoted(L.Name) + " file " + quoted(F) +
            " names no catalog file");
  }

  // Fault-plan shapes.  Windows with Duration <= 0 (i.e. end <= start)
  // would replay as zero-length outages that repair before they break —
  // always a spec bug, never an intent.
  // Telemetry scopes: empty = global, Target alone = one host's sensors,
  // Target + Target2 = one server->client path.  Endpoints are hosts.
  auto CheckTelemetryScope = [&](const std::string &Target,
                                 const std::string &Target2,
                                 const std::string &What) {
    if (!Target.empty() && !HostNames.count(Target))
      Err(What + ": target " + quoted(Target) + " names no declared host");
    if (!Target2.empty() && !HostNames.count(Target2))
      Err(What + ": client " + quoted(Target2) + " names no declared host");
  };
  auto CheckTargets = [&](FaultKind Kind, const std::string &Target,
                          const std::string &Target2, double Magnitude,
                          double Offset, const std::string &What) {
    switch (Kind) {
    case FaultKind::LinkDown:
      for (const std::string &End : {Target, Target2})
        if (!EndpointNames.count(End))
          Err(What + ": link endpoint " + quoted(End) +
              " names no declared site or backbone");
      break;
    case FaultKind::HostCrash:
    case FaultKind::StorageOutage:
      if (!HostNames.count(Target))
        Err(What + ": target " + quoted(Target) +
            " names no declared host");
      break;
    case FaultKind::SensorBlackout:
      break; // Grid-wide: no target to resolve.
    case FaultKind::SensorBias:
      CheckTelemetryScope(Target, Target2, What);
      if (Magnitude <= 0.0)
        Err(What + " has non-positive gain (readings scale by it)");
      else if (Magnitude == 1.0 && Offset == 0.0)
        Err(What + " is an identity transform (gain 1, offset 0)");
      break;
    case FaultKind::SensorStuck:
    case FaultKind::SensorDropout:
      CheckTelemetryScope(Target, Target2, What);
      break;
    case FaultKind::SensorNoise:
      CheckTelemetryScope(Target, Target2, What);
      if (Magnitude <= 0.0)
        Err(What + " has non-positive noise scale");
      break;
    case FaultKind::ClockSkew:
      CheckTelemetryScope(Target, Target2, What);
      if (Magnitude == 0.0)
        Err(What + " has zero skew (no effect)");
      break;
    case FaultKind::LogCorrupt:
      if (!Target.empty() && Target2.empty())
        Err(What + ": log corruption is global or path-scoped, "
                   "never host-scoped");
      CheckTelemetryScope(Target, Target2, What);
      if (Magnitude <= 0.0)
        Err(What + " has non-positive corruption scale");
      break;
    }
  };
  for (const FaultWindow &W : Faults.Windows) {
    std::string What =
        std::string("fault window (") + faultKindName(W.Kind) + ")";
    if (W.Duration <= 0.0)
      Err(What + " on " + quoted(W.Target) +
          " has end <= start (non-positive duration)");
    if (W.Start < 0.0)
      Err(What + " on " + quoted(W.Target) + " starts before t=0");
    CheckTargets(W.Kind, W.Target, W.Target2, W.Magnitude, W.Offset, What);
  }
  for (const MtbfProcess &P : Faults.Processes) {
    std::string What =
        std::string("fault process (") + faultKindName(P.Kind) + ")";
    if (P.Mtbf <= 0.0)
      Err(What + " on " + quoted(P.Target) + " has non-positive MTBF");
    if (P.Mttr <= 0.0)
      Err(What + " on " + quoted(P.Target) + " has non-positive MTTR");
    if (P.Horizon < 0.0)
      Err(What + " on " + quoted(P.Target) + " has negative horizon");
    CheckTargets(P.Kind, P.Target, P.Target2, P.Magnitude, P.Offset, What);
  }
  return Errors;
}

std::string GridSpec::canonicalJson() const {
  json::JsonWriter W;
  W.beginObject();
  W.member("seed", Seed);
  W.key("info");
  W.beginObject();
  W.member("bandwidth_period", Info.BandwidthPeriod);
  W.member("host_period", Info.HostPeriod);
  W.member("normalization",
           Info.Normalization == BwNormalization::ClientAccess
               ? "client-access"
               : "per-path");
  W.member("batch_sensors", Info.BatchSensors);
  W.member("stagger_groups", Info.StaggerGroups);
  W.member("path_sensor_ttl", Info.PathSensorTtl);
  W.member("batch_host_loads", Info.BatchHostLoads);
  W.endObject();
  W.key("sites");
  W.beginArray();
  for (const SiteConfig &S : Sites) {
    W.beginObject();
    W.member("name", S.Name);
    W.member("lan_capacity", S.LanCapacity);
    W.key("hosts");
    W.beginArray();
    for (const SiteHostSpec &H : S.Hosts) {
      W.beginObject();
      W.member("name", H.Name);
      W.member("cpu_speed", H.CpuSpeed);
      W.member("nic_rate", H.NicRate);
      W.member("disk_read_rate", H.DiskReadRate);
      W.member("disk_write_rate", H.DiskWriteRate);
      W.member("cpu_mean_load", H.CpuMeanLoad);
      W.member("io_mean_load", H.IoMeanLoad);
      W.member("load_volatility", H.LoadVolatility);
      W.endObject();
    }
    W.endArray();
    W.endObject();
  }
  W.endArray();
  W.key("backbones");
  W.beginArray();
  for (const std::string &B : Backbones)
    W.value(B);
  W.endArray();
  W.key("links");
  W.beginArray();
  for (const LinkSpec &L : Links) {
    W.beginObject();
    W.member("a", L.A);
    W.member("b", L.B);
    W.member("capacity", L.Capacity);
    W.member("delay", L.Delay);
    W.member("loss", L.Loss);
    W.endObject();
  }
  W.endArray();
  W.key("traffic");
  W.beginArray();
  for (const CrossTrafficSpec &T : Traffic) {
    W.beginObject();
    W.member("from", T.FromSite);
    W.member("to", T.ToSite);
    W.member("mean_interarrival", T.MeanInterarrival);
    W.member("min_flow_bytes", T.MinFlowBytes);
    W.member("streams", T.Streams);
    W.endObject();
  }
  W.endArray();
  W.key("files");
  W.beginArray();
  for (const CatalogFileSpec &F : Files) {
    W.beginObject();
    W.member("lfn", F.Lfn);
    W.member("size_bytes", F.SizeBytes);
    W.key("replicas");
    W.beginArray();
    for (const std::string &R : F.ReplicaHosts)
      W.value(R);
    W.endArray();
    W.endObject();
  }
  W.endArray();
  W.key("workloads");
  W.beginArray();
  for (const WorkloadSpec &L : Workloads)
    writeWorkloadJson(W, L);
  W.endArray();
  W.key("faults");
  Faults.writeJson(W);
  W.endObject();
  return W.take();
}

uint64_t GridSpec::hash() const { return fnv1a(canonicalJson()); }

std::string GridSpec::hashHex() const {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(hash()));
  return Buf;
}
