//===- grid/Workload.cpp -----------------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "grid/Workload.h"

#include "grid/DataGrid.h"
#include "support/Json.h"

#include <cassert>
#include <optional>

using namespace dgsim;

std::vector<WorkloadArrival> dgsim::expandWorkload(const WorkloadSpec &W,
                                                   RandomEngine &Rng) {
  assert(W.ArrivalsPerSecond > 0.0 && "workloads need a positive rate");
  assert(!W.Clients.empty() && "workloads need at least one client host");
  assert(!W.Lfns.empty() && "workloads need at least one file");
  std::vector<WorkloadArrival> Arrivals;
  double MeanGap = 1.0 / W.ArrivalsPerSecond;
  std::optional<ZipfTable> Popularity;
  if (W.ZipfExponent > 0.0)
    Popularity.emplace(W.Lfns.size(), W.ZipfExponent);
  // Fixed draw order per arrival — gap, client, file — so inserting an
  // arrival never reshuffles the stream behind it.
  SimTime T = W.Start + Rng.exponential(MeanGap);
  while (T < W.Start + W.Duration) {
    WorkloadArrival A;
    A.Time = T;
    A.ClientIdx = static_cast<uint32_t>(Rng.uniformInt(W.Clients.size()));
    A.LfnIdx = static_cast<uint32_t>(
        Popularity ? Popularity->draw(Rng) : Rng.uniformInt(W.Lfns.size()));
    Arrivals.push_back(A);
    T += Rng.exponential(MeanGap);
  }
  return Arrivals;
}

void dgsim::writeWorkloadJson(json::JsonWriter &W, const WorkloadSpec &S) {
  W.beginObject();
  W.member("name", S.Name);
  W.member("start", S.Start);
  W.member("duration", S.Duration);
  W.member("arrivals_per_second", S.ArrivalsPerSecond);
  W.key("clients");
  W.beginArray();
  for (const std::string &C : S.Clients)
    W.value(C);
  W.endArray();
  W.key("lfns");
  W.beginArray();
  for (const std::string &L : S.Lfns)
    W.value(L);
  W.endArray();
  W.member("zipf_exponent", S.ZipfExponent);
  W.endObject();
}

WorkloadDriver::WorkloadDriver(DataGrid &Grid, ReplicaManager &Mgr)
    : Grid(Grid), Mgr(Mgr) {}

void WorkloadDriver::start(size_t Index, const FetchOptions &FetchOpts) {
  const WorkloadSpec &Spec = Grid.spec().Workloads.at(Index);
  if (Grid.workloadArrivals(Index).empty())
    return;
  Streams.push_back({Spec, Index, FetchOpts});
  scheduleArrival(Streams.back(), 0);
}

void WorkloadDriver::scheduleArrival(const ArrivalStream &S, size_t Pos) {
  // Open loop: every arrival fires at its own (pre-expanded) time, whatever
  // the state of earlier fetches.  Arrivals chain — each one schedules the
  // next before running its fetch — so the stream holds one pending event,
  // not one per arrival.  Non-daemon, so run() drains the whole stream.
  const ArrivalStream *Stream = &S;
  Grid.sim().scheduleAt(
      Grid.workloadArrivals(S.Index)[Pos].Time, [this, Stream, Pos] {
        const std::vector<WorkloadArrival> &Arr =
            Grid.workloadArrivals(Stream->Index);
        if (Pos + 1 < Arr.size())
          scheduleArrival(*Stream, Pos + 1);
        runArrival(*Stream, Arr[Pos]);
      });
}

void WorkloadDriver::runArrival(const ArrivalStream &S,
                                const WorkloadArrival &A) {
  Host *Client = Grid.findHost(S.Spec.Clients[A.ClientIdx]);
  assert(Client && "workload client host disappeared");
  const std::string &Lfn = S.Spec.Lfns[A.LfnIdx];
  ++Counters.Arrivals;
  Mgr.fetch(Lfn, *Client, S.Fetch, [this](const FetchResult &R) {
    pushSample(Counters.QueueWaitSeconds, QueueStream, R.QueueSeconds);
    if (R.Succeeded) {
      ++Counters.Completed;
      if (R.LocalHit)
        ++Counters.LocalHits;
      Counters.GoodputBytes += R.FileBytes;
      Counters.WastedBytes += R.ResentBytes;
      pushSample(Counters.SojournSeconds, SojournStream,
                 R.EndTime - R.StartTime);
    } else {
      if (R.Shed)
        ++Counters.Shed;
      else if (R.DeadlineExpired)
        ++Counters.DeadlineExpired;
      else
        ++Counters.Failed;
      // Partial progress of a dead fetch moved bytes that bought nothing.
      Counters.WastedBytes += R.DeliveredBytes + R.ResentBytes;
    }
  });
}

void WorkloadDriver::pushSample(std::vector<double> &V, SampleStream &S,
                                double X) {
  if (SampleCap == 0) {
    V.push_back(X);
    return;
  }
  if (S.Seen++ % S.Stride != 0)
    return;
  if (V.size() >= SampleCap) {
    // Full: halve the resolution.  Keeping the even positions preserves
    // even spacing across everything seen so far.
    size_t Half = V.size() / 2;
    for (size_t I = 0; I != Half; ++I)
      V[I] = V[2 * I];
    V.resize(Half);
    S.Stride *= 2;
    // This sample's index may no longer sit on the widened stride; keep it
    // anyway — one extra sample per halving is noise at these sizes.
  }
  V.push_back(X);
}
