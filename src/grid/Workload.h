//===- grid/Workload.h - Declarative open-loop fetch workloads -------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A WorkloadSpec is a pure value describing an open-loop stream of fetch
/// requests: seeded Poisson arrivals over a window, each arrival picking a
/// client host uniformly and a logical file from a (optionally Zipf-
/// skewed) popularity distribution over the declared catalog — the file-
/// size mixture is whatever sizes those files were declared with.
///
/// Open loop means arrivals do not wait for earlier fetches: offered load
/// is set by the spec, not by the system's completion rate, which is
/// exactly what overload experiments need to drive a grid past
/// saturation.
///
/// Workloads ride inside GridSpec (serialized into the canonical JSON and
/// hash) and DataGrid::buildFrom expands them through a RandomEngine
/// forked off the kernel in declaration order, so every grid built from
/// one spec replays them bit-identically.  The WorkloadDriver schedules
/// the expanded arrivals as non-daemon kernel events and runs each fetch
/// through a ReplicaManager, aggregating the counters the overload
/// benches report.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_GRID_WORKLOAD_H
#define DGSIM_GRID_WORKLOAD_H

#include "replica/ReplicaManager.h"
#include "support/Random.h"

#include <deque>
#include <limits>
#include <string>
#include <vector>

namespace dgsim {

namespace json {
class JsonWriter;
}

class DataGrid;

/// One open-loop Poisson request stream.
struct WorkloadSpec {
  std::string Name = "load";
  /// Arrivals occupy [Start, Start + Duration).
  SimTime Start = 0.0;
  SimTime Duration = 300.0;
  /// Mean arrival rate (Poisson, so interarrivals are exponential).
  double ArrivalsPerSecond = 1.0;
  /// Destination hosts, drawn uniformly per arrival.
  std::vector<std::string> Clients;
  /// Logical files to fetch.  Sizes come from the catalog declaration.
  std::vector<std::string> Lfns;
  /// Popularity skew across Lfns in declaration order (rank 1 = first).
  /// 0 = uniform.
  double ZipfExponent = 0.0;
};

/// One expanded request: indexes into the spec's Clients/Lfns lists.
struct WorkloadArrival {
  SimTime Time = 0.0;
  uint32_t ClientIdx = 0;
  uint32_t LfnIdx = 0;
};

/// Expands \p W into concrete arrivals using \p Rng directly (callers
/// fork one child per workload, in declaration order, exactly like
/// FaultPlan::expand).  Sorted by time by construction.
std::vector<WorkloadArrival> expandWorkload(const WorkloadSpec &W,
                                            RandomEngine &Rng);

/// Serializes one workload object for GridSpec::canonicalJson().
void writeWorkloadJson(json::JsonWriter &W, const WorkloadSpec &S);

/// Counters a driven workload accumulates.  Every arrival resolves into
/// exactly one of Completed / Failed / Shed / DeadlineExpired (local hits
/// count as Completed).
struct WorkloadCounters {
  uint64_t Arrivals = 0;
  uint64_t Completed = 0;
  uint64_t Failed = 0;
  uint64_t Shed = 0;
  uint64_t DeadlineExpired = 0;
  uint64_t LocalHits = 0;
  /// Payload bytes of *successful* fetches — the goodput numerator.
  Bytes GoodputBytes = 0.0;
  /// Bytes moved that bought nothing: delivered bytes of unsuccessful
  /// fetches plus every re-sent byte.
  Bytes WastedBytes = 0.0;
  /// Admission-queue wait of every resolved fetch, seconds (one entry
  /// per arrival, resolution order — deterministic).
  std::vector<double> QueueWaitSeconds;
  /// End-to-end sojourn of successful fetches, seconds.
  std::vector<double> SojournSeconds;

  uint64_t resolved() const {
    return Completed + Failed + Shed + DeadlineExpired;
  }
};

/// Replays expanded workloads against a grid's replica stack.
class WorkloadDriver {
public:
  /// Drives fetches through \p Mgr on \p Grid's kernel.  Both must
  /// outlive the driver.
  WorkloadDriver(DataGrid &Grid, ReplicaManager &Mgr);

  /// Starts the grid's workload \p Index (GridSpec::Workloads order):
  /// each arrival is a non-daemon event that runs one fetch with
  /// \p FetchOpts (per-request deadlines ride in there) and schedules its
  /// successor, so a million-arrival stream keeps exactly one pending
  /// event instead of a million.  Call once per workload, before
  /// sim().run().
  void start(size_t Index, const FetchOptions &FetchOpts = FetchOptions());

  /// Caps the per-fetch sample vectors (QueueWaitSeconds/SojournSeconds)
  /// at roughly \p Cap entries each: when a vector fills, the retention
  /// stride doubles and every other kept sample is dropped, so the kept
  /// samples stay evenly spaced over the whole run.  0 (the default)
  /// keeps every sample.  Call before start().
  void setSampleCap(size_t Cap) { SampleCap = Cap; }

  const WorkloadCounters &counters() const { return Counters; }

private:
  /// Decimation state for one bounded sample vector.
  struct SampleStream {
    uint64_t Seen = 0;
    uint64_t Stride = 1;
  };

  /// One started workload: what every arrival of the stream reads.  The
  /// spec is the grid's own, fixed once the grid is built.  Arrival events
  /// capture only [this, stream, position], which fits EventCallback's
  /// inline buffer, so a driven stream schedules without allocating.
  struct ArrivalStream {
    const WorkloadSpec &Spec;
    size_t Index = 0;
    FetchOptions Fetch;
  };

  void scheduleArrival(const ArrivalStream &S, size_t Pos);
  void runArrival(const ArrivalStream &S, const WorkloadArrival &A);
  void pushSample(std::vector<double> &V, SampleStream &S, double X);

  DataGrid &Grid;
  ReplicaManager &Mgr;
  /// Started streams; a deque so their addresses survive later start()s.
  std::deque<ArrivalStream> Streams;
  WorkloadCounters Counters;
  size_t SampleCap = 0;
  SampleStream QueueStream;
  SampleStream SojournStream;
};

} // namespace dgsim

#endif // DGSIM_GRID_WORKLOAD_H
