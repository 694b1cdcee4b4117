//===- replica/ReplicaSelector.h - The replica selection server ------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The replica selection server of the paper's Fig 1 scenario:
///
///   1. the application checks whether the file is local (then accesses it
///      immediately);
///   2. otherwise the replica catalog returns all physical locations;
///   3. the selection server hands the live holders to a policy, which
///      queries the information server for the system factors of the
///      candidates it ranks;
///   4. the chosen location is returned for the GridFTP fetch.
///
/// select() monitors nothing itself: only the policy's queries touch or
/// create sensors, so a two-choice sample probes two paths, not every
/// holder.  scoreAll() reports every holder's factors and cost-model
/// score, which is exactly the content of the paper's Table 1 and of the
/// Fig 5 cost program display.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_REPLICA_REPLICASELECTOR_H
#define DGSIM_REPLICA_REPLICASELECTOR_H

#include "replica/CostModel.h"
#include "replica/ReplicaCatalog.h"
#include "replica/SelectionPolicy.h"
#include "support/Trace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dgsim {

/// Factors and score of one candidate, for reporting.
struct CandidateReport {
  Host *Candidate = nullptr;
  SystemFactors Factors;
  /// Cost-model score under the selector's reporting weights (computed for
  /// every policy so experiments can always compare against Eq. 1).
  double Score = 0.0;
};

/// Outcome of a selection.
struct SelectionResult {
  /// The chosen replica holder; null when no live, non-excluded replica
  /// exists (every holder is down or already tried) — the failover layer
  /// treats that as "give up".
  Host *Chosen = nullptr;
  /// True when the file was found at the client's own node (no transfer).
  bool LocalHit = false;
};

/// The selection server.
class ReplicaSelector {
public:
  /// \p Policy decides; \p ReportWeights parameterise the scores attached
  /// to the report (defaults to the paper's 80/10/10).
  ReplicaSelector(ReplicaCatalog &Catalog, InformationService &Info,
                  SelectionPolicy &Policy,
                  CostWeights ReportWeights = CostWeights());

  /// Runs the Fig 1 scenario for \p Lfn on behalf of a client at
  /// \p ClientNode.  The file must have at least one replica.  Holders
  /// that are down (host crashed or storage element offline) and holders
  /// in \p Exclude are skipped; when nothing survives the filter, the
  /// result carries a null Chosen.  Failover re-selection passes the
  /// sources it already tried via \p Exclude.
  ///
  /// With a HealthTracker attached, holders whose circuit breaker is
  /// Open (or HalfOpen with the probe slot taken) are filtered out as
  /// well — unless that would empty the candidate list, in which case
  /// the gate falls back to every live holder: an unhealthy replica
  /// still beats no replica.  The chosen holder is reported to the
  /// tracker via noteDispatch (taking the probe slot when half-open).
  ///
  /// Holders the filter removes are never queried, so their path
  /// monitors are neither created nor kept alive by this call.
  SelectionResult select(NodeId ClientNode, const std::string &Lfn,
                         const std::vector<const Host *> &Exclude = {});

  /// select() without the result copy: the returned reference points into
  /// selector-owned storage reused across calls, so the per-fetch path
  /// performs no allocation in steady state.  Valid until the next
  /// select()/selectRef() call — callers keep Chosen, not the reference.
  const SelectionResult &selectRef(NodeId ClientNode, const std::string &Lfn,
                                   const std::vector<const Host *> &Exclude =
                                       {});

  /// Scores every holder without choosing (the Fig 5 cost program and
  /// the Table 1 report): one information-service query per holder, in
  /// catalogue order — down holders included: their report is how an
  /// operator sees an outage.  Queries, and so monitors, every holder's
  /// path.
  std::vector<CandidateReport> scoreAll(NodeId ClientNode,
                                        const std::string &Lfn);

  /// Always 0; kept only for dgbench's per-layer report.
  uint64_t rankingRebinds() const { return 0; }

  SelectionPolicy &policy() { return Policy; }

  /// Attaches a trace log (TraceCategory::Selection events).
  void setTrace(TraceLog *Log) { Trace = Log; }

  /// A no-op (the log-trained predictors condition on file size alone);
  /// kept only because dgbench calls it.
  void setTransferHintStreams(unsigned) {}

  /// Attaches a site-health tracker: breaker-gated candidate filtering
  /// here, health-blended scoring in the policy.  Pass nullptr to detach.
  void setHealthTracker(HealthTracker *T);
  HealthTracker *healthTracker() { return Health; }

private:
  /// Sets the information service's query hint for a fetch of \p Lfn
  /// (only consulted while a transfer log is attached).
  void hintQueries(const std::string &Lfn);

  ReplicaCatalog &Catalog;
  InformationService &Info;
  SelectionPolicy &Policy;
  CostModel ReportModel;
  TraceLog *Trace = nullptr;
  HealthTracker *Health = nullptr;
  /// Reused result + filter scratch for the allocation-free selectRef().
  SelectionResult Result;
  std::vector<Host *> CandScratch;
  std::vector<Host *> AdmitScratch;
};

} // namespace dgsim

#endif // DGSIM_REPLICA_REPLICASELECTOR_H
