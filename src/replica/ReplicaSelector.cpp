//===- replica/ReplicaSelector.cpp ---------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "replica/ReplicaSelector.h"

#include "replica/HealthTracker.h"

#include <algorithm>
#include <cassert>

using namespace dgsim;

ReplicaSelector::ReplicaSelector(ReplicaCatalog &Catalog,
                                 InformationService &Info,
                                 SelectionPolicy &Policy,
                                 CostWeights ReportWeights)
    : Catalog(Catalog), Info(Info), Policy(Policy),
      ReportModel(ReportWeights) {}

void ReplicaSelector::setHealthTracker(HealthTracker *T) {
  Health = T;
  Policy.setHealthTracker(T);
}

SelectionResult
ReplicaSelector::select(NodeId ClientNode, const std::string &Lfn,
                        const std::vector<const Host *> &Exclude) {
  return selectRef(ClientNode, Lfn, Exclude);
}

const SelectionResult &
ReplicaSelector::selectRef(NodeId ClientNode, const std::string &Lfn,
                           const std::vector<const Host *> &Exclude) {
  SelectionResult &R = Result;
  R.Chosen = nullptr;
  R.LocalHit = false;
  const std::vector<Host *> &Holders = Catalog.locateRef(Lfn);
  assert(!Holders.empty() && "selecting a file with no replicas");
  hintQueries(Lfn);

  auto Excluded = [&Exclude](const Host *H) {
    return std::find(Exclude.begin(), Exclude.end(), H) != Exclude.end();
  };

  // Fig 1, step 1: a local copy short-circuits everything — but only a
  // copy that can actually be read (host up, storage online, not already
  // tried and failed).
  if (Host *Local = Catalog.replicaAt(Lfn, ClientNode)) {
    if (Local->available() && !Excluded(Local)) {
      R.Chosen = Local;
      R.LocalHit = true;
      if (Trace)
        Trace->record(Info.now(), TraceCategory::Selection,
                      Lfn + ": local hit at " + Local->name());
      return R;
    }
  }

  // Dead or excluded holders never enter the policy's candidate list:
  // failover must always land on a live replica.  Filtering reads only
  // availability, so a filtered-out holder is never monitored.
  std::vector<Host *> &Candidates = CandScratch;
  Candidates.clear();
  for (Host *H : Holders)
    if (H->available() && !Excluded(H))
      Candidates.push_back(H);
  if (Candidates.empty()) {
    if (Trace)
      Trace->record(Info.now(), TraceCategory::Selection,
                    Lfn + ": no live replica among " +
                        std::to_string(Holders.size()) + " holder(s)");
    return R; // Chosen stays null.
  }
  // Breaker gate: holders resting behind an Open breaker (or half-open
  // with the probe taken) are removed — unless that would leave nothing,
  // in which case an unhealthy replica still beats no replica and the
  // policy sees every live holder (health-demoted in its scoring).
  // Health is read on every call: allows()/noteDispatch() carry side
  // effects (lazy transitions, the half-open probe slot).
  if (Health) {
    std::vector<Host *> &Admitted = AdmitScratch;
    Admitted.clear();
    for (Host *H : Candidates)
      if (Health->allows(*H))
        Admitted.push_back(H);
    if (!Admitted.empty()) {
      if (Trace && Admitted.size() != Candidates.size())
        Trace->record(Info.now(), TraceCategory::Selection,
                      Lfn + ": breaker gate removed " +
                          std::to_string(Candidates.size() -
                                         Admitted.size()) +
                          " of " + std::to_string(Candidates.size()) +
                          " candidate(s)");
      Candidates.swap(Admitted);
    } else if (Trace) {
      Trace->record(Info.now(), TraceCategory::Selection,
                    Lfn + ": every breaker open; falling back to all " +
                        std::to_string(Candidates.size()) +
                        " live holder(s)");
    }
  }
  // The policy's own factor queries are the only monitoring a selection
  // triggers: it queries exactly the candidates it ranks.
  R.Chosen = Policy.choose(ClientNode, Candidates, Info);
  assert(R.Chosen && "policy returned no choice");
  if (Health)
    Health->noteDispatch(*R.Chosen);
  if (Trace)
    Trace->record(Info.now(), TraceCategory::Selection,
                  Lfn + ": " + Policy.name() + " chose " +
                      R.Chosen->name() + " of " +
                      std::to_string(Candidates.size()) + " candidates");
  return R;
}

std::vector<CandidateReport>
ReplicaSelector::scoreAll(NodeId ClientNode, const std::string &Lfn) {
  hintQueries(Lfn);
  std::vector<CandidateReport> Reports;
  for (Host *H : Catalog.locateRef(Lfn)) {
    CandidateReport C;
    C.Candidate = H;
    C.Factors = Info.query(ClientNode, *H);
    C.Score = ReportModel.score(C.Factors);
    Reports.push_back(C);
  }
  return Reports;
}

void ReplicaSelector::hintQueries(const std::string &Lfn) {
  // With transfer-log feedback on, every factor query that follows
  // conditions on the fetch being planned.  Without a log the hint is
  // never consulted, so this stays off the probe-only fast path entirely.
  if (Info.transferLog())
    Info.setQueryHint(Catalog.fileSize(Lfn));
}
