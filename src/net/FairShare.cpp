//===- net/FairShare.cpp ---------------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Event-driven progressive filling.  All active demands rise together at a
// speed proportional to their weight; the shared progress variable is the
// *fill level* L, so an active demand's rate is always Weight * L.  Two
// kinds of event can stop a demand:
//
//   * its cap binds, at the statically known level Cap / Weight, or
//   * a resource it uses saturates, at level L + Residual / ActiveWeight.
//
// Cap levels never move, so cap events form one run sorted by (level, id),
// built once during classification; a cap event whose demand froze first
// is skipped without touching any heap.  Resource events live in a
// min-heap, and the drain merges the two by the same order.  A resource's
// level moves whenever a freeze changes its active weight, so each event
// (a cap binding or a resource saturating) first freezes every demand it
// stops and only then re-keys each resource those freezes touched: one
// push per resource per event, at its final residual and weight.  Pushes
// from earlier events go stale; a per-resource version counter
// invalidates them lazily (pop, compare, drop), the same trick
// event-driven simulators use for cancellable timers.  Residuals are
// settled lazily too: a resource's residual is only brought forward to the
// current level when its active weight is about to change, which keeps the
// per-freeze cost proportional to the demand's own footprint.
//
// Neither device changes which event fires when.  Every event that can
// still fire carries the level, id and version it would carry if the
// solver pushed one event per (frozen demand, resource) listing: within
// one event only the last such push per resource escapes invalidation,
// and it is computed from the same settled residual and the same weight,
// reached by the same subtractions in the same order.  Ids are unique
// among live events, so the merged drain pops them in the same order.
//
//===----------------------------------------------------------------------===//

#include "net/FairShare.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

using namespace dgsim;

void FairShareWorkspace::clear() {
  ResCapacity.clear();
  DemandRes.clear();
  DemandOffset.clear();
  DemandCap.clear();
  DemandWeight.clear();
}

uint32_t FairShareWorkspace::addResource(double Capacity) {
  assert(Capacity >= 0.0 && "negative resource capacity");
  ResCapacity.push_back(Capacity);
  return static_cast<uint32_t>(ResCapacity.size() - 1);
}

void FairShareWorkspace::setResourceCapacity(uint32_t Res, double Capacity) {
  assert(Res < ResCapacity.size() && "resource index out of range");
  assert(Capacity >= 0.0 && "negative resource capacity");
  ResCapacity[Res] = Capacity;
}

uint32_t FairShareWorkspace::beginDemand(double Cap, double Weight) {
  assert(Weight >= 1.0 && "demand weight must be at least 1");
  assert(!(Cap < 0.0) && "negative demand cap");
  DemandCap.push_back(Cap);
  DemandWeight.push_back(Weight);
  DemandOffset.push_back(static_cast<uint32_t>(DemandRes.size()));
  return static_cast<uint32_t>(DemandCap.size() - 1);
}

void FairShareWorkspace::demandUses(uint32_t Res) {
  assert(!DemandCap.empty() && "demandUses before beginDemand");
  assert(Res < ResCapacity.size() && "resource index out of range");
  DemandRes.push_back(Res);
}

/// Drain order, of the heap and the cap run alike: fill level, ties broken
/// by Id.  The tie-break is a determinism contract, not a heuristic: with
/// it, the pop order of any subset of demands/resources is a pure function
/// of their *relative* indices, never of how the heap happens to arrange
/// equal levels, so solving a connected component alone is bit-identical
/// to solving it inside a merged problem (demand ids always precede
/// resource ids, and sub-problem assembly preserves relative order within
/// each class).
bool FairShareWorkspace::eventAfter(const FillEvent &A, const FillEvent &B) {
  return A.Level > B.Level || (A.Level == B.Level && A.Id > B.Id);
}

void FairShareWorkspace::pushEvent(double Level, uint32_t Id,
                                   uint32_t Version) {
  ++FillEventCount;
  Heap.push_back(FillEvent{Level, Id, Version});
  std::push_heap(Heap.begin(), Heap.end(), eventAfter);
}

FairShareWorkspace::FillEvent FairShareWorkspace::popEvent() {
  std::pop_heap(Heap.begin(), Heap.end(), eventAfter);
  FillEvent Ev = Heap.back();
  Heap.pop_back();
  return Ev;
}

/// Brings the resource's residual forward to \p Level: consumption between
/// settles is ActiveWeight * (level delta) because every active demand on
/// the resource rises at its weight.
void FairShareWorkspace::settleResource(uint32_t R, double Level) {
  ResourceState &S = ResState[R];
  double Dl = Level - S.Level;
  if (Dl > 0.0) {
    S.Residual -= S.ActiveWeight * Dl;
    if (S.Residual < 0.0)
      S.Residual = 0.0; // FP residue only; consumption is exact otherwise.
    S.Level = Level;
  }
}

void FairShareWorkspace::freezeDemand(uint32_t D, double Level, bool AtCap) {
  Frozen[D] = 1;
  --ActiveCount;
  Rate[D] = AtCap ? DemandCap[D] : DemandWeight[D] * Level;
  uint32_t End = D + 1 < DemandOffset.size()
                     ? DemandOffset[D + 1]
                     : static_cast<uint32_t>(DemandRes.size());
  for (uint32_t I = DemandOffset[D]; I != End; ++I) {
    uint32_t R = DemandRes[I];
    settleResource(R, Level);
    ResourceState &S = ResState[R];
    S.ActiveWeight -= DemandWeight[D];
    ++S.Version;
    if (!S.Touched) {
      S.Touched = 1;
      Touched.push_back(R);
    }
  }
}

/// Pushes one saturation event per resource the last freezes re-weighed,
/// at the level its final residual and active weight reach.
void FairShareWorkspace::rekeyTouched(double Level) {
  for (uint32_t R : Touched) {
    ResourceState &S = ResState[R];
    S.Touched = 0;
    if (!S.Saturated && S.ActiveWeight > 0.0)
      pushEvent(Level + std::max(0.0, S.Residual) / S.ActiveWeight,
                static_cast<uint32_t>(DemandCap.size()) + R, S.Version);
  }
  Touched.clear();
}

void FairShareWorkspace::solve() {
  const double Inf = std::numeric_limits<double>::infinity();
  const size_t NumRes = ResCapacity.size();
  const size_t NumDem = DemandCap.size();

  Rate.assign(NumDem, 0.0);
  Frozen.assign(NumDem, 0);
  ResState.resize(NumRes);
  for (size_t R = 0; R != NumRes; ++R)
    ResState[R] = ResourceState{ResCapacity[R], 0.0, 0.0, 0, 0, 0};
  ResDemOffset.assign(NumRes + 1, 0);
  Heap.clear();
  CapRun.clear();

  auto listingEnd = [&](uint32_t D) {
    return D + 1 < NumDem ? DemandOffset[D + 1]
                          : static_cast<uint32_t>(DemandRes.size());
  };

  // Classify demands; accumulate per-resource active weight.
  ActiveCount = 0;
  for (uint32_t D = 0; D != NumDem; ++D) {
    if (DemandOffset[D] == listingEnd(D)) {
      // Nothing contends: the demand gets its cap outright (possibly +inf
      // for an uncapped local transfer, which callers treat as "instant").
      Rate[D] = DemandCap[D];
      Frozen[D] = 1;
      continue;
    }
    if (DemandCap[D] <= 0.0) {
      Frozen[D] = 1; // Frozen at zero (e.g. host completely busy).
      continue;
    }
    ++ActiveCount;
    for (uint32_t I = DemandOffset[D]; I != listingEnd(D); ++I)
      ResState[DemandRes[I]].ActiveWeight += DemandWeight[D];
    if (std::isfinite(DemandCap[D]))
      CapRun.push_back(FillEvent{DemandCap[D] / DemandWeight[D], D, 0});
  }
  std::sort(CapRun.begin(), CapRun.end(),
            [](const FillEvent &A, const FillEvent &B) {
              return eventAfter(B, A);
            });
  FillEventCount += CapRun.size();

  // Transpose to CSR demands-per-resource (active demands only), so a
  // saturation event can enumerate exactly the demands it freezes.
  for (uint32_t D = 0; D != NumDem; ++D)
    if (!Frozen[D])
      for (uint32_t I = DemandOffset[D]; I != listingEnd(D); ++I)
        ++ResDemOffset[DemandRes[I] + 1];
  for (size_t R = 0; R != NumRes; ++R)
    ResDemOffset[R + 1] += ResDemOffset[R];
  ResDem.resize(DemandRes.size());
  {
    // Fill using the offset array as a moving cursor, then restore it.
    for (uint32_t D = 0; D != NumDem; ++D)
      if (!Frozen[D])
        for (uint32_t I = DemandOffset[D]; I != listingEnd(D); ++I)
          ResDem[ResDemOffset[DemandRes[I]]++] = D;
    for (size_t R = NumRes; R != 0; --R)
      ResDemOffset[R] = ResDemOffset[R - 1];
    ResDemOffset[0] = 0;
  }

  for (uint32_t R = 0; R != NumRes; ++R)
    if (ResState[R].ActiveWeight > 0.0)
      pushEvent(ResState[R].Residual / ResState[R].ActiveWeight,
                static_cast<uint32_t>(NumDem) + R, 0);

  // Drain events in level order, merging the cap run with the heap.
  size_t NextCap = 0;
  while (ActiveCount != 0) {
    bool CapsLeft = NextCap != CapRun.size();
    if (!CapsLeft && Heap.empty())
      break;
    if (CapsLeft &&
        (Heap.empty() || eventAfter(Heap.front(), CapRun[NextCap]))) {
      const FillEvent &Ev = CapRun[NextCap++];
      if (Frozen[Ev.Id])
        continue;
      freezeDemand(Ev.Id, Ev.Level, /*AtCap=*/true);
      rekeyTouched(Ev.Level);
      continue;
    }
    FillEvent Ev = popEvent();
    uint32_t R = Ev.Id - static_cast<uint32_t>(NumDem);
    ResourceState &S = ResState[R];
    if (Ev.Version != S.Version || S.ActiveWeight <= 0.0)
      continue; // Stale: a freeze changed this resource since the push.
    settleResource(R, Ev.Level);
    S.Saturated = 1;
    S.Residual = 0.0;
    for (uint32_t I = ResDemOffset[R]; I != ResDemOffset[R + 1]; ++I) {
      uint32_t D = ResDem[I];
      if (!Frozen[D])
        freezeDemand(D, Ev.Level, /*AtCap=*/false);
    }
    assert(S.ActiveWeight <= 1e-9 && "saturated resource kept demands");
    rekeyTouched(Ev.Level);
  }

  // No finite constraint remains (unreachable when every demand touches a
  // finite-capacity resource, but kept as the documented contract).
  if (ActiveCount != 0)
    for (uint32_t D = 0; D != NumDem; ++D)
      if (!Frozen[D])
        Rate[D] = Inf;
}

std::vector<double>
dgsim::solveMaxMinFairShare(const std::vector<double> &Capacities,
                            const std::vector<FairShareDemand> &Demands) {
  FairShareWorkspace Ws;
  Ws.clear();
  for (double C : Capacities) {
    assert(C > 0.0 && "resources need positive capacity");
    Ws.addResource(C);
  }
  for (const FairShareDemand &D : Demands) {
    Ws.beginDemand(D.Cap, D.Weight);
    for (uint32_t R : D.Resources) {
      assert(R < Capacities.size() && "resource index out of range");
      Ws.demandUses(R);
    }
  }
  Ws.solve();
  return Ws.rates();
}
