//===- sim/PeriodicBatch.h - Same-period members behind one event ---------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One periodic kernel event driving any number of same-period members:
/// the batched sensors (SensorBatch) and host-load processes
/// (CpuLoadBatch) of large grids, where one event per member would
/// dominate the event heap.
///
/// Members tick in registration order at every batch tick, which keeps
/// runs deterministic.  Removal nulls the member's slot in O(1); the list
/// compacts, preserving registration order, once half of it is dead.  A
/// member type \p T provides `void tick()` and the back-pointers
/// `PeriodicBatch<T> *Batch` (null while unbatched) and `size_t BatchPos`,
/// all readable by the batch.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_SIM_PERIODICBATCH_H
#define DGSIM_SIM_PERIODICBATCH_H

#include "sim/Simulator.h"

#include <cassert>
#include <vector>

namespace dgsim {

template <class T> class PeriodicBatch {
public:
  /// Ticks every \p Period seconds, first \p Phase seconds after creation.
  PeriodicBatch(Simulator &Sim, SimTime Period, SimTime Phase = 0.0)
      : Sim(Sim), Period(Period) {
    assert(Period > 0.0 && "batches need a positive period");
    assert(Phase >= 0.0 && "batch phase must be non-negative");
    Periodic = Sim.schedulePeriodic(Period, [this] { tick(); }, Phase);
  }

  ~PeriodicBatch() {
    assert(size() == 0 && "batch destroyed while members still attached");
    Sim.cancelPeriodic(Periodic);
  }

  PeriodicBatch(const PeriodicBatch &) = delete;
  PeriodicBatch &operator=(const PeriodicBatch &) = delete;

  size_t size() const { return Members.size() - Dead; }
  SimTime period() const { return Period; }

  /// Attaches \p M; it first ticks at the next batch tick.
  void add(T &M) {
    assert(!M.Batch && "member already batch-driven");
    M.Batch = this;
    M.BatchPos = Members.size();
    Members.push_back(&M);
  }

  /// Detaches \p M; members call this from their destructors.
  void remove(T &M) {
    assert(M.Batch == this && Members[M.BatchPos] == &M &&
           "not a member of this batch");
    Members[M.BatchPos] = nullptr;
    M.Batch = nullptr;
    ++Dead;
    if (Dead * 2 > Members.size()) {
      // Compact, preserving registration order so tick order is unchanged.
      size_t Out = 0;
      for (T *Live : Members)
        if (Live) {
          Live->BatchPos = Out;
          Members[Out++] = Live;
        }
      Members.resize(Out);
      Dead = 0;
    }
  }

private:
  void tick() {
    // Members added during a tick first tick on the next one: index-based
    // iteration over the pre-tick size keeps the pass well defined even
    // if Members reallocates.
    size_t N = Members.size();
    for (size_t I = 0; I != N; ++I)
      if (T *M = Members[I])
        M->tick();
  }

  Simulator &Sim;
  SimTime Period;
  EventId Periodic = InvalidEventId;
  std::vector<T *> Members;
  size_t Dead = 0;
};

} // namespace dgsim

#endif // DGSIM_SIM_PERIODICBATCH_H
