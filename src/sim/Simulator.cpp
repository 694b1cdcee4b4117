//===- sim/Simulator.cpp --------------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"

#include <cassert>
#include <limits>

using namespace dgsim;

// Handle layout: [bit 63: periodic tag][bits 32..62: generation][bits 0..31:
// slot index].  Generations cycle through 1..GenMask and never hit 0, so no
// live handle ever equals InvalidEventId and a default-constructed slot
// (Gen = 0) matches no handle.
static constexpr EventId PeriodicTag = 1ULL << 63;
static constexpr uint32_t GenMask = 0x7fffffffu;
static constexpr uint32_t NoHeapPos = ~0u;

static uint32_t handleSlot(EventId Id) { return uint32_t(Id & 0xffffffffu); }
static uint32_t handleGen(EventId Id) { return uint32_t(Id >> 32) & GenMask; }
static uint32_t nextGen(uint32_t Gen) { return Gen == GenMask ? 1 : Gen + 1; }

Simulator::Simulator(uint64_t Seed) : Rng(Seed) {}

EventId Simulator::schedule(SimTime Delay, EventCallback Fn) {
  assert(Delay >= 0.0 && "cannot schedule into the past");
  return scheduleImpl(Now + Delay, /*Daemon=*/false, std::move(Fn));
}

EventId Simulator::scheduleAt(SimTime Time, EventCallback Fn) {
  return scheduleImpl(Time, /*Daemon=*/false, std::move(Fn));
}

EventId Simulator::scheduleDaemon(SimTime Delay, EventCallback Fn) {
  assert(Delay >= 0.0 && "cannot schedule into the past");
  return scheduleImpl(Now + Delay, /*Daemon=*/true, std::move(Fn));
}

EventId Simulator::scheduleDaemonAt(SimTime Time, EventCallback Fn) {
  return scheduleImpl(Time, /*Daemon=*/true, std::move(Fn));
}

uint32_t Simulator::allocEventSlot() {
  if (!FreeSlots.empty()) {
    uint32_t Slot = FreeSlots.back();
    FreeSlots.pop_back();
    return Slot;
  }
  uint32_t Slot = uint32_t(Slots.size());
  Slots.emplace_back();
  Slots.back().Gen = 1;
  return Slot;
}

void Simulator::releaseEventSlot(uint32_t Slot) {
  EventSlot &E = Slots[Slot];
  E.HeapPos = NoHeapPos;
  // Bumping the generation here is what invalidates every outstanding
  // handle to the event that just occupied this slot.
  E.Gen = nextGen(E.Gen);
  FreeSlots.push_back(Slot);
}

void Simulator::siftUp(uint32_t Pos) {
  HeapEntry E = Heap[Pos];
  while (Pos > 0) {
    uint32_t Parent = (Pos - 1) / 4;
    if (!entryBefore(E, Heap[Parent]))
      break;
    Heap[Pos] = Heap[Parent];
    Slots[slotOf(Heap[Pos])].HeapPos = Pos;
    Pos = Parent;
  }
  Heap[Pos] = E;
  Slots[slotOf(E)].HeapPos = Pos;
}

void Simulator::siftDown(uint32_t Pos) {
  HeapEntry E = Heap[Pos];
  const uint32_t Size = uint32_t(Heap.size());
  for (;;) {
    uint32_t First = 4 * Pos + 1;
    if (First >= Size)
      break;
    uint32_t Last = First + 4 < Size ? First + 4 : Size;
    uint32_t Min = First;
    for (uint32_t C = First + 1; C < Last; ++C)
      if (entryBefore(Heap[C], Heap[Min]))
        Min = C;
    if (!entryBefore(Heap[Min], E))
      break;
    Heap[Pos] = Heap[Min];
    Slots[slotOf(Heap[Pos])].HeapPos = Pos;
    Pos = Min;
  }
  Heap[Pos] = E;
  Slots[slotOf(E)].HeapPos = Pos;
}

void Simulator::popMin() {
  assert(!Heap.empty());
  HeapEntry Filler = Heap.back();
  Heap.pop_back();
  if (Heap.empty())
    return;
  const uint32_t Size = uint32_t(Heap.size());
  uint32_t Pos = 0;
  for (;;) {
    uint32_t First = 4 * Pos + 1;
    if (First >= Size)
      break;
    uint32_t Last = First + 4 < Size ? First + 4 : Size;
    uint32_t Min = First;
    for (uint32_t C = First + 1; C < Last; ++C)
      if (entryBefore(Heap[C], Heap[Min]))
        Min = C;
    Heap[Pos] = Heap[Min];
    Slots[slotOf(Heap[Pos])].HeapPos = Pos;
    Pos = Min;
  }
  Heap[Pos] = Filler;
  Slots[slotOf(Filler)].HeapPos = Pos;
  siftUp(Pos);
}

void Simulator::heapRemoveAt(uint32_t Pos) {
  assert(Pos < Heap.size());
  HeapEntry Last = Heap.back();
  Heap.pop_back();
  if (Pos == Heap.size())
    return; // Removed the tail entry; nothing to patch.
  Heap[Pos] = Last;
  Slots[slotOf(Last)].HeapPos = Pos;
  // The hole-filler can violate the heap property in either direction.
  siftDown(Pos);
  if (Slots[slotOf(Last)].HeapPos == Pos)
    siftUp(Pos);
}

EventId Simulator::scheduleImpl(SimTime Time, bool Daemon, EventCallback Fn) {
  assert(Time >= Now && "cannot schedule into the past");
  uint32_t Slot = allocEventSlot();
  EventSlot &E = Slots[Slot];
  E.Daemon = Daemon;
  E.Fn = std::move(Fn);
  if (!Daemon)
    ++NonDaemonPending;
  assert(Slot < (1u << SlotBits) && "too many concurrent pending events");
  assert(NextSeq < (1ULL << (64 - SlotBits)) && "event sequence exhausted");
  uint64_t SeqSlot = (NextSeq++ << SlotBits) | Slot;
  E.HeapPos = uint32_t(Heap.size());
  Heap.push_back(HeapEntry{Time, SeqSlot});
  siftUp(E.HeapPos);
  return (EventId(E.Gen) << 32) | Slot;
}

bool Simulator::cancel(EventId Id) {
  if (Id == InvalidEventId || (Id & PeriodicTag) != 0)
    return false;
  uint32_t Slot = handleSlot(Id);
  if (Slot >= Slots.size() || Slots[Slot].Gen != handleGen(Id))
    return false; // Stale handle: already fired, cancelled, or never issued.
  EventSlot &E = Slots[Slot];
  if (!E.Daemon)
    --NonDaemonPending;
  assert(E.HeapPos != NoHeapPos && "live generation outside the heap");
  heapRemoveAt(E.HeapPos);
  E.Fn.reset();
  releaseEventSlot(Slot);
  return true;
}

void Simulator::executeUntil(SimTime Deadline, bool StopWhenOnlyDaemons) {
  StopRequested = false;
  while (!Heap.empty() && !StopRequested) {
    if (StopWhenOnlyDaemons && NonDaemonPending == 0)
      break;
    const HeapEntry Top = Heap[0];
    if (Top.Time > Deadline)
      break;
    popMin();
    EventSlot &E = Slots[slotOf(Top)];
    assert(Top.Time >= Now && "event queue went backwards");
    Now = Top.Time;
    ++Executed;
    if (!E.Daemon)
      --NonDaemonPending;
    // Detach the closure and retire the slot before invoking: the callback
    // may schedule (reusing this slot) or cancel its own now-stale handle,
    // and must observe this event as already gone.
    EventCallback Fn = std::move(E.Fn);
    releaseEventSlot(slotOf(Top));
    Fn();
  }
}

void Simulator::run() {
  executeUntil(std::numeric_limits<double>::infinity(),
               /*StopWhenOnlyDaemons=*/true);
}

void Simulator::runUntil(SimTime Deadline) {
  assert(Deadline >= Now && "deadline already passed");
  executeUntil(Deadline, /*StopWhenOnlyDaemons=*/false);
  if (!StopRequested && Now < Deadline)
    Now = Deadline;
}

EventId Simulator::schedulePeriodic(SimTime Period, EventCallback Fn,
                                    SimTime Phase) {
  assert(Period > 0.0 && "periodic activity needs a positive period");
  assert(Phase >= 0.0 && "negative phase");
  uint32_t Slot;
  if (!FreePeriodics.empty()) {
    Slot = FreePeriodics.back();
    FreePeriodics.pop_back();
  } else {
    Slot = uint32_t(Periodics.size());
    Periodics.emplace_back();
    Periodics.back().Gen = 1;
  }
  PeriodicState &P = Periodics[Slot];
  P.Period = Period;
  P.Active = true;
  P.Fn = std::move(Fn);
  P.PendingEvent = scheduleDaemon(Phase, [this, Slot] { firePeriodic(Slot); });
  return PeriodicTag | (EventId(P.Gen) << 32) | Slot;
}

bool Simulator::cancelPeriodic(EventId Id) {
  if (Id == InvalidEventId)
    return false; // Never-scheduled handle (e.g. a batch-driven sensor).
  assert((Id & PeriodicTag) != 0 && "not a periodic handle");
  uint32_t Slot = handleSlot(Id);
  assert(Slot < Periodics.size() && "unknown periodic handle");
  PeriodicState &P = Periodics[Slot];
  if (P.Gen != handleGen(Id) || !P.Active)
    return false; // Stale handle (slot since reclaimed/reused): no-op.
  P.Active = false;
  if (P.PendingEvent != InvalidEventId) {
    cancel(P.PendingEvent);
    P.PendingEvent = InvalidEventId;
  }
  // Safe even when this activity is mid-fire: firePeriodic runs the closure
  // from a moved-out local and re-checks the generation afterwards.
  reclaimPeriodic(Slot);
  return true;
}

void Simulator::reclaimPeriodic(uint32_t Slot) {
  PeriodicState &P = Periodics[Slot];
  P.Fn.reset();
  P.Gen = nextGen(P.Gen);
  FreePeriodics.push_back(Slot);
}

void Simulator::firePeriodic(uint32_t Slot) {
  PeriodicState &P = Periodics[Slot];
  assert(P.Active && "trampoline fired for an inactive periodic");
  uint32_t Gen = P.Gen;
  // Re-arm by rescheduling the two-word trampoline; the user closure is
  // reused tick after tick, never re-allocated.
  P.PendingEvent =
      scheduleDaemon(P.Period, [this, Slot] { firePeriodic(Slot); });
  // Run the closure from a local: the callback may start new periodics
  // (reallocating Periodics) or cancel this one (reclaiming the slot), so
  // neither the state reference nor the in-slot closure may be live across
  // the call.
  EventCallback Body = std::move(P.Fn);
  Body();
  PeriodicState &After = Periodics[Slot];
  if (After.Gen == Gen && After.Active)
    After.Fn = std::move(Body); // Still ours: park the closure again.
  // Otherwise the callback cancelled this activity (the slot may even have
  // been reused already); the closure dies with Body.
}
