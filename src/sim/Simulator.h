//===- sim/Simulator.h - Discrete-event simulation kernel -----------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The discrete-event kernel every dgsim subsystem runs on.
///
/// Events are (time, sequence, callback) triples ordered by time with FIFO
/// tie-breaking, which makes runs deterministic.  Components schedule
/// closures; the kernel owns the clock and a root RandomEngine from which
/// components fork their private streams.
///
/// The event store is a slot pool with generation-tagged handles feeding an
/// indexed 4-ary min-heap: schedule() reuses a free slot and sifts one heap
/// entry in, cancel() validates the handle's generation and removes the
/// entry in place (O(log n), no tombstones), and pop pays no hash-table
/// traffic.  Closures are EventCallback values, so captures up to the
/// inline budget never touch the heap.  See DESIGN.md "Event kernel
/// internals".
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_SIM_SIMULATOR_H
#define DGSIM_SIM_SIMULATOR_H

#include "sim/EventCallback.h"
#include "support/Random.h"
#include "support/Units.h"

#include <cassert>
#include <cstdint>
#include <cstring>
#include <vector>

namespace dgsim {

/// Opaque handle identifying a scheduled event; usable to cancel it.
/// Encodes [periodic-tag | generation | slot]; a handle goes stale the
/// moment its event fires or is cancelled, and stale handles are rejected
/// by a generation check, so reused slots can never be cancelled through
/// old handles.
using EventId = uint64_t;

/// Invalid event handle.
inline constexpr EventId InvalidEventId = 0;

/// Discrete-event simulator: clock, event queue, and root PRNG.
class Simulator {
public:
  /// Creates a simulator whose PRNG tree is rooted at \p Seed.
  explicit Simulator(uint64_t Seed = 1);

  Simulator(const Simulator &) = delete;
  Simulator &operator=(const Simulator &) = delete;

  /// \returns the current simulation time in seconds.
  SimTime now() const { return Now; }

  /// Schedules \p Fn to run \p Delay seconds from now (Delay >= 0).
  /// \returns a handle that can cancel the event before it fires.
  EventId schedule(SimTime Delay, EventCallback Fn);

  /// Schedules \p Fn at absolute time \p Time (>= now()).
  EventId scheduleAt(SimTime Time, EventCallback Fn);

  /// Schedules a *daemon* event: background activity (monitoring ticks,
  /// load processes, traffic arrivals) that does not keep run() alive.
  /// run() returns when only daemon events remain pending.
  EventId scheduleDaemon(SimTime Delay, EventCallback Fn);

  /// Daemon event at an absolute time (>= now()).
  EventId scheduleDaemonAt(SimTime Time, EventCallback Fn);

  /// Cancels a pending event.  Cancelling an already-fired, cancelled, or
  /// invalid handle is a no-op.  \returns true if the event was pending.
  bool cancel(EventId Id);

  /// Runs until no non-daemon events remain or stop() is called.  Daemon
  /// events that fall before the last non-daemon event still fire.
  void run();

  /// Runs until the clock reaches \p Deadline (events at exactly Deadline
  /// still fire), the queue drains, or stop() is called.  The clock is
  /// advanced to \p Deadline if the queue drained earlier.
  void runUntil(SimTime Deadline);

  /// Requests that run()/runUntil() return after the current event.
  void stop() { StopRequested = true; }

  /// \returns the number of events executed so far.
  uint64_t eventsExecuted() const { return Executed; }

  /// \returns the number of events currently pending.
  size_t pendingEvents() const { return Heap.size(); }

  /// Forks an independent random stream for a component.  Fork order is
  /// deterministic, so construct components in a fixed order.
  RandomEngine forkRng() { return Rng.fork(); }

  /// Starts a periodic activity: \p Fn fires every \p Period seconds, first
  /// firing after \p Phase seconds.  The activity reschedules itself until
  /// cancelPeriodic() is called with the returned handle.  Periodic events
  /// are daemons: they never keep run() alive on their own.
  EventId schedulePeriodic(SimTime Period, EventCallback Fn,
                           SimTime Phase = 0.0);

  /// Stops a periodic activity created by schedulePeriodic().  Stale
  /// handles (already cancelled, or whose slot was since reused) are
  /// no-ops.  \returns true when a live activity was stopped.
  bool cancelPeriodic(EventId Id);

  /// Slot-pool introspection for leak regression tests: churn must recycle
  /// slots, not grow these.
  size_t eventSlotCount() const { return Slots.size(); }
  size_t periodicSlotCount() const { return Periodics.size(); }

private:
  /// One pooled event.  Dead slots sit on FreeSlots with a bumped Gen, so
  /// any outstanding handle to the previous occupant is stale.  The (time,
  /// seq) key lives in the heap entry, not here, so sift comparisons never
  /// dereference the slot pool.
  struct EventSlot {
    uint32_t Gen = 0;
    /// Position in Heap, or NoHeapPos when dead.  Maintained by every sift,
    /// which is what makes cancel() an O(log n) in-place removal.
    uint32_t HeapPos = 0;
    bool Daemon = false;
    EventCallback Fn;
  };

  /// Heap node: ordering key inline (cache-local comparisons), slot index
  /// for the payload.  Seq and slot pack into one word so the node is 16
  /// bytes and a 4-ary node's children span exactly one cache line; seq is
  /// unique, so comparing the packed word compares seq.
  struct HeapEntry {
    SimTime Time;
    uint64_t SeqSlot; // [bits 24..63: sequence][bits 0..23: slot index]
  };
  static constexpr uint32_t SlotBits = 24;
  static constexpr uint32_t slotOf(const HeapEntry &E) {
    return uint32_t(E.SeqSlot) & ((1u << SlotBits) - 1);
  }

  struct PeriodicState {
    SimTime Period = 0.0;
    uint32_t Gen = 0;
    bool Active = false;
    EventId PendingEvent = InvalidEventId;
    EventCallback Fn;
  };

  /// \returns true when \p A fires before \p B: (time, seq) order.
  /// Event times are non-negative, so the IEEE bit pattern orders like the
  /// double and the (time, seq) pair compares as one 128-bit integer —
  /// branch-free, which matters in the heap's min-child scans.
  static bool entryBefore(const HeapEntry &A, const HeapEntry &B) {
    auto Key = [](const HeapEntry &E) {
      uint64_t TimeBits;
      static_assert(sizeof(TimeBits) == sizeof(E.Time));
      std::memcpy(&TimeBits, &E.Time, sizeof(TimeBits));
      return (static_cast<unsigned __int128>(TimeBits) << 64) | E.SeqSlot;
    };
    return Key(A) < Key(B);
  }

  void siftUp(uint32_t Pos);
  void siftDown(uint32_t Pos);
  /// Removes the heap entry at \p Pos, restoring the heap property.
  void heapRemoveAt(uint32_t Pos);
  /// Removes the root entry (the dispatch hot path).  Equivalent to
  /// heapRemoveAt(0) but uses a hole descent: walk the minimum-child chain
  /// to a leaf without comparing against the tail filler (which is almost
  /// always a far-future event), then sift the filler up from there.
  void popMin();

  uint32_t allocEventSlot();
  void releaseEventSlot(uint32_t Slot);
  void reclaimPeriodic(uint32_t Slot);
  void firePeriodic(uint32_t Slot);
  EventId scheduleImpl(SimTime Time, bool Daemon, EventCallback Fn);
  void executeUntil(SimTime Deadline, bool StopWhenOnlyDaemons);

  SimTime Now = 0.0;
  uint64_t NextSeq = 0;
  uint64_t Executed = 0;
  bool StopRequested = false;
  /// Live non-daemon events; replaces comparing two hash-set sizes in the
  /// run() exit test.
  size_t NonDaemonPending = 0;
  std::vector<EventSlot> Slots;
  std::vector<uint32_t> FreeSlots;
  /// Indexed 4-ary min-heap ordered by (Time, Seq).  4-ary halves the tree
  /// depth vs binary and keeps a node's children adjacent in memory.
  std::vector<HeapEntry> Heap;
  std::vector<PeriodicState> Periodics;
  std::vector<uint32_t> FreePeriodics;
  RandomEngine Rng;
};

} // namespace dgsim

#endif // DGSIM_SIM_SIMULATOR_H
