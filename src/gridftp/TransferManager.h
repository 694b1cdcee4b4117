//===- gridftp/TransferManager.h - Executes FTP/GridFTP transfers ----------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs transfers end to end: protocol startup (control dialogue, GSI,
/// mode negotiation), then fluid data flows on the network with endpoint
/// caps from the hosts involved.  Supports:
///
///   * plain FTP and GridFTP stream mode (one data connection),
///   * GridFTP MODE E with N parallel TCP streams,
///   * striped transfers (one stripe flow per source host, partial file
///     transfer of an equal partition each — the paper's future work §5).
///
/// While a transfer runs, the manager periodically refreshes each flow's
/// endpoint cap from the hosts' current CPU/disk state and mirrors the
/// payload rate into the disks' busy accounting, so monitoring sees grid
/// transfers in iostat and transfers slow down when hosts get busy.
///
/// Recovery semantics (see DESIGN.md "Fault model and recovery semantics"):
/// data-connection failures — injected, stall-timeout detected, or driven
/// by a host/storage fault — are retried per stripe with exponential
/// backoff on *consecutive* failures.  GridFTP retries resume from restart
/// markers (bytes already delivered are never re-sent); plain FTP restarts
/// the partition, and the wasted bytes are accounted in ResentBytes.  A
/// stripe that exhausts RetryPolicy::MaxAttempts, or a destination-host
/// crash, fails the whole transfer: the completion callback fires exactly
/// once with Status == Failed and the bytes delivered so far, so a
/// failover layer (ReplicaManager::fetch) can resume from another replica.
///
/// Overload control (see DESIGN.md "Overload control and graceful
/// degradation"): an optional AdmissionPolicy bounds the transfers in
/// flight per destination host.  Excess submissions wait in a FIFO
/// admission queue of configurable depth; overflow is shed by a
/// deterministic policy (reject newest / shed oldest) with Status == Shed
/// and zero bytes moved.  Per-transfer deadlines abort transfers — queued
/// or mid-flight — that can no longer finish in time (Status ==
/// DeadlineExpired).  With the default policy (MaxActivePerDestination ==
/// 0) none of this machinery runs.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_GRIDFTP_TRANSFERMANAGER_H
#define DGSIM_GRIDFTP_TRANSFERMANAGER_H

#include "gridftp/Protocol.h"
#include "host/Host.h"
#include "net/FlowNetwork.h"
#include "sim/Simulator.h"
#include "support/InlineFunction.h"
#include "support/Trace.h"

#include <deque>
#include <functional>
#include <limits>
#include <optional>
#include <unordered_map>
#include <vector>

namespace dgsim {

using TransferId = uint64_t;
inline constexpr TransferId InvalidTransferId = 0;

/// A byte range for partial file transfer (a GridFTP extension the paper
/// cites: "partial file transfer").
struct ByteRange {
  Bytes Offset = 0.0;
  Bytes Length = 0.0;
};

/// What to transfer and how.
struct TransferSpec {
  /// Source host (ignored when Stripes is non-empty).
  Host *Source = nullptr;
  /// Striped mode: every listed host sends a partition.
  std::vector<Host *> Stripes;
  /// Optional per-stripe split weights (same length as Stripes; positive).
  /// Empty means equal partitions.  Co-allocation downloaders use weights
  /// proportional to each source's predicted bandwidth.
  std::vector<double> StripeWeights;
  Host *Destination = nullptr;
  Bytes FileBytes = 0.0;
  /// When set, only this byte range of the file moves (GridFTP partial
  /// file transfer; requires a GridFTP protocol).
  std::optional<ByteRange> Range;
  TransferProtocol Protocol = TransferProtocol::GridFtpModeE;
  /// Parallel TCP streams per data mover (must be 1 for stream protocols).
  unsigned Streams = 1;
  /// Optional absolute sim-time deadline.  A transfer that has not
  /// delivered its last byte by this time — whether still queued or
  /// mid-flight — is aborted with Status == DeadlineExpired.  +inf (the
  /// default) disables the deadline.
  SimTime Deadline = std::numeric_limits<double>::infinity();
};

/// How a transfer ended.
enum class TransferStatus : uint8_t {
  /// Every payload byte landed.
  Completed,
  /// Given up: retry budget exhausted or the destination host crashed.
  /// DeliveredBytes says how much usable data landed before the failure
  /// (GridFTP restart markers persist it; a failover fetch resumes there).
  Failed,
  /// Load-shed by admission control before any byte moved: the
  /// destination's pending queue was full (or this transfer was displaced
  /// from it by the shedding policy).  DeliveredBytes is always zero.
  Shed,
  /// Aborted because TransferSpec::Deadline passed before completion.
  /// DeliveredBytes holds the resumable prefix, exactly like Failed.
  DeadlineExpired,
};

/// What to do when a destination's pending queue is full and another
/// transfer arrives.  Every policy is deterministic: the victim depends
/// only on the queue contents and the newcomer, never on wall clock,
/// hashing, or RNG state.
enum class ShedPolicy : uint8_t {
  /// Shed the newcomer; queued transfers keep their place.
  Reject,
  /// Shed the head of the queue (the transfer that has waited longest —
  /// it is the least likely to still meet a deadline) and queue the
  /// newcomer at the tail.
  ShedOldest,
};

/// Per-destination-host admission control.  Disabled by default — with
/// MaxActivePerDestination == 0 submissions start immediately and the
/// manager behaves exactly like the pre-admission code.
struct AdmissionPolicy {
  /// Transfers allowed in flight (startup or data phase) per destination
  /// host.  0 disables admission control entirely.
  unsigned MaxActivePerDestination = 0;
  /// Pending transfers a destination's queue holds before shedding.
  unsigned QueueDepth = 16;
  /// Which transfer to shed when the queue is full.
  ShedPolicy Shed = ShedPolicy::Reject;
};

/// Retry/timeout knobs.  The default policy is maximally conservative —
/// no stall timeout, unbounded reconnect attempts — so a manager without
/// fault injection behaves exactly like the pre-fault-model code: flows
/// stalled by a down link simply wait for the repair.
struct RetryPolicy {
  /// A stripe whose data connection moves no bytes for this long is torn
  /// down and retried (GridFTP's server-side transfer timeout).
  /// +inf disables stall detection.
  SimTime StallTimeout = std::numeric_limits<double>::infinity();
  /// Backoff before reconnect attempt k (counting consecutive failures
  /// without payload progress): 0 for the first, then
  /// min(BackoffBase * BackoffFactor^(k-2), BackoffMax) seconds on top of
  /// the TCP connect + control round trip.
  SimTime BackoffBase = 1.0;
  static constexpr double BackoffFactor = 2.0;
  SimTime BackoffMax = 64.0;
  /// Consecutive no-progress failures a stripe survives before the whole
  /// transfer is reported Failed.  0 means unbounded (retry forever).
  unsigned MaxAttempts = 0;
};

/// Completion report.
struct TransferResult {
  TransferId Id = InvalidTransferId;
  TransferProtocol Protocol = TransferProtocol::Ftp;
  TransferStatus Status = TransferStatus::Completed;
  /// Payload bytes requested (the range length for partial fetches).
  Bytes FileBytes = 0.0;
  /// Payload bytes that landed and count toward the file exactly once.
  /// Equals FileBytes on success; on failure, the resumable prefix.
  Bytes DeliveredBytes = 0.0;
  /// Payload bytes moved more than once (plain-FTP restarts re-send the
  /// partition's partial progress; GridFTP never re-sends).
  Bytes ResentBytes = 0.0;
  /// Data-connection failures survived.  GridFTP resumes from its restart
  /// markers; plain FTP starts the affected connection over.
  unsigned Restarts = 0;
  /// How many of those failures were stall-timeout detections.
  unsigned Timeouts = 0;
  SimTime StartTime = 0.0;
  /// Time spent in the destination's admission queue before the protocol
  /// startup began (0 when admission control is off or the transfer
  /// started immediately).  Shed transfers report their full wait here.
  SimTime QueueSeconds = 0.0;
  /// Protocol startup (control dialogue, auth, negotiation), seconds.
  SimTime StartupSeconds = 0.0;
  /// Data movement portion, seconds.
  SimTime DataSeconds = 0.0;
  SimTime EndTime = 0.0;

  bool succeeded() const { return Status == TransferStatus::Completed; }

  SimTime totalSeconds() const { return EndTime - StartTime; }

  /// Mean payload throughput over the whole transfer, bits/second.
  BitRate meanThroughput() const {
    SimTime T = totalSeconds();
    return T > 0.0 ? FileBytes * 8.0 / T : 0.0;
  }
};

/// Executes transfers on a FlowNetwork.
class TransferManager {
public:
  /// Inline-buffered callback: completion closures (failover state, slot
  /// addressing) fit the 48-byte buffer, so submitting and completing a
  /// transfer allocates no closure storage in steady state.
  using CompletionFn = InlineFunction<void(const TransferResult &), 48>;

  TransferManager(Simulator &Sim, FlowNetwork &Net);
  ~TransferManager();

  TransferManager(const TransferManager &) = delete;
  TransferManager &operator=(const TransferManager &) = delete;

  /// Starts a transfer; \p OnComplete fires exactly once when the last
  /// byte lands (Status == Completed) or the transfer gives up
  /// (Status == Failed).  \returns the transfer id.
  TransferId submit(const TransferSpec &Spec, CompletionFn OnComplete);

  /// Kills every live data connection of an in-flight transfer (failure
  /// injection: server crash, connection reset).  GridFTP transfers resume
  /// from their restart markers after a reconnect; plain FTP has no
  /// restart support, so the connection starts its partition over.
  /// No-op when the id is unknown or still in the startup phase.
  void injectFailure(TransferId Id);

  /// Reacts to a host fault: transfers sourcing a stripe from \p H lose
  /// that data connection (and recover per RetryPolicy once the host is
  /// reachable again); when \p MachineDown, transfers writing *into* \p H
  /// fail outright — the destination lost the partial file state.
  /// FaultInjector calls this on host crash (MachineDown) and on
  /// storage-element outage (source side only).
  void failHost(const Host &H, bool MachineDown);

  /// Aborts an in-flight transfer (the user pressed ^C on the client):
  /// data connections close, disk accounting is released, and the
  /// completion callback never fires.  \returns true when the id was
  /// active.
  bool cancel(TransferId Id);

  /// \returns the number of in-flight transfers (startup or data phase),
  /// not counting transfers waiting in an admission queue.
  size_t activeTransfers() const { return liveTransfers() - QueuedNow; }

  /// \returns transfers currently waiting in admission queues.
  size_t queuedTransfers() const { return QueuedNow; }

  /// \returns how many transfers this manager has completed successfully.
  uint64_t completedTransfers() const { return Completed; }

  /// \returns how many transfers were reported Failed.
  uint64_t failedTransfers() const { return Failed; }

  /// \returns how many transfers admission control shed.
  uint64_t totalShed() const { return TotalShed; }

  /// \returns how many transfers missed their deadline.
  uint64_t totalDeadlineExpired() const { return TotalDeadlineExpired; }

  /// \returns how many transfers ever waited in an admission queue
  /// (including ones later shed or displaced).
  uint64_t totalQueued() const { return TotalQueued; }

  /// \returns data-connection failures survived across all transfers
  /// (injected, stall-detected, or fault-driven).
  uint64_t totalRestarts() const { return TotalRestarts; }

  /// \returns stall timeouts detected across all transfers.
  uint64_t totalTimeouts() const { return TotalTimeouts; }

  /// The recovery policy applied to every transfer.  May be changed at any
  /// time; in-flight stripes pick the new values up on their next failure
  /// or watchdog tick.
  void setRetryPolicy(const RetryPolicy &P) {
    Policy = P;
    armWatchdog();
  }

  /// Scale mode for the periodic cap refresh: update every stripe's
  /// endpoint cap first and rebalance the network once, instead of
  /// re-solving the coupled flow component after every changed stripe —
  /// O(flows) per refresh instead of O(flows^2) when the grid couples
  /// into one big component.  Rates sampled during the sweep are then
  /// the pre-refresh rates (the unbatched sweep re-solves as it goes), a
  /// bounded observable difference, so this is opt-in like
  /// InformationServiceConfig::BatchSensors, not a default.
  void setBatchedRefresh(bool Enabled) { BatchedRefresh = Enabled; }

  /// Per-destination admission control.  Must be set before any transfer
  /// is submitted — the per-destination active counts are only maintained
  /// while a policy is in force.
  void setAdmissionPolicy(const AdmissionPolicy &A);

  /// The kernel this manager schedules on (recovery layers need delays).
  Simulator &sim() { return Sim; }

  /// Attaches a trace log (TraceCategory::Transfer events).  Pass nullptr
  /// to detach.  The log must outlive the manager.
  void setTrace(TraceLog *Log) { Trace = Log; }

  /// Observes every transfer that ran a data phase, firing once per
  /// Completed/Failed/DeadlineExpired completion with the original spec
  /// and the final result, before the submitter's completion callback.
  /// Shed transfers are not observed (no byte ever moved).  This is how
  /// the monitoring layer's TransferLog hears about completions without
  /// this library depending on it; the observer must not call back into
  /// the manager.  Pass nullptr to detach.
  using CompletionObserverFn =
      std::function<void(const TransferSpec &, const TransferResult &)>;
  void setCompletionObserver(CompletionObserverFn Fn) {
    Observer = std::move(Fn);
  }

  /// How often endpoint caps, disk accounting and the stall watchdog run.
  static constexpr SimTime RefreshPeriod = 1.0;

private:
  struct Stripe {
    Host *Source = nullptr;
    FlowId Flow = InvalidFlowId;
    BitRate AccountedRate = 0.0; // Mirrored into the disks.
    Bytes WireBytes = 0.0;       // This stripe's full partition on the wire.
    Bytes DeliveredWire = 0.0;   // Wire bytes safely landed (restart marker).
    Bytes AttemptWire = 0.0;     // Volume of the in-flight attempt.
    SimTime LastProgress = 0.0;  // Last time the flow was seen moving.
    unsigned ConsecutiveFailures = 0; // Resets when an attempt made progress.
    EventId RetryEvent = InvalidEventId; // Pending reconnect, if any.
  };

  struct ActiveTransfer {
    TransferSpec Spec;
    TransferResult Result;
    CompletionFn OnComplete;
    std::vector<Stripe> StripesLive;
    size_t StripesRemaining = 0;
    double PayloadPerWire = 1.0; // Payload bytes per wire byte (MODE E < 1).
    bool Queued = false;         // Waiting in an admission queue.
    EventId DeadlineEvent = InvalidEventId;
    uint32_t ActivePos = 0; // Index of this transfer's ActiveList entry.
  };

  /// Per-destination admission state.  Keyed by host pointer and only
  /// ever looked up (never iterated), so the unordered map cannot leak
  /// nondeterminism into the simulation.
  struct DestState {
    unsigned Active = 0;              // In startup or data phase.
    std::vector<TransferId> Pending;  // FIFO admission queue.
  };

  ActiveTransfer *findTransfer(TransferId Id);
  void releaseTransfer(TransferId Id);
  /// Drops dead ActiveList entries, keeping the live ones in id order.
  void compactActiveList();
  /// \returns transfers in ActiveList that are not yet released (queued
  /// ones included).
  size_t liveTransfers() const { return ActiveList.size() - DeadEntries; }
  /// Schedules the protocol startup for an admitted transfer.
  void startTransfer(TransferId Id);
  /// Queues a transfer whose destination is at its admission limit,
  /// shedding per AdmissionPolicy when the queue is full.
  void enqueueTransfer(TransferId Id, DestState &D);
  /// Sheds a queued (or just-submitted) transfer: the completion callback
  /// fires on a zero-delay event with Status == Shed.
  void shedTransfer(TransferId Id, const char *Reason);
  /// Deadline event: aborts the transfer with Status == DeadlineExpired.
  void onDeadline(TransferId Id);
  void beginData(TransferId Id);
  void startStripeFlow(TransferId Id, size_t StripeIdx, Bytes Volume);
  void onStripeDone(TransferId Id, size_t StripeIdx);
  /// Bookkeeping once stripe \p S's flow has ended (completed, or after
  /// the caller's cancelFlow): releases its disk load on both endpoints
  /// and its endpoint counts, and marks the stripe flowless.
  void tearDownStripe(const ActiveTransfer &T, Stripe &S);
  /// Tears down one stripe's data connection and schedules the retry (or
  /// fails the transfer when the retry budget is gone).  \p Timeout marks
  /// stall-watchdog detections for the counters.
  void failStripe(TransferId Id, size_t StripeIdx, bool Timeout);
  /// Gives up: releases everything and fires the callback with \p St
  /// (Failed, or DeadlineExpired for deadline aborts).  Works on queued
  /// transfers too — they simply have no flows to tear down.
  void failTransfer(TransferId Id, const char *Reason,
                    TransferStatus St = TransferStatus::Failed);
  void refreshCaps();
  /// Keeps a non-daemon heartbeat pending while transfers are in flight
  /// and the stall watchdog is on.  The cap-refresh periodic is a daemon
  /// and cannot keep run() alive; a stalled flow schedules no completion
  /// event and a fault plan's repair events are daemons too, so without
  /// this the kernel could drain mid-stall and leave transfers unresolved.
  void armWatchdog();
  BitRate endpointCap(const Host &Src, const Host &Dst,
                      bool CountSelf) const;
  unsigned activeReaders(const Host &H) const;
  unsigned activeWriters(const Host &H) const;
  /// Bookkeeping at every stripe-flow transition: a stripe's source host
  /// gains/loses a reader, the transfer's destination a writer.  Keeps
  /// ReadersByHost/WritersByHost equal to what a scan over every live
  /// stripe would count, so endpointCap() is O(1) and the periodic cap
  /// refresh is O(flows) instead of O(flows^2).
  void noteStripeUp(const Host &Src, const Host &Dst);
  void noteStripeDown(const Host &Src, const Host &Dst);
  /// Backoff component of the reconnect delay for the given consecutive
  /// failure count.
  SimTime backoffSeconds(unsigned ConsecutiveFailures) const;

  void trace(const char *Fmt, ...) const;

  Simulator &Sim;
  FlowNetwork &Net;
  RetryPolicy Policy;
  bool BatchedRefresh = false;
  AdmissionPolicy Admission;
  TraceLog *Trace = nullptr;
  CompletionObserverFn Observer;
  /// In-flight transfers live in a recycled slot pool; the per-second
  /// refresh iterates ActiveList, which is kept sorted by id (ids are
  /// monotonic, so appends preserve order and iteration matches the
  /// ordered map this replaced — same FP addition order, same results).
  /// A released transfer's entry is marked dead (slot DeadEntry) rather
  /// than erased, and the list is compacted in order once half of it is
  /// dead, so a release costs O(1) amortised instead of a vector shift.
  std::vector<ActiveTransfer> Slots;
  std::vector<uint32_t> FreeSlots;
  std::unordered_map<TransferId, uint32_t> IdToSlot;
  std::vector<std::pair<TransferId, uint32_t>> ActiveList;
  static constexpr uint32_t DeadEntry = ~0u;
  size_t DeadEntries = 0;
  std::unordered_map<const Host *, DestState> Destinations;
  /// Live-stripe endpoint counts (stripes whose Flow is live), maintained
  /// by noteStripeUp/noteStripeDown.  Looked up, never iterated, so the
  /// unordered layout cannot leak into results.  Entries are erased at
  /// zero: lookups stay O(1) against the *current* working set, not every
  /// host ever touched.
  std::unordered_map<const Host *, unsigned> ReadersByHost;
  std::unordered_map<const Host *, unsigned> WritersByHost;
  TransferId NextId = 1;
  size_t QueuedNow = 0;
  uint64_t Completed = 0;
  uint64_t Failed = 0;
  uint64_t TotalShed = 0;
  uint64_t TotalDeadlineExpired = 0;
  uint64_t TotalQueued = 0;
  uint64_t TotalRestarts = 0;
  uint64_t TotalTimeouts = 0;
  EventId RefreshHandle = InvalidEventId;
  EventId WatchdogEvent = InvalidEventId;
  /// Shed completions parked until their zero-delay event fires: the event
  /// captures only `this`, so shedding allocates no per-shed closure.
  /// FIFO matches event order (zero-delay events fire in schedule order).
  std::deque<std::pair<CompletionFn, TransferResult>> ShedDone;
  /// beginData() scratch (stripe source list and split weights), reused
  /// across transfers so the data phase starts allocation-free.
  std::vector<Host *> SourceScratch;
  std::vector<double> WeightScratch;
};

} // namespace dgsim

#endif // DGSIM_GRIDFTP_TRANSFERMANAGER_H
