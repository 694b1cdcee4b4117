//===- net/FairShare.h - Max-min fair rate allocation ----------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Progressive-filling (water-filling) max-min fair allocator.
///
/// Given resources (directed link channels) with finite capacities and
/// demands (flows) that each consume a set of resources up to an individual
/// rate cap, the solver raises all rates together until each flow is frozen
/// either by its cap or by a saturated resource.  The result is the unique
/// max-min fair allocation, the standard fluid abstraction of TCP-fair
/// bandwidth sharing.
///
/// A flow's *weight* counts how many TCP streams it bundles: GridFTP MODE E
/// with N streams takes an N-times share at a shared bottleneck, which is
/// the second reason parallel data transfer wins on busy links.
///
/// Two entry points:
///
///   * `FairShareWorkspace` — the production path.  The caller assembles a
///     problem into flat CSR-style arrays owned by the workspace and calls
///     solve(); after the first few solves at a given problem size no memory
///     is allocated.  Instead of re-scanning every resource per filling
///     iteration, the solver runs event-driven: saturation levels live in
///     a min-heap and cap levels in one sorted run merged with it, so the
///     cost is O((listings + events) log n) rather than O(iterations x
///     resources).
///
///   * `solveMaxMinFairShare(...)` — the original convenience wrapper over
///     per-demand vectors; it assembles a workspace internally and is kept
///     for tests and callers off the hot path.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_NET_FAIRSHARE_H
#define DGSIM_NET_FAIRSHARE_H

#include "support/Units.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dgsim {

/// One demand in a fair-share problem (convenience-API form).
struct FairShareDemand {
  /// Indices of the resources this demand consumes.  A resource listed
  /// twice counts twice, both for the demand's footprint and the
  /// resource's active weight.
  std::vector<uint32_t> Resources;
  /// Upper bound on the allocated rate (use +inf for "unbounded").
  double Cap = 0.0;
  /// Relative share weight (number of TCP streams); must be >= 1.
  double Weight = 1.0;
};

/// Reusable workspace for the event-driven max-min solver.
///
/// Lifecycle per solve: clear(), addResource() for every contended
/// resource, then for each demand beginDemand() followed by demandUses()
/// for every resource listing, then solve().  Results stay valid until the
/// next clear().  All buffers are retained across solves, so a workspace
/// embedded in a long-lived owner (FlowNetwork) reaches a steady state
/// with zero allocations per solve.
class FairShareWorkspace {
public:
  /// Starts a new problem; keeps all capacity reservations.
  void clear();

  /// Registers a resource; capacity may be zero (an already-exhausted
  /// residual), in which case its demands freeze at the current level.
  /// \returns the resource index for demandUses().
  uint32_t addResource(double Capacity);

  /// Overwrites a resource capacity registered this problem (used by
  /// callers that discover residual capacities after demand assembly).
  void setResourceCapacity(uint32_t Res, double Capacity);

  /// Opens the next demand.  \p Cap <= 0 freezes it at rate zero; a demand
  /// that never calls demandUses() is allocated exactly its cap.
  /// \returns the demand index for rate().
  uint32_t beginDemand(double Cap, double Weight);

  /// Appends one resource listing to the most recently opened demand.
  void demandUses(uint32_t Res);

  size_t demandCount() const { return DemandCap.size(); }

  /// Solves the assembled problem.
  void solve();

  /// \returns the allocated rate of demand \p D (valid after solve()).
  double rate(uint32_t D) const { return Rate[D]; }
  const std::vector<double> &rates() const { return Rate; }

  /// \returns true when resource \p R was driven to saturation — i.e. it
  /// is the binding constraint that froze at least one demand.
  bool saturated(uint32_t R) const { return ResState[R].Saturated != 0; }

  /// Perf introspection: fill events created over this workspace's
  /// lifetime (saturation events pushed onto the heap plus cap events
  /// placed in the cap run), a deterministic measure of solver work.
  uint64_t fillEvents() const { return FillEventCount; }

private:
  struct FillEvent {
    double Level;  // Fill level at which the event fires.
    uint32_t Id;   // Demand id, or NumDemands + resource id.
    uint32_t Version;
  };

  /// A resource's drain state, kept in one record because settling,
  /// freezing and re-keying each read most of it for the same resource.
  struct ResourceState {
    double Residual = 0.0;
    double ActiveWeight = 0.0;
    double Level = 0.0;    // Fill level of last settle.
    uint32_t Version = 0;  // Bumped per weight change; validates heap events.
    uint8_t Saturated = 0; // Result: the resource froze demands.
    uint8_t Touched = 0;   // Listed in Touched (reset by rekeyTouched).
  };

  static bool eventAfter(const FillEvent &A, const FillEvent &B);
  void settleResource(uint32_t R, double Level);
  void freezeDemand(uint32_t D, double Level, bool AtCap);
  void rekeyTouched(double Level);
  void pushEvent(double Level, uint32_t Id, uint32_t Version);
  FillEvent popEvent();

  // Problem (caller-assembled).
  std::vector<double> ResCapacity;
  std::vector<uint32_t> DemandRes;    // CSR resource listings, all demands.
  std::vector<uint32_t> DemandOffset; // Listing start per demand.
  std::vector<double> DemandCap;
  std::vector<double> DemandWeight;

  // Results (with the per-resource drain state).
  std::vector<double> Rate;
  std::vector<ResourceState> ResState;

  // Scratch (sized in solve(), reused across calls).
  std::vector<uint32_t> ResDem;       // CSR transpose: demands per resource.
  std::vector<uint32_t> ResDemOffset;
  std::vector<uint32_t> Touched;      // Re-weighed by the current event.
  std::vector<uint8_t> Frozen;
  std::vector<FillEvent> Heap;        // Saturation events.
  std::vector<FillEvent> CapRun;      // Cap events, ascending.
  size_t ActiveCount = 0;
  uint64_t FillEventCount = 0;
};

/// Solves the weighted max-min fair allocation (convenience wrapper).
///
/// \param Capacities per-resource capacity (must be positive).
/// \param Demands the demand set; demands with empty resource sets are
///        allocated exactly their cap.
/// \returns one rate per demand, in demand order.
std::vector<double>
solveMaxMinFairShare(const std::vector<double> &Capacities,
                     const std::vector<FairShareDemand> &Demands);

} // namespace dgsim

#endif // DGSIM_NET_FAIRSHARE_H
