//===- replica/SelectionPolicy.h - Replica selection strategies ------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pluggable replica-selection strategies.
///
/// CostModelPolicy is the paper's contribution; the others are the
/// baselines a performance analysis needs:
///
///   * RandomPolicy        -- uniform choice, the no-information floor;
///   * RoundRobinPolicy    -- static load spreading without measurement;
///   * BandwidthOnlyPolicy -- NWS-greedy selection (Vazhkudai, Tuecke &
///     Foster's replica selection in the Globus Data Grid), i.e. the cost
///     model with W = (1, 0, 0);
///   * LeastLoadedCpuPolicy -- CPU-greedy, bandwidth-blind.
///
/// TwoChoicePolicy is a combinator rather than a strategy: it samples two
/// random candidates and lets any inner policy rank only the pair,
/// trading a little selection quality for herd immunity when the inner
/// policy's measurements are stale.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_REPLICA_SELECTIONPOLICY_H
#define DGSIM_REPLICA_SELECTIONPOLICY_H

#include "replica/CostModel.h"
#include "support/Random.h"

#include <string>
#include <vector>

namespace dgsim {

class HealthTracker;

/// Strategy interface: pick one of the candidate replica holders for a
/// client at \p Client.  Candidates is never empty.
class SelectionPolicy {
public:
  virtual ~SelectionPolicy() = default;

  /// \returns a short identifier such as "cost-model(0.8/0.1/0.1)".
  virtual const std::string &name() const = 0;

  /// Chooses a replica holder.  May query \p Info for measurements.
  virtual Host *choose(NodeId Client, const std::vector<Host *> &Candidates,
                       InformationService &Info) = 0;

  /// Attaches a site-health tracker.  Measurement-driven policies blend
  /// HealthTracker::healthScore into their ranking so degraded sites are
  /// demoted; the no-information baselines (random, round-robin) ignore
  /// it.  Pass nullptr to detach.  Virtual so combinators can forward
  /// the tracker to the policy that actually ranks.
  virtual void setHealthTracker(HealthTracker *T) { Health = T; }

protected:
  /// \returns the multiplicative health factor for \p H: the tracker's
  /// score, or 1.0 when no tracker is attached.
  double healthFactor(const Host &H) const;

  HealthTracker *Health = nullptr;
};

/// Uniformly random choice.
class RandomPolicy final : public SelectionPolicy {
public:
  explicit RandomPolicy(RandomEngine Rng);
  const std::string &name() const override { return Name; }
  Host *choose(NodeId Client, const std::vector<Host *> &Candidates,
               InformationService &Info) override;

private:
  std::string Name;
  RandomEngine Rng;
};

/// Cycles through candidates in catalogue order.
class RoundRobinPolicy final : public SelectionPolicy {
public:
  RoundRobinPolicy();
  const std::string &name() const override { return Name; }
  Host *choose(NodeId Client, const std::vector<Host *> &Candidates,
               InformationService &Info) override;

private:
  std::string Name;
  size_t Next = 0;
};

/// Picks the candidate with the highest forecast bandwidth to the client.
class BandwidthOnlyPolicy final : public SelectionPolicy {
public:
  BandwidthOnlyPolicy();
  const std::string &name() const override { return Name; }
  Host *choose(NodeId Client, const std::vector<Host *> &Candidates,
               InformationService &Info) override;

private:
  std::string Name;
};

/// Picks the candidate with the highest CPU idle fraction.
class LeastLoadedCpuPolicy final : public SelectionPolicy {
public:
  LeastLoadedCpuPolicy();
  const std::string &name() const override { return Name; }
  Host *choose(NodeId Client, const std::vector<Host *> &Candidates,
               InformationService &Info) override;

private:
  std::string Name;
};

/// Mitzenmacher's power-of-two-choices, as a combinator: sample two
/// distinct candidates uniformly and let the inner policy rank only the
/// pair.
///
/// This is the classic antidote to stale-information herding.  A
/// measurement-driven policy ranks every client's candidates from the
/// same periodic forecast, so between measurements every request for a
/// popular file lands on the same "best" holder — which is saturated
/// long before the next sample shows it.  Ranking a random pair spreads
/// the load across holders almost as evenly as fresh information would,
/// while still strongly preferring good replicas ("How Useful Is Old
/// Information?", Mitzenmacher 2000).  With two candidates or fewer the
/// combinator is transparent and the inner policy sees the full list.
class TwoChoicePolicy final : public SelectionPolicy {
public:
  /// \p Inner ranks the sample (not owned); \p Rng drives the sampling
  /// (pass a forked engine for deterministic runs).
  TwoChoicePolicy(SelectionPolicy &Inner, RandomEngine Rng);
  const std::string &name() const override { return Name; }
  Host *choose(NodeId Client, const std::vector<Host *> &Candidates,
               InformationService &Info) override;
  /// The tracker matters to whoever ranks: forward it to the inner
  /// policy (the combinator itself never scores a host).
  void setHealthTracker(HealthTracker *T) override;

private:
  std::string Name;
  SelectionPolicy &Inner;
  RandomEngine Rng;
  /// Candidates sampled per choose() call.
  static constexpr unsigned Choices = 2;
  std::vector<Host *> Sample; // Scratch, reused across calls.
};

/// The paper's weighted cost model: arg max of Eq. (1).
class CostModelPolicy final : public SelectionPolicy {
public:
  explicit CostModelPolicy(CostWeights Weights = CostWeights());
  const std::string &name() const override { return Name; }
  Host *choose(NodeId Client, const std::vector<Host *> &Candidates,
               InformationService &Info) override;

  const CostModel &model() const { return Model; }

private:
  std::string Name;
  CostModel Model;
};

} // namespace dgsim

#endif // DGSIM_REPLICA_SELECTIONPOLICY_H
