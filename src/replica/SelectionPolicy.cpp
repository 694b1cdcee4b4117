//===- replica/SelectionPolicy.cpp --------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "replica/SelectionPolicy.h"

#include "replica/HealthTracker.h"

#include <cassert>
#include <cstdio>
#include <utility>

using namespace dgsim;

double SelectionPolicy::healthFactor(const Host &H) const {
  return Health ? Health->healthScore(H) : 1.0;
}

RandomPolicy::RandomPolicy(RandomEngine Rng) : Name("random"), Rng(Rng) {}

Host *RandomPolicy::choose(NodeId Client,
                           const std::vector<Host *> &Candidates,
                           InformationService &Info) {
  (void)Client;
  (void)Info;
  assert(!Candidates.empty() && "no candidates to choose from");
  return Candidates[Rng.uniformInt(Candidates.size())];
}

RoundRobinPolicy::RoundRobinPolicy() : Name("round-robin") {}

Host *RoundRobinPolicy::choose(NodeId Client,
                               const std::vector<Host *> &Candidates,
                               InformationService &Info) {
  (void)Client;
  (void)Info;
  assert(!Candidates.empty() && "no candidates to choose from");
  return Candidates[Next++ % Candidates.size()];
}

BandwidthOnlyPolicy::BandwidthOnlyPolicy() : Name("bandwidth-only") {}

Host *BandwidthOnlyPolicy::choose(NodeId Client,
                                  const std::vector<Host *> &Candidates,
                                  InformationService &Info) {
  assert(!Candidates.empty() && "no candidates to choose from");
  Host *Best = nullptr;
  double BestBw = -1.0;
  for (Host *H : Candidates) {
    SystemFactors F = Info.query(Client, *H);
    double Bw = F.PredictedBandwidth * healthFactor(*H);
    if (Bw > BestBw) {
      BestBw = Bw;
      Best = H;
    }
  }
  return Best;
}

LeastLoadedCpuPolicy::LeastLoadedCpuPolicy() : Name("least-loaded-cpu") {}

Host *LeastLoadedCpuPolicy::choose(NodeId Client,
                                   const std::vector<Host *> &Candidates,
                                   InformationService &Info) {
  (void)Client;
  assert(!Candidates.empty() && "no candidates to choose from");
  Host *Best = nullptr;
  double BestIdle = -1.0;
  for (Host *H : Candidates) {
    double Idle = Info.cpuIdle(*H);
    if (Idle > BestIdle) {
      BestIdle = Idle;
      Best = H;
    }
  }
  return Best;
}

TwoChoicePolicy::TwoChoicePolicy(SelectionPolicy &Inner, RandomEngine Rng)
    : Name("2-choice(" + Inner.name() + ")"), Inner(Inner), Rng(Rng) {}

void TwoChoicePolicy::setHealthTracker(HealthTracker *T) {
  Inner.setHealthTracker(T);
}

Host *TwoChoicePolicy::choose(NodeId Client,
                              const std::vector<Host *> &Candidates,
                              InformationService &Info) {
  assert(!Candidates.empty() && "no candidates to choose from");
  if (Candidates.size() <= Choices)
    return Inner.choose(Client, Candidates, Info);
  // Partial Fisher-Yates over a scratch copy: the first Choices slots
  // become a uniform sample without replacement, in draw order.
  Sample.assign(Candidates.begin(), Candidates.end());
  for (unsigned I = 0; I != Choices; ++I)
    std::swap(Sample[I], Sample[I + Rng.uniformInt(Sample.size() - I)]);
  Sample.resize(Choices);
  return Inner.choose(Client, Sample, Info);
}

CostModelPolicy::CostModelPolicy(CostWeights Weights) : Model(Weights) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "cost-model(%.2f/%.2f/%.2f)",
                Weights.Bandwidth, Weights.Cpu, Weights.Io);
  Name = Buf;
}

Host *CostModelPolicy::choose(NodeId Client,
                              const std::vector<Host *> &Candidates,
                              InformationService &Info) {
  assert(!Candidates.empty() && "no candidates to choose from");
  Host *Best = nullptr;
  double BestScore = -1.0;
  for (Host *H : Candidates) {
    // The paper's Eq. 1 score, demoted by the observed health of the
    // site: a holder that times out or crawls under load ranks below a
    // slightly-worse-on-paper holder that actually delivers.
    double Score = Model.score(Info.query(Client, *H)) * healthFactor(*H);
    if (Score > BestScore) {
      BestScore = Score;
      Best = H;
    }
  }
  return Best;
}
