//===- dgbench/src/TimedPolicy.h - Timing decorator for a policy ----------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wraps a SelectionPolicy and records one span per choose() call.  It
/// forwards every call unchanged — choice, health tracker and name — so a
/// selector built on the decorator makes exactly the choices it would make
/// on the inner policy.
///
//===----------------------------------------------------------------------===//

#ifndef DGBENCH_TIMEDPOLICY_H
#define DGBENCH_TIMEDPOLICY_H

#include "Spans.h"

#include "replica/SelectionPolicy.h"

namespace dgbench {

class TimedPolicy final : public dgsim::SelectionPolicy {
public:
  TimedPolicy(dgsim::SelectionPolicy &Inner, SpanRecorder &Rec)
      : Inner(Inner), Rec(Rec), Layer(Rec.layer("replica.choose")) {}

  const std::string &name() const override { return Inner.name(); }

  dgsim::Host *choose(dgsim::NodeId Client,
                      const std::vector<dgsim::Host *> &Candidates,
                      dgsim::InformationService &Info) override {
    ScopedSpan S(&Rec, Layer);
    return Inner.choose(Client, Candidates, Info);
  }

  void setHealthTracker(dgsim::HealthTracker *T) override {
    Inner.setHealthTracker(T);
  }

private:
  dgsim::SelectionPolicy &Inner;
  SpanRecorder &Rec;
  uint32_t Layer;
};

} // namespace dgbench

#endif // DGBENCH_TIMEDPOLICY_H
