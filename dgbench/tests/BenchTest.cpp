//===- dgbench/tests/BenchTest.cpp - The benchmark's own tests ------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "Spans.h"
#include "Stats.h"
#include "TimedPolicy.h"

#include "grid/Testbed.h"
#include "replica/HealthTracker.h"
#include "replica/ReplicaSelector.h"

#include <gtest/gtest.h>

using namespace dgbench;
using namespace dgsim;

//===----------------------------------------------------------------------===//
// Percentile rule
//===----------------------------------------------------------------------===//

TEST(PercentileRule, CountsSamplesBeyond) {
  EXPECT_EQ(samplesBeyond(99.0, 1000), 10u);
  EXPECT_EQ(samplesBeyond(99.0, 999), 9u);
  EXPECT_EQ(samplesBeyond(90.0, 100), 10u);
  EXPECT_EQ(samplesBeyond(50.0, 3), 1u);
  EXPECT_EQ(samplesBeyond(100.0, 50), 0u);
  EXPECT_EQ(samplesBeyond(0.0, 50), 50u);
  EXPECT_EQ(samplesBeyond(99.0, 0), 0u);
}

TEST(PercentileRule, P99NeedsAThousandSamples) {
  EXPECT_TRUE(percentileSupported(99.0, 1000));
  EXPECT_FALSE(percentileSupported(99.0, 999));
  EXPECT_TRUE(percentileSupported(90.0, 100));
  EXPECT_FALSE(percentileSupported(90.0, 99));
}

TEST(PercentileRule, InterpolatesBetweenRanks) {
  std::vector<double> V = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentileOfSorted(V, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentileOfSorted(V, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentileOfSorted(V, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(PercentileRule, SummaryPicksHighestSupportedRung) {
  std::vector<double> Small(150);
  for (size_t I = 0; I != Small.size(); ++I)
    Small[I] = double(Small.size() - I); // Descending: summarize sorts.
  TailSummary S = summarize(Small);
  EXPECT_EQ(S.Count, 150u);
  EXPECT_DOUBLE_EQ(S.P50, 75.5);
  ASSERT_TRUE(S.TailPercentile.has_value());
  EXPECT_DOUBLE_EQ(*S.TailPercentile, 90.0);
  EXPECT_FALSE(S.at(99.0).has_value());
  EXPECT_TRUE(S.at(90.0).has_value());

  std::vector<double> Large(5000, 1.0);
  Large.back() = 100.0;
  TailSummary L = summarize(Large);
  EXPECT_EQ(*L.TailPercentile, 99.0);
  EXPECT_DOUBLE_EQ(*L.at(99.0), 1.0);

  TailSummary Tiny = summarize({1.0, 2.0});
  EXPECT_FALSE(Tiny.TailPercentile.has_value());
  EXPECT_DOUBLE_EQ(Tiny.P50, 1.5);
}

TEST(DigestTest, OrderAndBitsMatter) {
  Digest A, B, C;
  A.add(uint64_t(1));
  A.add(2.0);
  B.add(2.0);
  B.add(uint64_t(1));
  C.add(uint64_t(1));
  C.add(2.0);
  EXPECT_NE(A.value(), B.value());
  EXPECT_EQ(A.value(), C.value());
  Digest Z, NZ;
  Z.add(0.0);
  NZ.add(-0.0);
  EXPECT_NE(Z.value(), NZ.value());
}

//===----------------------------------------------------------------------===//
// Span self time
//===----------------------------------------------------------------------===//

TEST(SelfTime, SubtractsDisjointChildren) {
  EXPECT_EQ(selfTimeNs(0, 100, {}), 100);
  EXPECT_EQ(selfTimeNs(0, 100, {{10, 20}, {50, 80}}), 60);
}

TEST(SelfTime, CountsOverlapOnceAndClipsToParent) {
  // [10,40) and [30,60) overlap on [30,40): covered 50, not 60.
  EXPECT_EQ(selfTimeNs(0, 100, {{30, 60}, {10, 40}}), 50);
  // A child sticking out either side counts only inside the parent.
  EXPECT_EQ(selfTimeNs(100, 200, {{50, 120}, {190, 250}}), 70);
  // A child nested in another adds nothing.
  EXPECT_EQ(selfTimeNs(0, 100, {{10, 90}, {20, 30}}), 20);
  // Children outside the parent entirely.
  EXPECT_EQ(selfTimeNs(0, 100, {{200, 300}}), 100);
}

TEST(SelfTime, RecorderTotalsNestedSpans) {
  SpanRecorder R;
  uint32_t Outer = R.layer("outer");
  uint32_t Inner = R.layer("inner");
  uint32_t O = R.begin(Outer, 7);
  uint32_t I1 = R.begin(Inner);
  R.end(I1);
  uint32_t I2 = R.begin(Inner);
  R.end(I2);
  R.end(O);
  const std::vector<Span> &S = R.spans();
  ASSERT_EQ(S.size(), 3u);
  // Children inherit the request id and point at their parent.
  EXPECT_EQ(S[I1].Id, 7u);
  EXPECT_EQ(S[I2].Parent, O);
  EXPECT_EQ(S[O].Parent, NoParent);

  std::vector<LayerTotals> T = R.totals();
  ASSERT_EQ(T.size(), 2u);
  EXPECT_EQ(T[Outer].Calls, 1u);
  EXPECT_EQ(T[Inner].Calls, 2u);
  EXPECT_EQ(T[Inner].SelfNs, T[Inner].TotalNs);
  EXPECT_EQ(T[Outer].SelfNs, S[O].durationNs() - S[I1].durationNs() -
                                 S[I2].durationNs());
  EXPECT_EQ(T[Outer].TotalNs, T[Outer].SelfNs + T[Inner].TotalNs);
}

TEST(SelfTime, ChromeTraceIsWritten) {
  SpanRecorder R;
  uint32_t L = R.layer("replica.fetch");
  R.end(R.begin(L, 42));
  std::FILE *F = std::tmpfile();
  ASSERT_NE(F, nullptr);
  ASSERT_TRUE(R.writeChromeTrace(F));
  std::rewind(F);
  char Buf[512] = {};
  size_t N = std::fread(Buf, 1, sizeof(Buf) - 1, F);
  std::fclose(F);
  std::string Doc(Buf, N);
  EXPECT_NE(Doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Doc.find("\"name\":\"replica.fetch\""), std::string::npos);
  EXPECT_NE(Doc.find("\"cat\":\"replica\""), std::string::npos);
  EXPECT_NE(Doc.find("\"id\":42"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Timing decorator transparency
//===----------------------------------------------------------------------===//

/// Runs selection for every (client, file) pair on two identical testbed
/// grids, one through \p Wrap, and returns both choice sequences.
template <typename MakePolicy>
std::pair<std::vector<std::string>, std::vector<std::string>>
choicesWithAndWithout(MakePolicy Make) {
  std::vector<std::string> Plain, Timed;
  SpanRecorder Rec;
  for (int Decorated = 0; Decorated < 2; ++Decorated) {
    PaperTestbedOptions O;
    O.Seed = 11;
    PaperTestbed T(O);
    T.publishFileA();
    auto Inner = Make();
    TimedPolicy Wrapped(*Inner, Rec);
    SelectionPolicy &P =
        Decorated ? static_cast<SelectionPolicy &>(Wrapped) : *Inner;
    ReplicaSelector Sel(T.grid().catalog(), T.grid().info(), P);
    std::vector<std::string> &Out = Decorated ? Timed : Plain;
    for (double At : {30.0, 60.0, 90.0, 120.0}) {
      T.sim().runUntil(At);
      for (const char *C : {"alpha1", "lz01", "hit3"}) {
        Host *Chosen =
            Sel.select(T.grid().findHost(C)->node(), PaperTestbed::FileA)
                .Chosen;
        Out.push_back(Chosen ? Chosen->name() : "-");
      }
    }
    EXPECT_EQ(P.name(), Inner->name());
  }
  // One span per decorated choice (local hits never reach the policy).
  EXPECT_GT(Rec.spans().size(), 0u);
  EXPECT_LE(Rec.spans().size(), Timed.size());
  return {Plain, Timed};
}

TEST(TimedPolicyTest, CostModelChoicesUnchanged) {
  auto [Plain, Timed] =
      choicesWithAndWithout([] { return std::make_unique<CostModelPolicy>(); });
  EXPECT_EQ(Plain, Timed);
}

TEST(TimedPolicyTest, RandomChoicesUnchanged) {
  // A stateful policy: the decorator must not consume or reorder draws.
  auto [Plain, Timed] = choicesWithAndWithout(
      [] { return std::make_unique<RandomPolicy>(RandomEngine(5)); });
  EXPECT_EQ(Plain, Timed);
}

/// Records the tracker it was handed and always picks the last candidate.
class ProbePolicy final : public SelectionPolicy {
public:
  const std::string &name() const override { return Name; }
  Host *choose(NodeId, const std::vector<Host *> &Candidates,
               InformationService &) override {
    return Candidates.back();
  }
  void setHealthTracker(HealthTracker *T) override { Seen = T; }

  std::string Name = "probe";
  HealthTracker *Seen = nullptr;
};

TEST(TimedPolicyTest, ForwardsHealthTrackerAndRecordsOneSpanPerChoice) {
  PaperTestbed T;
  HealthTracker Health(T.sim());
  ProbePolicy Inner;
  SpanRecorder Rec;
  TimedPolicy Wrapped(Inner, Rec);
  Wrapped.setHealthTracker(&Health);
  EXPECT_EQ(Inner.Seen, &Health);

  T.publishFileA();
  ReplicaSelector Sel(T.grid().catalog(), T.grid().info(), Wrapped);
  Host *Chosen = Sel.select(T.lz(1).node(), PaperTestbed::FileA).Chosen;
  const std::vector<Host *> &Holders =
      T.grid().catalog().locateRef(PaperTestbed::FileA);
  EXPECT_EQ(Chosen, Holders.back());
  ASSERT_EQ(Rec.spans().size(), 1u);
  EXPECT_EQ(Rec.layerNames()[Rec.spans()[0].Layer], "replica.choose");
}
