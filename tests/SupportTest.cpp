//===- tests/SupportTest.cpp - Unit tests for src/support ----------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/Random.h"
#include "support/Statistics.h"
#include "support/StringInterner.h"
#include "support/Table.h"
#include "support/TimeSeries.h"
#include "support/Units.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace dgsim;

//===----------------------------------------------------------------------===//
// Units
//===----------------------------------------------------------------------===//

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(units::megabytes(1), 1024.0 * 1024.0);
  EXPECT_DOUBLE_EQ(units::gigabytes(2), 2.0 * 1024.0 * 1024.0 * 1024.0);
  EXPECT_DOUBLE_EQ(units::mbps(30), 30e6);
  EXPECT_DOUBLE_EQ(units::gbps(1), 1e9);
  EXPECT_DOUBLE_EQ(units::minutes(2), 120.0);
  EXPECT_DOUBLE_EQ(units::milliseconds(250), 0.25);
}

TEST(Units, TransferTime) {
  // 1 MB over 8 Mb/s is exactly 1.048576 s (1 MiB = 2^20 bytes).
  EXPECT_DOUBLE_EQ(units::transferTime(units::megabytes(1), units::mbps(8)),
                   1048576.0 * 8.0 / 8e6);
}

TEST(Units, ByteRateRoundTrip) {
  EXPECT_DOUBLE_EQ(units::bytesPerSecond(units::fromBytesPerSecond(123.0)),
                   123.0);
}

//===----------------------------------------------------------------------===//
// RandomEngine
//===----------------------------------------------------------------------===//

TEST(Random, DeterministicAcrossRuns) {
  RandomEngine A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Random, DifferentSeedsDiffer) {
  RandomEngine A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    Same += (A.next() == B.next());
  EXPECT_LT(Same, 2);
}

TEST(Random, ForkIsDeterministicAndIndependent) {
  RandomEngine A(7);
  RandomEngine C1 = A.fork();
  RandomEngine A2(7);
  RandomEngine C2 = A2.fork();
  for (int I = 0; I < 32; ++I)
    EXPECT_EQ(C1.next(), C2.next());
}

TEST(Random, UniformInUnitInterval) {
  RandomEngine R(3);
  for (int I = 0; I < 10000; ++I) {
    double U = R.uniform();
    EXPECT_GE(U, 0.0);
    EXPECT_LT(U, 1.0);
  }
}

TEST(Random, UniformIntRespectsBound) {
  RandomEngine R(11);
  for (int I = 0; I < 10000; ++I)
    EXPECT_LT(R.uniformInt(7), 7u);
}

TEST(Random, UniformIntCoversAllValues) {
  RandomEngine R(5);
  std::vector<int> Hits(5, 0);
  for (int I = 0; I < 5000; ++I)
    ++Hits[R.uniformInt(5)];
  for (int H : Hits)
    EXPECT_GT(H, 800); // ~1000 expected per bucket.
}

TEST(Random, ExponentialMean) {
  RandomEngine R(17);
  RunningStats S;
  for (int I = 0; I < 50000; ++I)
    S.add(R.exponential(4.0));
  EXPECT_NEAR(S.mean(), 4.0, 0.1);
  EXPECT_GE(S.min(), 0.0);
}

TEST(Random, NormalMoments) {
  RandomEngine R(19);
  RunningStats S;
  for (int I = 0; I < 50000; ++I)
    S.add(R.normal(10.0, 2.0));
  EXPECT_NEAR(S.mean(), 10.0, 0.1);
  EXPECT_NEAR(S.stddev(), 2.0, 0.1);
}

TEST(Random, ParetoLowerBound) {
  RandomEngine R(23);
  for (int I = 0; I < 10000; ++I)
    EXPECT_GE(R.pareto(1.5, 2.0), 1.5);
}

TEST(Random, BernoulliEdges) {
  RandomEngine R(29);
  for (int I = 0; I < 100; ++I) {
    EXPECT_FALSE(R.bernoulli(0.0));
    EXPECT_TRUE(R.bernoulli(1.0));
  }
}

TEST(Random, BernoulliRate) {
  RandomEngine R(31);
  int Hits = 0;
  for (int I = 0; I < 20000; ++I)
    Hits += R.bernoulli(0.25);
  EXPECT_NEAR(Hits / 20000.0, 0.25, 0.02);
}

TEST(Random, WeightedIndexProportions) {
  RandomEngine R(37);
  std::vector<double> W = {1.0, 0.0, 3.0};
  std::vector<int> Hits(3, 0);
  for (int I = 0; I < 40000; ++I)
    ++Hits[R.weightedIndex(W)];
  EXPECT_EQ(Hits[1], 0);
  EXPECT_NEAR(Hits[0] / 40000.0, 0.25, 0.02);
  EXPECT_NEAR(Hits[2] / 40000.0, 0.75, 0.02);
}

TEST(Random, ZipfFavoursLowRanks) {
  RandomEngine R(41);
  ZipfTable Z(10, 1.0);
  std::vector<int> Hits(10, 0);
  for (int I = 0; I < 50000; ++I)
    ++Hits[Z.draw(R)];
  EXPECT_GT(Hits[0], Hits[4]);
  EXPECT_GT(Hits[4], Hits[9]);
}

TEST(Random, ZipfZeroExponentIsUniform) {
  RandomEngine R(43);
  ZipfTable Z(4, 0.0);
  std::vector<int> Hits(4, 0);
  for (int I = 0; I < 40000; ++I)
    ++Hits[Z.draw(R)];
  for (int H : Hits)
    EXPECT_NEAR(H / 40000.0, 0.25, 0.02);
}

TEST(Random, ZipfTableDrawsMatchPinnedDigest) {
  // Digests of 10,000 draws each from the historical per-draw inversion
  // (harmonic weights re-summed with pow() on every draw): the table must
  // reproduce every rank bit for bit, one uniform() per draw.
  struct Case {
    size_t N;
    double S;
    uint64_t Digest;
  };
  const Case Cases[] = {{256, 0.8, 0x1719321c62676551ull},
                        {10, 1.0, 0xb540749ed32041eeull},
                        {4, 0.0, 0x013a11ba2944eb67ull},
                        {1, 2.0, 0xa6e4f0723147f065ull}};
  for (const Case &C : Cases) {
    RandomEngine R(97);
    ZipfTable Z(C.N, C.S);
    uint64_t H = 14695981039346656037ull; // FNV-1a over the ranks.
    for (int I = 0; I < 10000; ++I)
      H = (H ^ Z.draw(R)) * 1099511628211ull;
    EXPECT_EQ(H, C.Digest) << "N=" << C.N << " S=" << C.S;
  }
}

//===----------------------------------------------------------------------===//
// RunningStats
//===----------------------------------------------------------------------===//

TEST(RunningStats, EmptyState) {
  RunningStats S;
  EXPECT_TRUE(S.empty());
  EXPECT_DOUBLE_EQ(S.mean(), 0.0);
  EXPECT_DOUBLE_EQ(S.variance(), 0.0);
  EXPECT_TRUE(std::isinf(S.min()));
}

TEST(RunningStats, KnownMoments) {
  RunningStats S;
  for (double X : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
    S.add(X);
  EXPECT_DOUBLE_EQ(S.mean(), 5.0);
  EXPECT_NEAR(S.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(S.min(), 2.0);
  EXPECT_DOUBLE_EQ(S.max(), 9.0);
  EXPECT_DOUBLE_EQ(S.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RandomEngine R(47);
  RunningStats All, A, B;
  for (int I = 0; I < 1000; ++I) {
    double X = R.uniform(0, 100);
    All.add(X);
    (I % 2 ? A : B).add(X);
  }
  A.merge(B);
  EXPECT_EQ(A.count(), All.count());
  EXPECT_NEAR(A.mean(), All.mean(), 1e-9);
  EXPECT_NEAR(A.variance(), All.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(A.min(), All.min());
  EXPECT_DOUBLE_EQ(A.max(), All.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats A, B;
  A.add(3.0);
  A.merge(B);
  EXPECT_EQ(A.count(), 1u);
  B.merge(A);
  EXPECT_EQ(B.count(), 1u);
  EXPECT_DOUBLE_EQ(B.mean(), 3.0);
}

//===----------------------------------------------------------------------===//
// Batch statistics
//===----------------------------------------------------------------------===//

TEST(Stats, PercentileInterpolates) {
  std::vector<double> V = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(stats::percentile(V, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(stats::percentile(V, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(stats::percentile(V, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(stats::median({5.0}), 5.0);
  EXPECT_DOUBLE_EQ(stats::percentile({}, 0.5), 0.0);
}

TEST(Stats, Errors) {
  std::vector<double> P = {1, 2, 3}, A = {1, 4, 3};
  EXPECT_DOUBLE_EQ(stats::meanSquaredError(P, A), 4.0 / 3.0);
  EXPECT_DOUBLE_EQ(stats::meanAbsoluteError(P, A), 2.0 / 3.0);
}

TEST(Stats, PearsonPerfectCorrelation) {
  std::vector<double> X = {1, 2, 3, 4}, Y = {2, 4, 6, 8};
  EXPECT_NEAR(stats::pearson(X, Y), 1.0, 1e-12);
  std::vector<double> Z = {8, 6, 4, 2};
  EXPECT_NEAR(stats::pearson(X, Z), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantSide) {
  std::vector<double> X = {1, 1, 1}, Y = {1, 2, 3};
  EXPECT_DOUBLE_EQ(stats::pearson(X, Y), 0.0);
}

TEST(Stats, RanksWithTies) {
  std::vector<double> V = {10, 20, 20, 30};
  std::vector<double> R = stats::ranks(V);
  EXPECT_DOUBLE_EQ(R[0], 1.0);
  EXPECT_DOUBLE_EQ(R[1], 2.5);
  EXPECT_DOUBLE_EQ(R[2], 2.5);
  EXPECT_DOUBLE_EQ(R[3], 4.0);
}

TEST(Stats, SpearmanMonotone) {
  std::vector<double> X = {1, 2, 3, 4, 5};
  std::vector<double> Y = {1, 8, 27, 64, 125}; // monotone, nonlinear
  EXPECT_NEAR(stats::spearman(X, Y), 1.0, 1e-12);
}

TEST(Stats, KendallTau) {
  std::vector<double> X = {1, 2, 3}, Y = {3, 2, 1};
  EXPECT_DOUBLE_EQ(stats::kendallTau(X, Y), -1.0);
  std::vector<double> Z = {1, 2, 3};
  EXPECT_DOUBLE_EQ(stats::kendallTau(X, Z), 1.0);
}

//===----------------------------------------------------------------------===//
// TimeSeries
//===----------------------------------------------------------------------===//

TEST(TimeSeries, EvictsOldestAtCapacity) {
  TimeSeries TS(3);
  for (int I = 0; I < 5; ++I)
    TS.add(I, I * 10.0);
  EXPECT_EQ(TS.size(), 3u);
  EXPECT_DOUBLE_EQ(TS.at(0).Value, 20.0);
  EXPECT_DOUBLE_EQ(TS.latest().Value, 40.0);
}

TEST(TimeSeries, MeanSince) {
  TimeSeries TS;
  TS.add(0.0, 1.0);
  TS.add(10.0, 2.0);
  TS.add(20.0, 6.0);
  EXPECT_DOUBLE_EQ(TS.meanSince(10.0), 4.0);
  EXPECT_DOUBLE_EQ(TS.meanSince(0.0), 3.0);
  EXPECT_DOUBLE_EQ(TS.meanSince(21.0), 0.0);
  EXPECT_EQ(TS.countSince(10.0), 2u);
}

TEST(TimeSeries, LastValues) {
  TimeSeries TS;
  for (int I = 0; I < 4; ++I)
    TS.add(I, I + 1.0);
  std::vector<double> Last2 = TS.lastValues(2);
  ASSERT_EQ(Last2.size(), 2u);
  EXPECT_DOUBLE_EQ(Last2[0], 3.0);
  EXPECT_DOUBLE_EQ(Last2[1], 4.0);
  EXPECT_EQ(TS.lastValues(10).size(), 4u);
}

//===----------------------------------------------------------------------===//
// Table and formatting
//===----------------------------------------------------------------------===//

TEST(Table, RendersAlignedColumns) {
  Table T;
  T.setHeader({"site", "score"});
  T.beginRow();
  T.add("alpha1");
  T.add(0.95, 2);
  T.beginRow();
  T.add("lz02");
  T.add(0.5, 2);
  std::string S = T.str();
  EXPECT_NE(S.find("site"), std::string::npos);
  EXPECT_NE(S.find("alpha1"), std::string::npos);
  EXPECT_NE(S.find("0.95"), std::string::npos);
  EXPECT_NE(S.find("----"), std::string::npos);
  EXPECT_EQ(T.rowCount(), 2u);
}

TEST(Table, EmptyAndRaggedRows) {
  Table Empty;
  EXPECT_EQ(Empty.str(), "");
  Table Ragged;
  Ragged.setHeader({"a", "b"});
  Ragged.beginRow();
  Ragged.add("x"); // Short row: missing cells render empty.
  Ragged.beginRow();
  Ragged.add("y");
  Ragged.add("z");
  Ragged.add("extra"); // Long row: extra column widens the table.
  std::string S = Ragged.str();
  EXPECT_NE(S.find("extra"), std::string::npos);
  EXPECT_NE(S.find("x"), std::string::npos);
}

TEST(Fmt, SmallUnitBranches) {
  EXPECT_EQ(fmt::bytes(512.0), "512 B");
  EXPECT_EQ(fmt::bytes(2048.0), "2.0 KB");
  EXPECT_EQ(fmt::rate(500.0), "500 b/s");
  EXPECT_EQ(fmt::rate(2500.0), "2.5 Kb/s");
  EXPECT_EQ(fmt::seconds(5.25), "5.2 s");
  EXPECT_EQ(fmt::percent(0.0), "0.0%");
}

TEST(RunningStats, ClearResets) {
  RunningStats S;
  S.add(5.0);
  S.add(7.0);
  S.clear();
  EXPECT_TRUE(S.empty());
  EXPECT_DOUBLE_EQ(S.mean(), 0.0);
  S.add(3.0);
  EXPECT_DOUBLE_EQ(S.mean(), 3.0);
}

TEST(Random, ZipfSingleElementUniverse) {
  RandomEngine R(51);
  ZipfTable Z(1, 2.0);
  for (int I = 0; I < 20; ++I)
    EXPECT_EQ(Z.draw(R), 0u);
}

TEST(Fmt, HumanReadable) {
  EXPECT_EQ(fmt::bytes(units::megabytes(256)), "256.0 MB");
  EXPECT_EQ(fmt::bytes(units::gigabytes(2)), "2.0 GB");
  EXPECT_EQ(fmt::rate(units::mbps(30)), "30.0 Mb/s");
  EXPECT_EQ(fmt::rate(units::gbps(1)), "1.0 Gb/s");
  EXPECT_EQ(fmt::percent(0.875), "87.5%");
  EXPECT_EQ(fmt::fixed(3.14159, 3), "3.142");
  EXPECT_EQ(fmt::seconds(75.0), "1m15.0s");
}

//===----------------------------------------------------------------------===//
// StringInterner
//===----------------------------------------------------------------------===//

TEST(StringInterner, AssignsDenseIdsInOrder) {
  StringInterner In;
  EXPECT_EQ(In.intern("alpha"), 0u);
  EXPECT_EQ(In.intern("beta"), 1u);
  EXPECT_EQ(In.intern("gamma"), 2u);
  EXPECT_EQ(In.size(), 3u);
}

TEST(StringInterner, InternIsIdempotent) {
  StringInterner In;
  StringInterner::Id A = In.intern("file.dat");
  StringInterner::Id B = In.intern("file.dat");
  EXPECT_EQ(A, B);
  EXPECT_EQ(In.size(), 1u);
}

TEST(StringInterner, FindWithoutInserting) {
  StringInterner In;
  EXPECT_EQ(In.find("missing"), StringInterner::InvalidId);
  StringInterner::Id Id = In.intern("present");
  EXPECT_EQ(In.find("present"), Id);
  EXPECT_EQ(In.size(), 1u); // find never inserts.
  EXPECT_EQ(In.find("missing"), StringInterner::InvalidId);
}

TEST(StringInterner, HeterogeneousLookupFromStringView) {
  // find/intern accept string_view without building a temporary string;
  // a view into a larger buffer must match the interned key.
  StringInterner In;
  In.intern("cpu/host3");
  std::string Buffer = "xxcpu/host3yy";
  std::string_view View(Buffer.data() + 2, 9);
  EXPECT_EQ(In.find(View), 0u);
}

TEST(StringInterner, NameSurvivesRehash) {
  StringInterner In;
  StringInterner::Id First = In.intern("n0");
  const std::string &Name = In.name(First);
  // Force growth well past any initial bucket count.
  for (int I = 1; I < 1000; ++I)
    In.intern("n" + std::to_string(I));
  EXPECT_EQ(Name, "n0"); // Key storage is node-stable.
  EXPECT_EQ(In.name(First), "n0");
  EXPECT_EQ(In.name(In.find("n999")), "n999");
}
