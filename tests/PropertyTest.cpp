//===- tests/PropertyTest.cpp - Parameterized property suites -------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-based tests (TEST_P sweeps) over randomised instances of the
/// core algorithms: max-min fairness invariants, Dijkstra optimality
/// against a Floyd-Warshall reference, TCP-model monotonicity, forecaster
/// sanity across series shapes, statistics invariants, and end-to-end
/// transfer monotonicity.
///
//===----------------------------------------------------------------------===//

#include "gridftp/Protocol.h"
#include "monitor/Forecaster.h"
#include "net/FairShare.h"
#include "net/FlowNetwork.h"
#include "net/Routing.h"
#include "net/TcpModel.h"
#include "sim/Simulator.h"
#include "support/Statistics.h"
#include "support/Units.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

using namespace dgsim;
using namespace dgsim::units;

namespace {
constexpr double Inf = std::numeric_limits<double>::infinity();
} // namespace

//===----------------------------------------------------------------------===//
// Max-min fairness invariants over random instances
//===----------------------------------------------------------------------===//

namespace {

struct FairShareInstance {
  std::vector<double> Capacities;
  std::vector<FairShareDemand> Demands;
};

FairShareInstance makeInstance(uint64_t Seed) {
  RandomEngine Rng(Seed);
  FairShareInstance I;
  size_t NumRes = 1 + Rng.uniformInt(8);
  size_t NumDem = 1 + Rng.uniformInt(12);
  I.Capacities.resize(NumRes);
  for (auto &C : I.Capacities)
    C = Rng.uniform(5, 500);
  I.Demands.resize(NumDem);
  for (auto &D : I.Demands) {
    // Distinct resources per demand (a path never repeats a channel).
    size_t Hops = 1 + Rng.uniformInt(NumRes);
    for (size_t R = 0; R < NumRes && D.Resources.size() < Hops; ++R)
      if (Rng.bernoulli(0.6))
        D.Resources.push_back(static_cast<uint32_t>(R));
    if (D.Resources.empty())
      D.Resources.push_back(
          static_cast<uint32_t>(Rng.uniformInt(NumRes)));
    D.Cap = Rng.bernoulli(0.4) ? Rng.uniform(1, 200) : Inf;
    D.Weight = 1.0 + static_cast<double>(Rng.uniformInt(8));
  }
  return I;
}

class FairShareProperty : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(FairShareProperty, FeasibleAndMaxMinOptimal) {
  FairShareInstance I = makeInstance(GetParam());
  std::vector<double> Rate = solveMaxMinFairShare(I.Capacities, I.Demands);
  ASSERT_EQ(Rate.size(), I.Demands.size());

  size_t NumRes = I.Capacities.size();
  std::vector<double> Used(NumRes, 0.0);
  for (size_t F = 0; F != I.Demands.size(); ++F) {
    // Feasibility: rates respect caps and are non-negative.
    EXPECT_GE(Rate[F], 0.0);
    EXPECT_LE(Rate[F], I.Demands[F].Cap * (1.0 + 1e-9));
    for (uint32_t R : I.Demands[F].Resources)
      Used[R] += Rate[F];
  }
  for (size_t R = 0; R != NumRes; ++R)
    EXPECT_LE(Used[R], I.Capacities[R] * (1.0 + 1e-6));

  // Max-min optimality (weighted bottleneck condition): every demand not
  // frozen by its own cap crosses a saturated resource on which no other
  // demand enjoys a higher rate-per-weight.
  for (size_t F = 0; F != I.Demands.size(); ++F) {
    const FairShareDemand &D = I.Demands[F];
    if (Rate[F] >= D.Cap * (1.0 - 1e-9))
      continue; // Cap-frozen.
    double MyShare = Rate[F] / D.Weight;
    bool HasBottleneck = false;
    for (uint32_t R : D.Resources) {
      if (Used[R] < I.Capacities[R] * (1.0 - 1e-6))
        continue; // Not saturated.
      bool Dominated = false;
      for (size_t G = 0; G != I.Demands.size(); ++G) {
        if (G == F)
          continue;
        for (uint32_t RG : I.Demands[G].Resources)
          if (RG == R && Rate[G] / I.Demands[G].Weight >
                             MyShare * (1.0 + 1e-6))
            Dominated = true;
      }
      if (!Dominated) {
        HasBottleneck = true;
        break;
      }
    }
    EXPECT_TRUE(HasBottleneck)
        << "demand " << F << " is neither cap-frozen nor bottlenecked";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, FairShareProperty,
                         ::testing::Range<uint64_t>(1, 41));

//===----------------------------------------------------------------------===//
// Dijkstra against a Floyd-Warshall reference on random connected graphs
//===----------------------------------------------------------------------===//

namespace {

class RoutingProperty : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(RoutingProperty, MatchesFloydWarshallDelays) {
  RandomEngine Rng(GetParam());
  size_t N = 4 + Rng.uniformInt(8);
  Topology Topo;
  for (size_t I = 0; I < N; ++I)
    Topo.addNode("n" + std::to_string(I));
  // Connected: a random spanning tree plus extra chords.
  std::vector<std::vector<double>> Direct(
      N, std::vector<double>(N, Inf));
  auto AddEdge = [&](NodeId A, NodeId B) {
    if (A == B || Direct[A][B] != Inf)
      return;
    double Delay = Rng.uniform(0.001, 0.02);
    Topo.addLink(A, B, gbps(1), Delay);
    Direct[A][B] = Direct[B][A] = Delay;
  };
  for (size_t I = 1; I < N; ++I)
    AddEdge(static_cast<NodeId>(I),
            static_cast<NodeId>(Rng.uniformInt(I)));
  for (size_t E = 0; E < N; ++E)
    AddEdge(static_cast<NodeId>(Rng.uniformInt(N)),
            static_cast<NodeId>(Rng.uniformInt(N)));

  // Floyd-Warshall reference distances.
  std::vector<std::vector<double>> Dist = Direct;
  for (size_t I = 0; I < N; ++I)
    Dist[I][I] = 0.0;
  for (size_t K = 0; K < N; ++K)
    for (size_t I = 0; I < N; ++I)
      for (size_t J = 0; J < N; ++J)
        Dist[I][J] = std::min(Dist[I][J], Dist[I][K] + Dist[K][J]);

  Routing Router(Topo);
  for (size_t I = 0; I < N; ++I) {
    for (size_t J = 0; J < N; ++J) {
      const NetPath *P = Router.pathRef(static_cast<NodeId>(I),
                                        static_cast<NodeId>(J));
      ASSERT_NE(P, nullptr) << "graph should be connected";
      EXPECT_NEAR(P->Rtt, 2.0 * Dist[I][J], 1e-12);
      // The reported path is genuinely a path from I to J.
      NodeId Cur = static_cast<NodeId>(I);
      for (ChannelId Ch : P->Channels) {
        EXPECT_EQ(Topo.channelSource(Ch), Cur);
        Cur = Topo.channelTarget(Ch);
      }
      EXPECT_EQ(Cur, static_cast<NodeId>(J));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, RoutingProperty,
                         ::testing::Range<uint64_t>(100, 120));

//===----------------------------------------------------------------------===//
// TCP model monotonicity across the (RTT, loss) grid
//===----------------------------------------------------------------------===//

namespace {

struct TcpPoint {
  double RttMs;
  double Loss;
};

class TcpModelProperty : public ::testing::TestWithParam<TcpPoint> {};

NetPath pathWith(double RttMs, double Loss) {
  NetPath P;
  P.Rtt = RttMs * 1e-3;
  P.LossRate = Loss;
  P.BottleneckCapacity = gbps(1);
  return P;
}

} // namespace

TEST_P(TcpModelProperty, CapPositiveAndMonotone) {
  TcpPoint Pt = GetParam();
  double Cap = TcpModel::perStreamCap(pathWith(Pt.RttMs, Pt.Loss));
  EXPECT_GT(Cap, 0.0);
  // Longer RTT can only hurt.
  EXPECT_LE(TcpModel::perStreamCap(pathWith(Pt.RttMs * 2.0, Pt.Loss)),
            Cap * (1.0 + 1e-12));
  // More loss can only hurt.
  EXPECT_LE(TcpModel::perStreamCap(pathWith(Pt.RttMs, Pt.Loss * 4.0 + 1e-4)),
            Cap * (1.0 + 1e-12));
  // Parallel caps scale exactly linearly in the stream count.
  for (unsigned S : {2u, 4u, 16u})
    EXPECT_NEAR(TcpModel::parallelCap(pathWith(Pt.RttMs, Pt.Loss), S),
                Cap * static_cast<double>(S), Cap * 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    RttLossGrid, TcpModelProperty,
    ::testing::Values(TcpPoint{1, 0.0}, TcpPoint{1, 1e-4},
                      TcpPoint{5, 1e-3}, TcpPoint{10, 0.0},
                      TcpPoint{10, 5e-3}, TcpPoint{25, 1e-2},
                      TcpPoint{50, 1e-4}, TcpPoint{100, 1e-3},
                      TcpPoint{200, 2e-2}));

//===----------------------------------------------------------------------===//
// Forecaster sanity across series shapes
//===----------------------------------------------------------------------===//

namespace {

struct SeriesCase {
  const char *Kind;
  uint64_t Seed;
};

// gtest's default printer dumps the raw bytes, including the address of
// Kind, so the ctest names it yields would change with every build.
void PrintTo(const SeriesCase &C, std::ostream *OS) {
  *OS << C.Kind << " seed " << C.Seed;
}

class ForecasterProperty : public ::testing::TestWithParam<SeriesCase> {};

std::vector<double> makeSeries(const SeriesCase &C, size_t N) {
  RandomEngine Rng(C.Seed);
  std::vector<double> S;
  S.reserve(N);
  std::string Kind = C.Kind;
  double Level = 50.0;
  for (size_t I = 0; I < N; ++I) {
    double X = 0.0;
    if (Kind == "constant")
      X = Level;
    else if (Kind == "noise")
      X = Level + Rng.normal(0, 10);
    else if (Kind == "trend")
      X = Level + 0.2 * static_cast<double>(I) + Rng.normal(0, 2);
    else if (Kind == "level-shift")
      X = (I < N / 2 ? Level : Level * 3.0) + Rng.normal(0, 2);
    else // "periodic"
      X = Level + 20.0 * std::sin(static_cast<double>(I) / 8.0) +
          Rng.normal(0, 2);
    S.push_back(X);
  }
  return S;
}

} // namespace

TEST_P(ForecasterProperty, AdaptiveIsFiniteAndCompetitive) {
  std::vector<double> Series = makeSeries(GetParam(), 400);
  NwsForecaster F;
  std::vector<double> Pred, Actual;
  for (size_t I = 0; I < Series.size(); ++I) {
    if (I > 20) {
      double P = F.predict();
      EXPECT_TRUE(std::isfinite(P));
      Pred.push_back(P);
      Actual.push_back(Series[I]);
    }
    F.observe(Series[I]);
  }
  double AdaptiveMse = stats::meanSquaredError(Pred, Actual);
  // The adaptive forecaster must not be worse than the *worst* member
  // (min-MSE selection guards against pathological members), and must be
  // within 2x of the best member's running MSE.
  double BestMse = Inf, WorstMse = 0.0;
  for (size_t I = 0; I < F.memberCount(); ++I) {
    BestMse = std::min(BestMse, F.memberMse(I));
    WorstMse = std::max(WorstMse, F.memberMse(I));
  }
  EXPECT_LE(AdaptiveMse, WorstMse * (1.0 + 1e-9));
  EXPECT_LE(AdaptiveMse, BestMse * 2.0 + 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    SeriesShapes, ForecasterProperty,
    ::testing::Values(SeriesCase{"constant", 1}, SeriesCase{"noise", 2},
                      SeriesCase{"noise", 3}, SeriesCase{"trend", 4},
                      SeriesCase{"trend", 5}, SeriesCase{"level-shift", 6},
                      SeriesCase{"level-shift", 7},
                      SeriesCase{"periodic", 8}, SeriesCase{"periodic", 9}));

//===----------------------------------------------------------------------===//
// Statistics invariants
//===----------------------------------------------------------------------===//

namespace {

class StatsProperty : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(StatsProperty, Invariants) {
  RandomEngine Rng(GetParam());
  size_t N = 2 + Rng.uniformInt(64);
  std::vector<double> X(N), Y(N);
  for (size_t I = 0; I < N; ++I) {
    X[I] = Rng.uniform(-100, 100);
    Y[I] = Rng.uniform(-100, 100);
  }

  // Percentiles are monotone in Q and bounded by min/max.
  double Lo = stats::percentile(X, 0.0), Hi = stats::percentile(X, 1.0);
  double Prev = Lo;
  for (double Q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    double P = stats::percentile(X, Q);
    EXPECT_GE(P, Prev - 1e-12);
    EXPECT_LE(P, Hi + 1e-12);
    Prev = P;
  }

  // Correlations live in [-1, 1]; spearman is invariant under monotone
  // transforms of one side.
  double Rho = stats::spearman(X, Y);
  EXPECT_GE(Rho, -1.0 - 1e-12);
  EXPECT_LE(Rho, 1.0 + 1e-12);
  std::vector<double> YCubed(N);
  for (size_t I = 0; I < N; ++I)
    YCubed[I] = Y[I] * Y[I] * Y[I];
  EXPECT_NEAR(stats::spearman(X, YCubed), Rho, 1e-9);
  double Tau = stats::kendallTau(X, Y);
  EXPECT_GE(Tau, -1.0 - 1e-12);
  EXPECT_LE(Tau, 1.0 + 1e-12);

  // Ranks are a permutation of 1..N when values are distinct.
  std::vector<double> R = stats::ranks(X);
  double Sum = 0.0;
  for (double V : R)
    Sum += V;
  EXPECT_NEAR(Sum, N * (N + 1) / 2.0, 1e-9);

  // Welford matches the two-pass computation.
  RunningStats S;
  for (double V : X)
    S.add(V);
  double Mean = stats::mean(X);
  double Var = 0.0;
  for (double V : X)
    Var += (V - Mean) * (V - Mean);
  Var /= static_cast<double>(N - 1);
  EXPECT_NEAR(S.mean(), Mean, 1e-9);
  EXPECT_NEAR(S.variance(), Var, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomVectors, StatsProperty,
                         ::testing::Range<uint64_t>(1, 26));

//===----------------------------------------------------------------------===//
// Protocol model properties across the protocol x size grid
//===----------------------------------------------------------------------===//

namespace {

struct ProtocolPoint {
  TransferProtocol Protocol;
  double SizeMB;
};

// The raw-byte default would print the uninitialised padding after
// Protocol into the ctest name.
void PrintTo(const ProtocolPoint &Pt, std::ostream *OS) {
  *OS << transferProtocolName(Pt.Protocol) << " " << Pt.SizeMB << " MB";
}

class ProtocolProperty : public ::testing::TestWithParam<ProtocolPoint> {};

} // namespace

TEST_P(ProtocolProperty, WireBytesAndStartupInvariants) {
  ProtocolPoint Pt = GetParam();
  Bytes Payload = megabytes(Pt.SizeMB);

  // Wire volume is monotone in payload, zero at zero, and at most a
  // fraction of a percent above the payload (MODE E framing only).
  Bytes Wire = protocolWireBytes(Pt.Protocol, Payload);
  EXPECT_GE(Wire, Payload);
  EXPECT_LE(Wire, Payload * 1.001);
  EXPECT_DOUBLE_EQ(protocolWireBytes(Pt.Protocol, 0.0), 0.0);
  EXPECT_GE(protocolWireBytes(Pt.Protocol, Payload * 2.0),
            Wire * 2.0 * (1.0 - 1e-12));

  // Startup is independent of payload, positive, monotone in RTT, and
  // ordered ftp <= gridftp-stream <= gridftp-modeE at any RTT.
  for (double RttMs : {1.0, 10.0, 100.0}) {
    NetPath P;
    P.Rtt = RttMs * 1e-3;
    SimTime Connect = 1.5 * P.Rtt;
    SimTime S = protocolStartupTime(Pt.Protocol, P, Connect, 1.0);
    EXPECT_GT(S, 0.0);
    NetPath Longer;
    Longer.Rtt = P.Rtt * 3.0;
    EXPECT_GT(protocolStartupTime(Pt.Protocol, Longer, 1.5 * Longer.Rtt, 1.0),
              S);
    EXPECT_LE(protocolStartupTime(TransferProtocol::Ftp, P, Connect, 1.0),
              protocolStartupTime(TransferProtocol::GridFtpStream, P, Connect,
                                  1.0));
    EXPECT_LE(protocolStartupTime(TransferProtocol::GridFtpStream, P, Connect,
                                  1.0),
              protocolStartupTime(TransferProtocol::GridFtpModeE, P, Connect,
                                  1.0));
  }
}

INSTANTIATE_TEST_SUITE_P(
    ProtocolGrid, ProtocolProperty,
    ::testing::Values(ProtocolPoint{TransferProtocol::Ftp, 64},
                      ProtocolPoint{TransferProtocol::Ftp, 2048},
                      ProtocolPoint{TransferProtocol::GridFtpStream, 64},
                      ProtocolPoint{TransferProtocol::GridFtpStream, 2048},
                      ProtocolPoint{TransferProtocol::GridFtpModeE, 64},
                      ProtocolPoint{TransferProtocol::GridFtpModeE, 256},
                      ProtocolPoint{TransferProtocol::GridFtpModeE, 2048}));

//===----------------------------------------------------------------------===//
// End-to-end transfer monotonicity
//===----------------------------------------------------------------------===//

namespace {

class TransferMonotoneProperty
    : public ::testing::TestWithParam<unsigned> {};

/// One shared two-node network; returns data seconds for a given size and
/// stream count on a fresh simulator each call.
double transferSeconds(Bytes Size, unsigned Streams) {
  Simulator Sim(5);
  Topology Topo;
  NodeId A = Topo.addNode("a"), B = Topo.addNode("b");
  Topo.addLink(A, B, mbps(100), milliseconds(10), 0.002);
  Routing Router(Topo);
  FlowNetwork Net(Sim, Topo, Router);
  FlowOptions Opt;
  Opt.Streams = Streams;
  double End = 0.0;
  Net.startFlow(A, B, Size, Opt,
                [&](const FlowStats &S) { End = S.EndTime; });
  Sim.run();
  return End;
}

} // namespace

TEST_P(TransferMonotoneProperty, TimeGrowsWithSizeAndShrinksWithStreams) {
  unsigned Streams = GetParam();
  double Prev = 0.0;
  for (double MB : {16.0, 32.0, 64.0, 128.0}) {
    double T = transferSeconds(megabytes(MB), Streams);
    EXPECT_GT(T, Prev);
    Prev = T;
  }
  if (Streams > 1) {
    EXPECT_LE(transferSeconds(megabytes(64), Streams),
              transferSeconds(megabytes(64), Streams - 1) + 1e-9);
  }
  // Throughput never exceeds the link goodput.
  double T = transferSeconds(megabytes(64), Streams);
  EXPECT_GE(T, megabytes(64) * 8.0 / (mbps(100)) * 0.94);
}

INSTANTIATE_TEST_SUITE_P(StreamCounts, TransferMonotoneProperty,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));
