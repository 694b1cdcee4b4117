//===- monitor/RegressionForecaster.cpp -------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "monitor/RegressionForecaster.h"

#include <cassert>
#include <cmath>

using namespace dgsim;

void LeastSquaresAccumulator::add(double X, double Y) {
  assert(std::isfinite(X) && std::isfinite(Y) &&
         "least-squares inputs must be finite");
  ++N;
  double X2 = X * X;
  Sx += X;
  Sx2 += X2;
  Sx3 += X2 * X;
  Sx4 += X2 * X2;
  Sy += Y;
  Sxy += X * Y;
  Sx2y += X2 * Y;
}

namespace {

/// |Det| <= RelEps * (sum of the expansion terms' magnitudes) means the
/// system is singular for our purposes: the determinant is pure
/// cancellation noise.  Relative, so the test is invariant under scaling
/// x (constant x = 1e9 degrades exactly like constant x = 1).
constexpr double RelEps = 1e-9;

bool negligible(double Det, double Scale) {
  return !(std::fabs(Det) > RelEps * Scale);
}

} // namespace

PolyCoeffs LeastSquaresAccumulator::fit(unsigned Degree) const {
  assert(Degree <= 2 && "only polynomials up to degree 2 are supported");
  double Nd = static_cast<double>(N);
  if (Degree == 2 && N >= 3) {
    // Normal equations for [C0 C1 C2]:
    //   | N    Sx   Sx2  | |C0|   | Sy   |
    //   | Sx   Sx2  Sx3  | |C1| = | Sxy  |
    //   | Sx2  Sx3  Sx4  | |C2|   | Sx2y |
    double M00 = Sx2 * Sx4 - Sx3 * Sx3;
    double M01 = Sx * Sx4 - Sx3 * Sx2;
    double M02 = Sx * Sx3 - Sx2 * Sx2;
    double Det = Nd * M00 - Sx * M01 + Sx2 * M02;
    double Scale = std::fabs(Nd * Sx2 * Sx4) + std::fabs(Nd * Sx3 * Sx3) +
                   std::fabs(Sx * Sx * Sx4) + std::fabs(Sx * Sx3 * Sx2) +
                   std::fabs(Sx2 * Sx * Sx3) + std::fabs(Sx2 * Sx2 * Sx2);
    if (!negligible(Det, Scale)) {
      double D0 = Sy * M00 - Sx * (Sxy * Sx4 - Sx3 * Sx2y) +
                  Sx2 * (Sxy * Sx3 - Sx2 * Sx2y);
      double D1 = Nd * (Sxy * Sx4 - Sx3 * Sx2y) - Sy * M01 +
                  Sx2 * (Sx * Sx2y - Sxy * Sx2);
      double D2 = Nd * (Sx2 * Sx2y - Sx3 * Sxy) -
                  Sx * (Sx * Sx2y - Sxy * Sx2) + Sy * M02;
      PolyCoeffs C;
      C.C0 = D0 / Det;
      C.C1 = D1 / Det;
      C.C2 = D2 / Det;
      C.Degree = 2;
      if (std::isfinite(C.C0) && std::isfinite(C.C1) && std::isfinite(C.C2))
        return C;
      // Overflowed sums (astronomically scaled inputs): degrade, never
      // leak a non-finite coefficient.
    }
  }
  if (Degree >= 1 && N >= 2) {
    double Det = Nd * Sx2 - Sx * Sx;
    double Scale = std::fabs(Nd * Sx2) + Sx * Sx;
    if (!negligible(Det, Scale)) {
      PolyCoeffs C;
      C.C0 = (Sy * Sx2 - Sx * Sxy) / Det;
      C.C1 = (Nd * Sxy - Sx * Sy) / Det;
      C.Degree = 1;
      if (std::isfinite(C.C0) && std::isfinite(C.C1))
        return C;
    }
  }
  PolyCoeffs C;
  C.C0 = mean();
  C.Degree = 0;
  if (!std::isfinite(C.C0))
    C.C0 = 0.0;
  return C;
}

//===----------------------------------------------------------------------===//
// TransferForecaster
//===----------------------------------------------------------------------===//

static double mbOf(Bytes FileBytes) {
  return FileBytes / (1024.0 * 1024.0);
}

size_t TransferForecaster::sizeBucket(double Mb) {
  // Bucket 0: (0, 1] MB; bucket k: (2^(k-1), 2^k] MB; top bucket open.
  size_t B = 0;
  double Edge = 1.0;
  while (Mb > Edge && B + 1 < SizeBuckets) {
    Edge *= 2.0;
    ++B;
  }
  return B;
}

const char *TransferForecaster::armName(size_t I) {
  static const char *const Names[ArmCount] = {
      "probe", "log_mean", "log_lin(mb)", "log_quad(mb)", "log_part(size)"};
  assert(I < ArmCount && "arm index out of range");
  return Names[I];
}

double TransferForecaster::armPredict(size_t I, Bytes FileBytes,
                                      double ProbeForecast) const {
  assert(I < ArmCount && "arm index out of range");
  double Mb = mbOf(FileBytes);
  double P = 0.0;
  switch (I) {
  case 0:
    return ProbeForecast;
  case 1:
    P = Global.mean();
    break;
  case 2:
    P = Global.predict(1, Mb);
    break;
  case 3:
    P = Global.predict(2, Mb);
    break;
  case 4: {
    const LeastSquaresAccumulator &B = BySize[sizeBucket(Mb)];
    P = B.count() ? B.predict(1, Mb) : Global.mean();
    break;
  }
  }
  // A fit extrapolated past its sample range can go negative; a negative
  // throughput prediction is meaningless, so clamp.
  return P > 0.0 ? P : 0.0;
}

void TransferForecaster::observe(const TransferObservation &O,
                                 double ProbeForecast) {
  assert(std::isfinite(O.Throughput) && O.Throughput >= 0.0 &&
         "logged throughput must be finite and non-negative");
  // Postcast scoring first (the NwsForecaster convention): each arm
  // predicts this transfer from what it knew before seeing it.  The first
  // observation only trains — no arm has anything to say yet.
  if (Observations != 0) {
    for (size_t I = 0; I != ArmCount; ++I) {
      if (I == 0 && !std::isfinite(ProbeForecast))
        continue; // No probe sensor: nothing to score, nothing to poison.
      double E = armPredict(I, O.FileBytes, ProbeForecast) - O.Throughput;
      SquaredError[I] += E * E;
      ++Scored[I];
    }
  }
  double Mb = mbOf(O.FileBytes);
  Global.add(Mb, O.Throughput);
  BySize[sizeBucket(Mb)].add(Mb, O.Throughput);
  ++Observations;
}

size_t TransferForecaster::bestArm() const {
  // Strict minimum of mean squared error in arm order: equal errors keep
  // the lower arm id, so the winner is a pure function of the observation
  // stream — never of float-equality accidents resolving differently
  // across runs.  Unscored arms (the probe before its sensor exists) do
  // not compete.
  size_t Best = 0;
  bool Have = false;
  double BestMse = 0.0;
  for (size_t I = 0; I != ArmCount; ++I) {
    if (!Scored[I])
      continue;
    double Mse = SquaredError[I] / static_cast<double>(Scored[I]);
    if (!Have || Mse < BestMse) {
      Have = true;
      Best = I;
      BestMse = Mse;
    }
  }
  return Best;
}

double TransferForecaster::predict(Bytes FileBytes,
                                   double ProbeForecast) const {
  size_t Arm = bestArm();
  if (Arm == 0)
    return ProbeForecast;
  return armPredict(Arm, FileBytes, ProbeForecast);
}

double TransferForecaster::armMse(size_t I) const {
  assert(I < ArmCount && "arm index out of range");
  return Scored[I] ? SquaredError[I] / static_cast<double>(Scored[I]) : 0.0;
}

size_t TransferForecaster::armScored(size_t I) const {
  assert(I < ArmCount && "arm index out of range");
  return Scored[I];
}
