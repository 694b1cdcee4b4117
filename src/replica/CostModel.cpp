//===- replica/CostModel.cpp -------------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "replica/CostModel.h"

#include <cassert>

using namespace dgsim;

CostModel::CostModel(CostWeights Weights) : Weights(Weights) {
  assert(Weights.Bandwidth >= 0.0 && Weights.Cpu >= 0.0 &&
         Weights.Io >= 0.0 && "weights must be non-negative");
  assert(Weights.sum() > 0.0 && "at least one weight must be positive");
  assert(Weights.ConfidenceBeta >= 0.0 && Weights.ConfidenceBeta <= 1.0 &&
         "confidence discount must lie in [0, 1]");
}

double CostModel::score(const SystemFactors &F) const {
  double BwTerm = F.BwFraction * Weights.Bandwidth;
  if (Weights.ConfidenceBeta > 0.0)
    BwTerm *= (1.0 - Weights.ConfidenceBeta) +
              Weights.ConfidenceBeta * F.BwConfidence;
  return BwTerm + F.CpuIdle * Weights.Cpu + F.IoIdle * Weights.Io;
}
