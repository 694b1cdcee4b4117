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
}

double CostModel::score(const SystemFactors &F) const {
  return F.BwFraction * Weights.Bandwidth + F.CpuIdle * Weights.Cpu +
         F.IoIdle * Weights.Io;
}
