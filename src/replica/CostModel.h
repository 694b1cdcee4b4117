//===- replica/CostModel.h - The paper's replica selection cost model ------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Equation (1) of the paper:
///
///   Score_{i->j} = P^BW_{i->j} * W^BW + P^CPU_j * W^CPU + P^{I/O}_j * W^{I/O}
///
/// where i is the client's local site, j a candidate replica holder,
/// P^BW the current-to-theoretical bandwidth ratio, P^CPU / P^{I/O} the
/// candidate's idle percentages, and the W weights are set by the Data Grid
/// administrator.  "A high score represents the user or application
/// acquiring the replica effectively"; the best replica is the arg max.
///
/// The paper settles on W = (0.8, 0.1, 0.1) after observing that bandwidth
/// dominates transfer time while CPU and I/O only "slightly affect" it.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_REPLICA_COSTMODEL_H
#define DGSIM_REPLICA_COSTMODEL_H

#include "monitor/InformationService.h"

namespace dgsim {

/// Administrator-chosen weights of the paper's three Eq. (1) factors.
struct CostWeights {
  double Bandwidth = 0.8;
  double Cpu = 0.1;
  double Io = 0.1;

  /// \returns the weight sum (used for normalised comparisons).
  double sum() const { return Bandwidth + Cpu + Io; }
};

/// The scoring function.
class CostModel {
public:
  explicit CostModel(CostWeights Weights = CostWeights());

  const CostWeights &weights() const { return Weights; }

  /// \returns Score_{i->j} for the given measured factors; higher is better.
  double score(const SystemFactors &F) const;

private:
  CostWeights Weights;
};

} // namespace dgsim

#endif // DGSIM_REPLICA_COSTMODEL_H
