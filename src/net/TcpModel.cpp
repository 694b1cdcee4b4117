//===- net/TcpModel.cpp ----------------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "net/TcpModel.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

using namespace dgsim;

BitRate TcpModel::perStreamCap(const NetPath &Path) {
  const double Inf = std::numeric_limits<double>::infinity();
  if (Path.Rtt <= 0.0) {
    // Same-host or zero-delay path: neither window nor loss binds.
    return Inf;
  }
  double WindowBound = MaxWindowBytes * 8.0 / Path.Rtt;
  double LossBound = Inf;
  if (Path.LossRate > 0.0)
    LossBound = (MssBytes * 8.0 / Path.Rtt) * MathisC /
                std::sqrt(Path.LossRate);
  return std::min(WindowBound, LossBound);
}

BitRate TcpModel::parallelCap(const NetPath &Path, unsigned Streams) {
  assert(Streams >= 1 && "need at least one stream");
  BitRate One = perStreamCap(Path);
  if (std::isinf(One))
    return One;
  return One * static_cast<double>(Streams);
}
