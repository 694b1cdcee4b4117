//===- monitor/TransferLog.cpp -----------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "monitor/TransferLog.h"

#include <cassert>

using namespace dgsim;

static uint64_t logKey(NodeId Server, NodeId Client) {
  return (static_cast<uint64_t>(Server) << 32) | Client;
}

void TransferLog::applyCorrupt(CorruptState &C, TransferObservation &O) {
  if (C.Depth == 0)
    return;
  // Heavy-tailed multiplicative poison: median 1, occasional order-of-
  // magnitude lies in both directions.
  O.Throughput *= C.Rng->logNormal(0.0, C.Scale);
  ++Corrupted;
}

void TransferLog::append(NodeId Server, NodeId Client,
                         const TransferObservation &O, double ProbeForecast) {
  uint64_t Key = logKey(Server, Client);
  TransferObservation Obs = O;
  applyCorrupt(GlobalCorrupt, Obs);
  if (!PathCorrupt.empty()) {
    auto It = PathCorrupt.find(Key);
    if (It != PathCorrupt.end())
      applyCorrupt(It->second, Obs);
  }
  PathLog &P = Paths[Key];
  if (GateAppends && !P.PathGate.admit(Obs.Throughput, Gate)) {
    // Implausible append: counted, never trained on, so nothing a
    // reader can observe through predict() changed.
    ++Rejected;
    return;
  }
  P.Fc.observe(Obs, ProbeForecast);
  ++Appends;
}

void TransferLog::beginCorrupt(uint64_t Seed, double Scale) {
  if (!GlobalCorrupt.Rng)
    GlobalCorrupt.Rng.emplace(Seed);
  ++GlobalCorrupt.Depth;
  GlobalCorrupt.Scale = Scale;
}

void TransferLog::endCorrupt() {
  assert(GlobalCorrupt.Depth > 0 && "unbalanced corrupt window");
  --GlobalCorrupt.Depth;
}

void TransferLog::beginCorruptPath(NodeId Server, NodeId Client,
                                   uint64_t Seed, double Scale) {
  CorruptState &C = PathCorrupt[logKey(Server, Client)];
  if (!C.Rng)
    C.Rng.emplace(Seed);
  ++C.Depth;
  C.Scale = Scale;
}

void TransferLog::endCorruptPath(NodeId Server, NodeId Client) {
  auto It = PathCorrupt.find(logKey(Server, Client));
  assert(It != PathCorrupt.end() && It->second.Depth > 0 &&
         "unbalanced corrupt window");
  --It->second.Depth;
}

double TransferLog::predict(NodeId Server, NodeId Client, Bytes FileBytes,
                            double ProbeForecast) const {
  auto It = Paths.find(logKey(Server, Client));
  if (It == Paths.end())
    return ProbeForecast;
  return It->second.Fc.predict(FileBytes, ProbeForecast);
}

const TransferForecaster *TransferLog::forecaster(NodeId Server,
                                                  NodeId Client) const {
  auto It = Paths.find(logKey(Server, Client));
  return It == Paths.end() ? nullptr : &It->second.Fc;
}
