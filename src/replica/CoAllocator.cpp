//===- replica/CoAllocator.cpp --------------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "replica/CoAllocator.h"

#include <algorithm>
#include <cassert>

using namespace dgsim;

CoAllocator::CoAllocator(ReplicaCatalog &Catalog, InformationService &Info,
                         TransferManager &Transfers,
                         CoAllocationConfig Config)
    : Catalog(Catalog), Info(Info), Transfers(Transfers), Config(Config) {
  assert(Config.MaxSources >= 1 && "need at least one source");
  assert(Config.StreamsPerSource >= 1 && "need at least one stream");
  assert(Config.MinShare >= 0.0 && Config.MinShare < 1.0 &&
         "MinShare outside [0, 1)");
}

CoAllocationPlan CoAllocator::plan(const std::string &Lfn, Host &Client) {
  const std::vector<Host *> &Replicas = Catalog.locateRef(Lfn);
  assert(!Replicas.empty() && "co-allocating a file with no replicas");

  CoAllocationPlan Plan;
  // A local copy needs no network at all.
  if (Host *Local = Catalog.replicaAt(Lfn, Client.node())) {
    Plan.Sources = {Local};
    Plan.Weights = {1.0};
    return Plan;
  }

  // Rank servers by predicted bandwidth toward the client.
  std::vector<std::pair<double, Host *>> Ranked;
  for (Host *H : Replicas)
    Ranked.push_back(
        {Info.query(Client.node(), *H).PredictedBandwidth, H});
  std::sort(Ranked.begin(), Ranked.end(),
            [](const auto &A, const auto &B) { return A.first > B.first; });
  if (Ranked.size() > Config.MaxSources)
    Ranked.resize(Config.MaxSources);

  // Drop servers whose predicted contribution is negligible.
  double Total = 0.0;
  for (auto &[Bw, H] : Ranked)
    Total += Bw;
  if (Total > 0.0) {
    Ranked.erase(std::remove_if(Ranked.begin(), Ranked.end(),
                                [&](const auto &R) {
                                  return R.first < Config.MinShare * Total;
                                }),
                 Ranked.end());
  }
  if (Ranked.empty())
    Ranked.push_back({1.0, Replicas.front()});

  double Kept = 0.0;
  for (auto &[Bw, H] : Ranked)
    Kept += Bw;
  for (auto &[Bw, H] : Ranked) {
    Plan.Sources.push_back(H);
    if (Config.Scheme == CoAllocationScheme::EqualSplit || Kept <= 0.0)
      Plan.Weights.push_back(1.0 / static_cast<double>(Ranked.size()));
    else
      Plan.Weights.push_back(Bw / Kept);
  }
  return Plan;
}

TransferId CoAllocator::fetch(const std::string &Lfn, Host &Client,
                              TransferManager::CompletionFn OnComplete) {
  CoAllocationPlan Plan = plan(Lfn, Client);
  TransferSpec Spec;
  Spec.Destination = &Client;
  Spec.FileBytes = Catalog.fileSize(Lfn);
  Spec.Protocol = TransferProtocol::GridFtpModeE;
  Spec.Streams = Config.StreamsPerSource;
  if (Plan.Sources.size() == 1) {
    Spec.Source = Plan.Sources.front();
  } else {
    Spec.Stripes = Plan.Sources;
    Spec.StripeWeights = Plan.Weights;
  }
  return Transfers.submit(Spec, std::move(OnComplete));
}
