//===- net/Routing.cpp -----------------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "net/Routing.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>

using namespace dgsim;

static uint64_t pairKey(NodeId Src, NodeId Dst) {
  return (static_cast<uint64_t>(Src) << 32) | Dst;
}

const NetPath *Routing::pathRef(NodeId Src, NodeId Dst) {
  const CacheEntry &E = lookup(Src, Dst);
  return E.Path.get();
}

const NetPath *Routing::acquirePath(NodeId Src, NodeId Dst) {
  CacheEntry &E = lookup(Src, Dst);
  if (!E.Path)
    return nullptr;
  ++E.Pins;
  return E.Path.get();
}

void Routing::releasePath(NodeId Src, NodeId Dst) {
  auto It = Cache.find(pairKey(Src, Dst));
  assert(It != Cache.end() && It->second.Pins > 0 &&
         "releasePath without matching acquirePath");
  --It->second.Pins;
}

bool Routing::reachable(NodeId Src, NodeId Dst) {
  assert(Src < Topo.nodeCount() && Dst < Topo.nodeCount() &&
         "route endpoint out of range");
  if (!Analyzed)
    analyzeStructure();
  // Component labels come from the BFS forest, which exists whether or not
  // the topology is a forest, so reachability never needs a route.
  return Component[Src] == Component[Dst];
}

Routing::CacheEntry &Routing::lookup(NodeId Src, NodeId Dst) {
  assert(Src < Topo.nodeCount() && Dst < Topo.nodeCount() &&
         "route endpoint out of range");
  uint64_t Key = pairKey(Src, Dst);
  auto It = Cache.find(Key);
  if (It != Cache.end()) {
    noteRecent(Key);
    return It->second;
  }
  if (!Analyzed)
    analyzeStructure();
  CacheEntry E = computeRoute(Src, Dst);
  auto Ins = Cache.emplace(Key, std::move(E)).first;
  noteRecent(Key);
  if (CacheLimit != 0 && Cache.size() > CacheLimit)
    evictSweep(Key);
  return Ins->second;
}

Routing::CacheEntry Routing::computeRoute(NodeId Src, NodeId Dst) {
  ++RoutesComputed;
  if (IsForest && TreeRoutingEnabled)
    return computeTreeRoute(Src, Dst);
  return computeDijkstraRoute(Src, Dst);
}

//===----------------------------------------------------------------------===//
// Structure analysis and LCA assembly
//===----------------------------------------------------------------------===//

void Routing::analyzeStructure() {
  size_t N = Topo.nodeCount();
  Parent.assign(N, InvalidNodeId);
  Depth.assign(N, 0);
  Component.assign(N, InvalidNodeId);
  UpChan.assign(N, ~0u);
  DownChan.assign(N, ~0u);
  // BFS spanning forest over all components, roots in ascending node order.
  // Every link that is not the tree link into a freshly discovered node is a
  // redundant path (cycle or parallel edge) and disqualifies the fast path.
  bool Forest = true;
  std::vector<NodeId> Queue;
  for (NodeId Root = 0; Root < NodeId(N); ++Root) {
    if (Component[Root] != InvalidNodeId)
      continue;
    Component[Root] = Root;
    Queue.clear();
    Queue.push_back(Root);
    for (size_t Head = 0; Head != Queue.size(); ++Head) {
      NodeId U = Queue[Head];
      for (LinkId L : Topo.linksAt(U)) {
        const NetLink &Ln = Topo.link(L);
        NodeId V = (Ln.A == U) ? Ln.B : Ln.A;
        if (Component[V] == InvalidNodeId) {
          Component[V] = Root;
          Parent[V] = U;
          Depth[V] = Depth[U] + 1;
          UpChan[V] = Topo.channelFrom(L, V);
          DownChan[V] = Topo.channelFrom(L, U);
          Queue.push_back(V);
        } else if (!(V == Parent[U] && Topo.channelFrom(L, U) == UpChan[U])) {
          // A self-loop, a parallel edge to the parent, or a cross edge.
          Forest = false;
        }
      }
    }
  }
  IsForest = Forest;
  Analyzed = true;
}

Routing::CacheEntry Routing::computeTreeRoute(NodeId Src, NodeId Dst) {
  CacheEntry E;
  if (Component[Src] != Component[Dst])
    return E; // Disconnected: cached negative.
  if (Src == Dst) {
    E.Path = std::make_unique<NetPath>(buildPath(Src, Dst, {}));
    return E;
  }
  // Lift the deeper endpoint, then both, collecting the up-channels on the
  // source side and the down-channels (parent -> child, gathered child-first)
  // on the destination side.  On a forest the tree path is the unique path,
  // so this matches Dijkstra channel-for-channel.
  UpScratch.clear();
  DownScratch.clear();
  NodeId U = Src, V = Dst;
  while (Depth[U] > Depth[V]) {
    UpScratch.push_back(UpChan[U]);
    U = Parent[U];
  }
  while (Depth[V] > Depth[U]) {
    DownScratch.push_back(DownChan[V]);
    V = Parent[V];
  }
  while (U != V) {
    UpScratch.push_back(UpChan[U]);
    U = Parent[U];
    DownScratch.push_back(DownChan[V]);
    V = Parent[V];
  }
  std::vector<ChannelId> Channels;
  Channels.reserve(UpScratch.size() + DownScratch.size());
  Channels.insert(Channels.end(), UpScratch.begin(), UpScratch.end());
  Channels.insert(Channels.end(), DownScratch.rbegin(), DownScratch.rend());
  E.Path = std::make_unique<NetPath>(buildPath(Src, Dst, Channels));
  return E;
}

//===----------------------------------------------------------------------===//
// Dijkstra fallback
//===----------------------------------------------------------------------===//

Routing::CacheEntry Routing::computeDijkstraRoute(NodeId Src, NodeId Dst) {
  // Dijkstra by (delay, hops).  The scratch vectors persist across queries:
  // after the first cache miss at a given topology size, route computation
  // does not allocate.
  const double Inf = std::numeric_limits<double>::infinity();
  size_t N = Topo.nodeCount();
  std::vector<double> &Dist = Scratch.Dist;
  std::vector<uint32_t> &Hops = Scratch.Hops;
  std::vector<ChannelId> &Via = Scratch.Via; // Channel entering each node.
  std::vector<NodeId> &Prev = Scratch.Prev;
  Dist.assign(N, Inf);
  Hops.assign(N, ~0u);
  Via.assign(N, ~0u);
  Prev.assign(N, InvalidNodeId);

  // push_heap/pop_heap with std::greater is exactly what the old
  // std::priority_queue did, so pop order — including ties — matches.
  using QEntry = std::tuple<double, uint32_t, NodeId>;
  std::vector<QEntry> &Q = Scratch.Heap;
  Q.clear();
  Dist[Src] = 0.0;
  Hops[Src] = 0;
  Q.push_back({0.0, 0, Src});

  while (!Q.empty()) {
    std::pop_heap(Q.begin(), Q.end(), std::greater<QEntry>());
    auto [D, H, U] = Q.back();
    Q.pop_back();
    if (D > Dist[U] || (D == Dist[U] && H > Hops[U]))
      continue;
    if (U == Dst)
      break;
    for (LinkId L : Topo.linksAt(U)) {
      const NetLink &Ln = Topo.link(L);
      NodeId V = (Ln.A == U) ? Ln.B : Ln.A;
      double ND = D + Ln.Delay;
      uint32_t NH = H + 1;
      if (ND < Dist[V] || (ND == Dist[V] && NH < Hops[V])) {
        Dist[V] = ND;
        Hops[V] = NH;
        Prev[V] = U;
        Via[V] = Topo.channelFrom(L, U);
        Q.push_back({ND, NH, V});
        std::push_heap(Q.begin(), Q.end(), std::greater<QEntry>());
      }
    }
  }

  CacheEntry E;
  if (Src == Dst) {
    E.Path = std::make_unique<NetPath>(buildPath(Src, Dst, {}));
  } else if (Dist[Dst] != Inf) {
    std::vector<ChannelId> Channels;
    for (NodeId Cur = Dst; Cur != Src; Cur = Prev[Cur])
      Channels.push_back(Via[Cur]);
    std::reverse(Channels.begin(), Channels.end());
    E.Path = std::make_unique<NetPath>(buildPath(Src, Dst, Channels));
  }
  return E;
}

//===----------------------------------------------------------------------===//
// Cache maintenance
//===----------------------------------------------------------------------===//

void Routing::noteRecent(uint64_t Key) {
  RecentKeys[RecentPos] = Key;
  RecentPos = (RecentPos + 1) % RecentRingSize;
}

void Routing::evictSweep(uint64_t Keep) {
  for (auto It = Cache.begin(); It != Cache.end();) {
    uint64_t Key = It->first;
    bool Protected = It->second.Pins > 0 || Key == Keep;
    if (!Protected)
      for (uint64_t R : RecentKeys)
        if (R == Key) {
          Protected = true;
          break;
        }
    if (Protected) {
      ++It;
    } else {
      It = Cache.erase(It);
      ++Evictions;
    }
  }
}

//===----------------------------------------------------------------------===//
// Aggregates
//===----------------------------------------------------------------------===//

NetPath Routing::buildPath(NodeId Src, NodeId Dst,
                           const std::vector<ChannelId> &Channels) const {
  (void)Src;
  (void)Dst;
  NetPath P;
  P.Channels = Channels;
  P.BottleneckCapacity = std::numeric_limits<double>::infinity();
  double DeliverProb = 1.0;
  SimTime OneWay = 0.0;
  for (ChannelId Ch : Channels) {
    const NetLink &L = Topo.channelLink(Ch);
    OneWay += L.Delay;
    P.BottleneckCapacity = std::min(P.BottleneckCapacity, L.Capacity);
    DeliverProb *= (1.0 - L.LossRate);
  }
  P.Rtt = 2.0 * OneWay;
  P.LossRate = 1.0 - DeliverProb;
  return P;
}
