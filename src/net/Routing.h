//===- net/Routing.h - Shortest-path routing over a Topology --------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shortest-path routing (metric: propagation delay, hop count as tie-break)
/// with a bounded per-pair path cache, plus derived path properties the TCP
/// model consumes: round-trip time, bottleneck capacity, and end-to-end loss
/// probability.
///
/// Two route engines sit behind one cache.  On the first query the router
/// analyses the topology: if it is a forest (which every generated tier
/// hierarchy is), routes decompose at the lowest common ancestor and are
/// assembled from per-node parent channels in O(depth) — no Dijkstra, no
/// all-pairs state.  Any topology with redundant
/// paths (cycles, parallel links) falls back to Dijkstra.  Both engines feed
/// the same aggregate computation, and on a forest the shortest path is
/// unique, so the produced NetPath is bit-identical either way.
///
/// The cache is bounded (see setCacheLimit): once it exceeds the limit a
/// sweep evicts unpinned entries.  Long-lived references — flows that keep a
/// path for their lifetime — pin their entry via acquirePath/releasePath;
/// transient multi-path uses are protected by a small ring of the most
/// recently returned entries.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_NET_ROUTING_H
#define DGSIM_NET_ROUTING_H

#include "net/Topology.h"

#include <array>
#include <cstdint>
#include <memory>
#include <tuple>
#include <unordered_map>
#include <vector>

namespace dgsim {

/// A routed unidirectional path and its aggregate properties.
struct NetPath {
  /// Channels traversed, source side first.  Empty for src == dst.
  std::vector<ChannelId> Channels;
  /// Round-trip time: twice the one-way propagation delay.
  SimTime Rtt = 0.0;
  /// Smallest channel capacity along the path (inf for empty paths).
  BitRate BottleneckCapacity = 0.0;
  /// End-to-end packet loss probability: 1 - prod(1 - p_link).
  double LossRate = 0.0;
};

/// Computes and caches shortest paths.  The topology must outlive the router
/// and must not change after the first query (the structure analysis and the
/// cache both assume a frozen link set).
class Routing {
public:
  explicit Routing(const Topology &Topo) : Topo(Topo) {}

  /// \returns a pointer to the cached path from \p Src to \p Dst, or
  /// nullptr when the nodes are disconnected.  The pointer stays valid until
  /// a later route computation overflows the cache and triggers an eviction
  /// sweep; the last few returned paths (RecentRingSize) always survive a
  /// sweep, so call-sites that look up a handful of paths and consume them
  /// before routing again need no pin.  Anything longer-lived must hold the
  /// entry through acquirePath/releasePath.
  const NetPath *pathRef(NodeId Src, NodeId Dst);

  /// pathRef plus a pin: the entry is exempt from eviction until the
  /// matching releasePath.  Pins nest (a counter per entry).  \returns
  /// nullptr (and pins nothing) when the nodes are disconnected.
  const NetPath *acquirePath(NodeId Src, NodeId Dst);

  /// Releases a pin taken by acquirePath for the same (Src, Dst).
  void releasePath(NodeId Src, NodeId Dst);

  /// \returns true when \p Src can reach \p Dst.  O(1) after the first
  /// query (component labels from the structure analysis); never populates
  /// the path cache.
  bool reachable(NodeId Src, NodeId Dst);

  /// Disables the LCA fast path, forcing Dijkstra for every route.  Call
  /// before the first query; used by the differential tests.
  void setTreeRouting(bool Enabled) { TreeRoutingEnabled = Enabled; }

  /// Caps the number of cached path entries; a route computation that grows
  /// the cache beyond the limit triggers an eviction sweep of unpinned,
  /// non-recent entries.  0 means unbounded.  The default is high enough
  /// that paper-testbed-sized grids never evict.
  void setCacheLimit(size_t Limit) { CacheLimit = Limit; }

  /// Introspection for tests and benches.
  size_t cacheSize() const { return Cache.size(); }
  uint64_t evictions() const { return Evictions; }
  uint64_t routesComputed() const { return RoutesComputed; }
  /// \returns true when the topology was recognised as a forest and routes
  /// are assembled by LCA decomposition (analysis runs on first query).
  bool usesTreeRouting() const { return Analyzed && IsForest; }

  /// Entries guaranteed to survive an eviction sweep without a pin: the
  /// most recent distinct pathRef results.
  static constexpr size_t RecentRingSize = 16;
  /// Default cache bound; ~64k entries is a few MB of paths.
  static constexpr size_t DefaultCacheLimit = 1u << 16;

private:
  struct CacheEntry {
    std::unique_ptr<NetPath> Path; // nullptr = cached negative (disconnected)
    uint32_t Pins = 0;
  };

  CacheEntry &lookup(NodeId Src, NodeId Dst);
  CacheEntry computeRoute(NodeId Src, NodeId Dst);
  CacheEntry computeTreeRoute(NodeId Src, NodeId Dst);
  CacheEntry computeDijkstraRoute(NodeId Src, NodeId Dst);
  NetPath buildPath(NodeId Src, NodeId Dst,
                    const std::vector<ChannelId> &Channels) const;
  void analyzeStructure();
  void noteRecent(uint64_t Key);
  void evictSweep(uint64_t Keep);

  const Topology &Topo;
  std::unordered_map<uint64_t, CacheEntry> Cache;
  size_t CacheLimit = DefaultCacheLimit;
  std::array<uint64_t, RecentRingSize> RecentKeys{};
  size_t RecentPos = 0;
  uint64_t Evictions = 0;
  uint64_t RoutesComputed = 0;

  /// Structure analysis (lazy, first query).  BFS spanning forest rooted at
  /// the lowest node id of each component; when every link is a tree link
  /// the topology is a forest and the unique path between two nodes is the
  /// tree path through their LCA.
  bool Analyzed = false;
  bool IsForest = false;
  bool TreeRoutingEnabled = true;
  std::vector<NodeId> Parent;      // InvalidNodeId at roots
  std::vector<uint32_t> Depth;     // 0 at roots
  std::vector<NodeId> Component;   // BFS root label; equality = reachable
  std::vector<ChannelId> UpChan;   // node -> parent channel
  std::vector<ChannelId> DownChan; // parent -> node channel

  /// Dijkstra working set, reused across cache misses so repeated route
  /// computation stops allocating once the vectors reach node-count size.
  /// The heap entries keep the (delay, hops, node) ordering the old
  /// priority_queue used, so equal-cost tie-breaks are unchanged.
  struct DijkstraScratch {
    std::vector<double> Dist;
    std::vector<uint32_t> Hops;
    std::vector<ChannelId> Via;
    std::vector<NodeId> Prev;
    std::vector<std::tuple<double, uint32_t, NodeId>> Heap;
  };
  DijkstraScratch Scratch;
  /// LCA assembly scratch: up-segment and reversed down-segment channels.
  std::vector<ChannelId> UpScratch;
  std::vector<ChannelId> DownScratch;
};

} // namespace dgsim

#endif // DGSIM_NET_ROUTING_H
