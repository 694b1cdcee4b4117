//===- replica/StorageElement.h - Finite replica storage --------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Finite storage for replicas, and the eviction policies that manage it.
///
/// The paper's testbed had 10-80 GB disks holding multi-gigabyte replicas:
/// space is not free, and the classic Data Grid replication studies
/// (Ranganathan & Foster; the OptorSim line) pair replica *creation* with
/// an eviction policy.  A StorageElement tracks what one host stores; a
/// StorageManager coordinates placement with the ReplicaCatalog, evicting
/// by LRU or LFU but never dropping a file's last catalogued copy and
/// never touching pinned entries (in-flight replication targets, origin
/// copies the curators protect).
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_REPLICA_STORAGEELEMENT_H
#define DGSIM_REPLICA_STORAGEELEMENT_H

#include "replica/ReplicaCatalog.h"
#include "support/StringInterner.h"

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace dgsim {

/// How a full storage element chooses a victim.
enum class EvictionPolicy {
  /// Refuse to store when full.
  None,
  /// Evict the least recently accessed unpinned file.
  Lru,
  /// Evict the least frequently accessed unpinned file.
  Lfu,
};

/// \returns a short printable policy name.
const char *evictionPolicyName(EvictionPolicy P);

/// One host's replica store.
class StorageElement {
public:
  /// \p Capacity in bytes (> 0).
  StorageElement(Host &Owner, Bytes Capacity);

  Host &owner() const { return Owner; }
  Bytes capacity() const { return Capacity; }
  Bytes usedBytes() const { return Used; }
  Bytes freeBytes() const { return Capacity - Used; }

  /// \returns true when \p Lfn is stored here.
  bool contains(std::string_view Lfn) const;

  /// Records an access (updates LRU recency and LFU frequency).
  /// No-op when the file is absent.
  void touch(std::string_view Lfn, SimTime Now);

  /// Adds a file.  The caller must have made space; storing beyond
  /// capacity or storing a duplicate is a programming error.
  void add(std::string_view Lfn, Bytes Size, SimTime Now);

  /// Removes a file.  \returns true when it was present.
  bool remove(std::string_view Lfn);

  /// Pins a file (never evicted) or releases the pin.
  void setPinned(std::string_view Lfn, bool Pinned);
  bool pinned(std::string_view Lfn) const;

  /// \returns the access count of \p Lfn (0 when absent).
  uint64_t accessCount(std::string_view Lfn) const;

  /// \returns the eviction victim under \p Policy among unpinned files,
  /// or an empty string when none qualifies.  \p KeepSafe filters
  /// candidates (e.g. last-copy protection); it may be null.
  std::string
  pickVictim(EvictionPolicy Policy,
             const std::function<bool(const std::string &)> &CanEvict) const;

  /// All stored file names, unordered.
  std::vector<std::string> files() const;

private:
  struct Entry {
    Bytes Size = 0.0;
    SimTime LastAccess = 0.0;
    uint64_t AccessCount = 0;
    bool Pinned = false;
    /// Files come and go under eviction; a dead entry keeps its interned
    /// slot (names are never forgotten) and is skipped by scans.
    bool Present = false;
  };

  const Entry *findEntry(std::string_view Lfn) const;
  Entry *findEntry(std::string_view Lfn);

  Host &Owner;
  Bytes Capacity;
  Bytes Used = 0.0;
  size_t LiveCount = 0;
  /// File name -> dense id; ids index Entries.
  StringInterner LfnIds;
  std::vector<Entry> Entries;
};

/// Site-wide coordinator: storage elements + catalog consistency.
class StorageManager {
public:
  StorageManager(ReplicaCatalog &Catalog, EvictionPolicy Policy);

  /// Attaches a store of \p Capacity bytes to \p H.  Each host gets at
  /// most one store.
  StorageElement &attachStore(Host &H, Bytes Capacity);

  /// \returns the store of \p H, or nullptr when none is attached.
  StorageElement *storeOf(const Host &H);

  /// Makes room for \p Size bytes on \p H's store, evicting per policy.
  /// Evicted replicas are unregistered from the catalog.  Files whose
  /// only catalogued copy lives here are never evicted.  When
  /// \p IncomingHotness is finite, only strictly colder files (fewer
  /// recorded accesses) qualify as victims — admission control that
  /// stops a lukewarm file from thrashing out a hot one.
  /// \returns true when the space is available afterwards.
  bool ensureSpace(Host &H, Bytes Size, SimTime Now,
                   uint64_t IncomingHotness = ~0ULL);

  /// Registers a newly landed replica in both store and catalog.
  /// The space must have been ensured beforehand.
  void recordPlacement(const std::string &Lfn, Host &H, SimTime Now);

  /// Notes an access for recency/frequency bookkeeping.
  void recordAccess(const std::string &Lfn, const Host &H, SimTime Now);

  EvictionPolicy policy() const { return Policy; }

  /// Total evictions performed so far.
  uint64_t evictions() const { return Evictions; }

private:
  ReplicaCatalog &Catalog;
  EvictionPolicy Policy;
  /// Node-based, so attachStore never invalidates handed-out pointers;
  /// never iterated, so hash order is fine.
  std::unordered_map<const Host *, StorageElement> Stores;
  uint64_t Evictions = 0;
};

} // namespace dgsim

#endif // DGSIM_REPLICA_STORAGEELEMENT_H
