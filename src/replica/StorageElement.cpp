//===- replica/StorageElement.cpp ----------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "replica/StorageElement.h"

#include <algorithm>
#include <cassert>

using namespace dgsim;

const char *dgsim::evictionPolicyName(EvictionPolicy P) {
  switch (P) {
  case EvictionPolicy::None:
    return "none";
  case EvictionPolicy::Lru:
    return "lru";
  case EvictionPolicy::Lfu:
    return "lfu";
  }
  assert(false && "unknown eviction policy");
  return "?";
}

StorageElement::StorageElement(Host &Owner, Bytes Capacity)
    : Owner(Owner), Capacity(Capacity) {
  assert(Capacity > 0.0 && "storage elements need positive capacity");
}

const StorageElement::Entry *
StorageElement::findEntry(std::string_view Lfn) const {
  StringInterner::Id Id = LfnIds.find(Lfn);
  if (Id == StringInterner::InvalidId || !Entries[Id].Present)
    return nullptr;
  return &Entries[Id];
}

StorageElement::Entry *StorageElement::findEntry(std::string_view Lfn) {
  StringInterner::Id Id = LfnIds.find(Lfn);
  if (Id == StringInterner::InvalidId || !Entries[Id].Present)
    return nullptr;
  return &Entries[Id];
}

bool StorageElement::contains(std::string_view Lfn) const {
  return findEntry(Lfn) != nullptr;
}

void StorageElement::touch(std::string_view Lfn, SimTime Now) {
  Entry *E = findEntry(Lfn);
  if (!E)
    return;
  E->LastAccess = Now;
  ++E->AccessCount;
}

void StorageElement::add(std::string_view Lfn, Bytes Size, SimTime Now) {
  assert(Size >= 0.0 && "negative file size");
  assert(!contains(Lfn) && "file already stored");
  assert(Used + Size <= Capacity * (1.0 + 1e-9) &&
         "storing beyond capacity; call ensureSpace first");
  StringInterner::Id Id = LfnIds.intern(Lfn);
  if (Id == Entries.size())
    Entries.emplace_back();
  Entry &E = Entries[Id];
  E.Size = Size;
  E.LastAccess = Now;
  E.AccessCount = 1;
  E.Pinned = false;
  E.Present = true;
  ++LiveCount;
  Used += Size;
}

bool StorageElement::remove(std::string_view Lfn) {
  Entry *E = findEntry(Lfn);
  if (!E)
    return false;
  Used -= E->Size;
  if (Used < 0.0)
    Used = 0.0;
  E->Present = false;
  --LiveCount;
  return true;
}

void StorageElement::setPinned(std::string_view Lfn, bool Pinned) {
  Entry *E = findEntry(Lfn);
  assert(E && "pinning an absent file");
  E->Pinned = Pinned;
}

bool StorageElement::pinned(std::string_view Lfn) const {
  const Entry *E = findEntry(Lfn);
  return E && E->Pinned;
}

uint64_t StorageElement::accessCount(std::string_view Lfn) const {
  const Entry *E = findEntry(Lfn);
  return E ? E->AccessCount : 0;
}

std::string StorageElement::pickVictim(
    EvictionPolicy Policy,
    const std::function<bool(const std::string &)> &CanEvict) const {
  if (Policy == EvictionPolicy::None)
    return {};
  // Entries sit in intern order, but eviction must be deterministic under
  // any insertion history: ties on the policy metric break towards the
  // lexicographically smallest name (what the ordered-map scan used to
  // yield implicitly).
  const std::string *Victim = nullptr;
  const Entry *VictimEntry = nullptr;
  for (StringInterner::Id Id = 0; Id < Entries.size(); ++Id) {
    const Entry &E = Entries[Id];
    if (!E.Present || E.Pinned)
      continue;
    const std::string &Lfn = LfnIds.name(Id);
    if (CanEvict && !CanEvict(Lfn))
      continue;
    bool Better = false;
    bool Tie = false;
    if (!VictimEntry) {
      Better = true;
    } else if (Policy == EvictionPolicy::Lru) {
      Better = E.LastAccess < VictimEntry->LastAccess;
      Tie = E.LastAccess == VictimEntry->LastAccess;
    } else { // Lfu
      Better = E.AccessCount < VictimEntry->AccessCount ||
               (E.AccessCount == VictimEntry->AccessCount &&
                E.LastAccess < VictimEntry->LastAccess);
      Tie = E.AccessCount == VictimEntry->AccessCount &&
            E.LastAccess == VictimEntry->LastAccess;
    }
    if (Better || (Tie && Lfn < *Victim)) {
      Victim = &Lfn;
      VictimEntry = &E;
    }
  }
  return Victim ? *Victim : std::string();
}

std::vector<std::string> StorageElement::files() const {
  std::vector<std::string> Names;
  Names.reserve(LiveCount);
  for (StringInterner::Id Id = 0; Id < Entries.size(); ++Id)
    if (Entries[Id].Present)
      Names.push_back(LfnIds.name(Id));
  std::sort(Names.begin(), Names.end());
  return Names;
}

StorageManager::StorageManager(ReplicaCatalog &Catalog,
                               EvictionPolicy Policy)
    : Catalog(Catalog), Policy(Policy) {}

StorageElement &StorageManager::attachStore(Host &H, Bytes Capacity) {
  assert(Stores.find(&H) == Stores.end() && "host already has a store");
  auto [It, Inserted] =
      Stores.emplace(&H, StorageElement(H, Capacity));
  (void)Inserted;
  return It->second;
}

StorageElement *StorageManager::storeOf(const Host &H) {
  auto It = Stores.find(&H);
  return It == Stores.end() ? nullptr : &It->second;
}

bool StorageManager::ensureSpace(Host &H, Bytes Size, SimTime Now,
                                 uint64_t IncomingHotness) {
  (void)Now;
  StorageElement *SE = storeOf(H);
  assert(SE && "host has no attached store");
  if (Size > SE->capacity())
    return false; // Could never fit.

  // Evict until the file fits; last catalogued copies are untouchable,
  // and (under admission control) so are files at least as hot as the
  // one trying to come in.
  auto CanEvict = [this, SE, IncomingHotness](const std::string &Lfn) {
    if (Catalog.locateRef(Lfn).size() <= 1)
      return false;
    return SE->accessCount(Lfn) < IncomingHotness;
  };
  while (SE->freeBytes() < Size) {
    std::string Victim = SE->pickVictim(Policy, CanEvict);
    if (Victim.empty())
      return false;
    SE->remove(Victim);
    Catalog.removeReplica(Victim, H);
    ++Evictions;
  }
  return true;
}

void StorageManager::recordPlacement(const std::string &Lfn, Host &H,
                                     SimTime Now) {
  StorageElement *SE = storeOf(H);
  assert(SE && "host has no attached store");
  assert(Catalog.hasFile(Lfn) && "placing an unregistered file");
  if (!SE->contains(Lfn))
    SE->add(Lfn, Catalog.fileSize(Lfn), Now);
  Catalog.addReplica(Lfn, H);
}

void StorageManager::recordAccess(const std::string &Lfn, const Host &H,
                                  SimTime Now) {
  auto It = Stores.find(&H);
  if (It == Stores.end())
    return;
  It->second.touch(Lfn, Now);
}
