//===- replica/ReplicaCatalog.cpp --------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "replica/ReplicaCatalog.h"

#include <algorithm>
#include <cassert>

using namespace dgsim;

const LogicalFile *ReplicaCatalog::findFile(std::string_view Lfn) const {
  StringInterner::Id Id = LfnIds.find(Lfn);
  return Id == StringInterner::InvalidId ? nullptr : &Files[Id];
}

LogicalFile *ReplicaCatalog::findFile(std::string_view Lfn) {
  StringInterner::Id Id = LfnIds.find(Lfn);
  return Id == StringInterner::InvalidId ? nullptr : &Files[Id];
}

void ReplicaCatalog::registerFile(std::string_view Lfn, Bytes Size) {
  assert(!Lfn.empty() && "logical file names must be non-empty");
  assert(Size > 0.0 && "logical files need a positive size");
  assert(LfnIds.find(Lfn) == StringInterner::InvalidId &&
         "duplicate logical file");
  StringInterner::Id Id = LfnIds.intern(Lfn);
  assert(Id == Files.size() && "intern ids must stay dense");
  (void)Id;
  LogicalFile F;
  F.Name = std::string(Lfn);
  F.Size = Size;
  Files.push_back(std::move(F));
}

bool ReplicaCatalog::hasFile(std::string_view Lfn) const {
  return findFile(Lfn) != nullptr;
}

Bytes ReplicaCatalog::fileSize(std::string_view Lfn) const {
  const LogicalFile *F = findFile(Lfn);
  assert(F && "unknown logical file");
  return F->Size;
}

void ReplicaCatalog::addReplica(std::string_view Lfn, Host &Location) {
  LogicalFile *F = findFile(Lfn);
  assert(F && "replica of an unregistered file");
  auto &Locs = F->Locations;
  if (std::find(Locs.begin(), Locs.end(), &Location) != Locs.end())
    return;
  Locs.push_back(&Location);
}

bool ReplicaCatalog::removeReplica(std::string_view Lfn,
                                   const Host &Location) {
  LogicalFile *F = findFile(Lfn);
  if (!F)
    return false;
  auto &Locs = F->Locations;
  auto Pos = std::find(Locs.begin(), Locs.end(), &Location);
  if (Pos == Locs.end())
    return false;
  Locs.erase(Pos);
  return true;
}

const std::vector<Host *> &
ReplicaCatalog::locateRef(std::string_view Lfn) const {
  static const std::vector<Host *> Empty;
  const LogicalFile *F = findFile(Lfn);
  return F ? F->Locations : Empty;
}

std::vector<Host *> ReplicaCatalog::listReplicas(std::string_view Lfn) const {
  std::vector<Host *> Locs = locateRef(Lfn);
  std::sort(Locs.begin(), Locs.end(), [](const Host *A, const Host *B) {
    if (int C = A->name().compare(B->name()))
      return C < 0;
    return A->node() < B->node();
  });
  return Locs;
}

Host *ReplicaCatalog::replicaAt(std::string_view Lfn, NodeId Node) const {
  const LogicalFile *F = findFile(Lfn);
  if (!F)
    return nullptr;
  for (Host *H : F->Locations)
    if (H->node() == Node)
      return H;
  return nullptr;
}

std::vector<std::string> ReplicaCatalog::listFiles() const {
  std::vector<std::string> Names;
  Names.reserve(Files.size());
  for (const LogicalFile &F : Files)
    Names.push_back(F.Name);
  // Files sit in registration order; the contract is sorted names.
  std::sort(Names.begin(), Names.end());
  return Names;
}
