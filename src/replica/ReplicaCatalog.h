//===- replica/ReplicaCatalog.h - Logical-to-physical file mapping ---------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The replica catalog of the paper's Fig 1: applications pass a logical
/// file name; the catalog "queries its database and produces a list of
/// ... physical locations for all registered replicas".
///
/// This mirrors the Globus replica catalog's data model (logical files with
/// registered physical locations) without the LDAP machinery.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_REPLICA_REPLICACATALOG_H
#define DGSIM_REPLICA_REPLICACATALOG_H

#include "host/Host.h"
#include "support/StringInterner.h"
#include "support/Units.h"

#include <string>
#include <string_view>
#include <vector>

namespace dgsim {

/// A registered logical file and its replica locations.
struct LogicalFile {
  std::string Name;
  Bytes Size = 0.0;
  /// Hosts holding a complete copy, in registration order.
  std::vector<Host *> Locations;
};

/// The catalog service.  Logical file names are interned to dense ids on
/// registration; every lookup is one hash of the name plus a vector access,
/// and the per-job selection loop hits this on each locateRef().
class ReplicaCatalog {
public:
  /// Registers a logical file.  Names must be unique and sizes positive.
  void registerFile(std::string_view Lfn, Bytes Size);

  /// \returns true when \p Lfn is registered.
  bool hasFile(std::string_view Lfn) const;

  /// \returns the file size; the file must be registered.
  Bytes fileSize(std::string_view Lfn) const;

  /// Registers a replica of \p Lfn on \p Location.  Duplicate
  /// registrations are ignored.
  void addReplica(std::string_view Lfn, Host &Location);

  /// Unregisters a replica.  \returns true when one was removed.
  bool removeReplica(std::string_view Lfn, const Host &Location);

  /// \returns the hosts holding \p Lfn in registration order (empty when
  /// none or unknown).  The reference is invalidated by the next catalog
  /// mutation; copy the list to keep it across one.
  const std::vector<Host *> &locateRef(std::string_view Lfn) const;

  /// \returns the hosts holding \p Lfn sorted by host name (ties — which
  /// only arise if two hosts share a name — break on node id).  Unlike
  /// locateRef(), the order is independent of registration history, so
  /// failover sweeps and reports that iterate replicas stay deterministic
  /// across catalogs built in different orders.
  std::vector<Host *> listReplicas(std::string_view Lfn) const;

  /// \returns the replica of \p Lfn residing at \p Node, or nullptr.
  Host *replicaAt(std::string_view Lfn, NodeId Node) const;

  /// \returns all logical file names, sorted.
  std::vector<std::string> listFiles() const;

private:
  const LogicalFile *findFile(std::string_view Lfn) const;
  LogicalFile *findFile(std::string_view Lfn);

  /// Logical file name -> dense id; ids index Files.
  StringInterner LfnIds;
  std::vector<LogicalFile> Files;
};

} // namespace dgsim

#endif // DGSIM_REPLICA_REPLICACATALOG_H
