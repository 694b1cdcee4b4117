//===- host/Host.h - A grid end host ---------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An end host: CPU + disk + NIC, bound to a topology node.
///
/// Hosts provide the endpoint rate caps the transfer layer feeds into the
/// fluid network, and the idle fractions the monitoring layer reports.  The
/// CPU affects transfer throughput only mildly (the paper: "the CPU and I/O
/// statuses slightly affect the performance of data transfer"), which the
/// CpuTransferPenalty factor encodes.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_HOST_HOST_H
#define DGSIM_HOST_HOST_H

#include "host/CpuLoadModel.h"
#include "host/Disk.h"
#include "net/Topology.h"

#include <memory>
#include <string>
#include <vector>

namespace dgsim {

/// Static description of a host.
struct HostConfig {
  std::string Name;
  /// Relative CPU speed (1.0 = the paper's P4 2.8 GHz class machine).
  double CpuSpeed = 1.0;
  /// NIC line rate, bits/second.
  BitRate NicRate = 1e9;
  /// Fraction of transfer throughput lost per unit CPU load; about 20%
  /// at full load matches the "slight effect" observation.
  static constexpr double CpuTransferPenalty = 0.2;
  CpuLoadConfig Cpu;
  DiskConfig DiskCfg;
};

/// A live host bound to a topology node.
class Host {
public:
  /// \param LoadBatch optional shared batch: when non-null the CPU and
  /// disk-background OU processes join it instead of owning periodic
  /// events of their own (trajectories are identical; see CpuLoadBatch).
  Host(Simulator &Sim, HostConfig Config, NodeId Node,
       CpuLoadBatch *LoadBatch = nullptr);

  Host(const Host &) = delete;
  Host &operator=(const Host &) = delete;

  const std::string &name() const { return Config.Name; }
  NodeId node() const { return Node; }
  const HostConfig &config() const { return Config; }

  /// Current CPU idle fraction — the paper's P^CPU_j.
  double cpuIdle() const { return Cpu.idleFraction(); }

  /// Current I/O idle fraction — the paper's P^{I/O}_j.
  double ioIdle() const { return Dsk.idleFraction(); }

  //===--------------------------------------------------------------------===//
  // Availability (fault injection flips these; see src/fault/)
  //===--------------------------------------------------------------------===//

  /// Whether the machine itself is running (false between a crash and the
  /// reboot).  A down host can neither source nor absorb transfers.
  bool isUp() const { return Up; }
  void setUp(bool V) { Up = V; }

  /// Whether the host's storage service answers (false during a
  /// storage-element outage).  Replicas held here are unreachable while
  /// down, even though the machine is otherwise alive.
  bool storageUp() const { return StorageUp; }
  void setStorageUp(bool V) { StorageUp = V; }

  /// True when replicas at this host can actually be served: the machine
  /// is up and its storage answers.  Selection and failover only consider
  /// available hosts.
  bool available() const { return Up && StorageUp; }

  /// Payload rate this host can source for one more outbound transfer,
  /// assuming \p ConcurrentReaders transfers (including the new one) read
  /// the disk: min(NIC, disk share) derated by CPU load.
  BitRate sourceCap(unsigned ConcurrentReaders = 1) const;

  /// Payload rate this host can absorb for one more inbound transfer.
  BitRate sinkCap(unsigned ConcurrentWriters = 1) const;

  /// Seconds of CPU time this host needs for \p ReferenceSeconds of work on
  /// the reference (CpuSpeed = 1) machine, inflated by current load.
  SimTime computeTime(SimTime ReferenceSeconds) const;

  Disk &disk() { return Dsk; }
  const Disk &disk() const { return Dsk; }
  CpuLoadModel &cpu() { return Cpu; }
  const CpuLoadModel &cpu() const { return Cpu; }

private:
  double cpuDerate() const {
    return 1.0 - HostConfig::CpuTransferPenalty * Cpu.load();
  }

  HostConfig Config;
  NodeId Node;
  CpuLoadModel Cpu;
  Disk Dsk;
  bool Up = true;
  bool StorageUp = true;
};

} // namespace dgsim

#endif // DGSIM_HOST_HOST_H
