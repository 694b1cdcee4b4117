//===- host/Host.cpp -------------------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "host/Host.h"

#include <algorithm>
#include <cassert>

using namespace dgsim;

/// Draws and drops the root-stream fork a host's memory-load process took,
/// between the CPU and disk models, before that process was deleted.
/// Without it the disk model and every component built after the host
/// draw from a shifted seed, and every golden, journal and digest moves.
static Simulator &skipRetiredMemoryFork(Simulator &Sim) {
  Sim.forkRng();
  return Sim;
}

Host::Host(Simulator &Sim, HostConfig Config, NodeId Node,
           CpuLoadBatch *LoadBatch)
    : Config(Config), Node(Node), Cpu(Sim, Config.Cpu, LoadBatch),
      Dsk(skipRetiredMemoryFork(Sim), Config.DiskCfg, LoadBatch) {
  assert(!Config.Name.empty() && "hosts need a name");
  assert(Config.CpuSpeed > 0.0 && "non-positive CPU speed");
  assert(Config.NicRate > 0.0 && "non-positive NIC rate");
}

BitRate Host::sourceCap(unsigned ConcurrentReaders) const {
  BitRate DiskShare = Dsk.availableReadRate(ConcurrentReaders);
  return std::max(std::min(Config.NicRate, DiskShare) * cpuDerate(), 0.0);
}

BitRate Host::sinkCap(unsigned ConcurrentWriters) const {
  BitRate DiskShare = Dsk.availableWriteRate(ConcurrentWriters);
  return std::max(std::min(Config.NicRate, DiskShare) * cpuDerate(), 0.0);
}

SimTime Host::computeTime(SimTime ReferenceSeconds) const {
  assert(ReferenceSeconds >= 0.0 && "negative work");
  // Work shares the CPU with the background load: a host at load L has
  // (1 - L) of a CPU left, bounded away from zero so jobs always finish.
  double Available = std::max(1.0 - Cpu.load(), 0.05);
  return ReferenceSeconds / (Config.CpuSpeed * Available);
}
