//===- monitor/Sysstat.h - sar/iostat-style host readouts ------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sysstat analogue: snapshot reports shaped like the sar and iostat
/// output the paper collects its I/O-state factor from.
///
/// Real sysstat derives its numbers from kernel counters; ours derive from
/// the simulated host.  The split of CPU busy time into user/system follows
/// a fixed ratio (interactive grid nodes spend most busy cycles in user
/// code), and disk transfers-per-second assume the device's nominal request
/// size — both are presentation details; the load-bearing numbers are the
/// idle percentages.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_MONITOR_SYSSTAT_H
#define DGSIM_MONITOR_SYSSTAT_H

#include "host/Host.h"

#include <string>

namespace dgsim {

/// One `sar -u`-shaped CPU utilisation snapshot (fractions, not percent).
struct SarCpuReport {
  double User = 0.0;
  double System = 0.0;
  double Idle = 0.0;
};

/// One `iostat -x`-shaped device snapshot.
struct IostatReport {
  /// Transfers per second issued to the device.
  double Tps = 0.0;
  /// Bytes read per second (payload).
  double ReadBytesPerSec = 0.0;
  /// Device utilisation fraction (%util / 100).
  double Utilization = 0.0;
  /// Idle fraction (1 - %util/100); the paper's P^{I/O}.
  double IdleFraction = 0.0;
};

namespace sysstat {

/// Fraction of CPU busy time attributed to user code.
inline constexpr double UserShareOfBusy = 0.85;

/// Nominal bytes moved per device transfer (64 KiB requests).
inline constexpr double BytesPerTransfer = 64.0 * 1024.0;

/// Collects a CPU snapshot from a host.
SarCpuReport collectSar(const Host &H);

/// Collects a device snapshot from a host's disk.
IostatReport collectIostat(const Host &H);

/// Renders a one-line, iostat-like summary (for tool output).
std::string formatIostat(const Host &H);

/// Renders a one-line, sar-like summary (for tool output).
std::string formatSar(const Host &H);

} // namespace sysstat
} // namespace dgsim

#endif // DGSIM_MONITOR_SYSSTAT_H
