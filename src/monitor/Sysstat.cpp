//===- monitor/Sysstat.cpp -------------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "monitor/Sysstat.h"

#include <cstdio>

using namespace dgsim;

SarCpuReport sysstat::collectSar(const Host &H) {
  SarCpuReport R;
  double Busy = H.cpu().load();
  R.User = Busy * UserShareOfBusy;
  R.System = Busy * (1.0 - UserShareOfBusy);
  R.Idle = 1.0 - Busy;
  return R;
}

IostatReport sysstat::collectIostat(const Host &H) {
  IostatReport R;
  const Disk &D = H.disk();
  R.Utilization = D.busyFraction();
  R.IdleFraction = D.idleFraction();
  // Busy fraction times peak throughput approximates the byte flux; divide
  // by the nominal request size for a tps figure.
  R.ReadBytesPerSec = D.config().ReadRate / 8.0 * R.Utilization;
  R.Tps = R.ReadBytesPerSec / BytesPerTransfer;
  return R;
}

std::string sysstat::formatIostat(const Host &H) {
  IostatReport R = collectIostat(H);
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "%-10s tps %8.1f  rB/s %12.0f  %%util %5.1f  %%idle %5.1f",
                H.name().c_str(), R.Tps, R.ReadBytesPerSec,
                R.Utilization * 100.0, R.IdleFraction * 100.0);
  return std::string(Buf);
}

std::string sysstat::formatSar(const Host &H) {
  SarCpuReport R = collectSar(H);
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "%-10s %%user %5.1f  %%system %5.1f  %%idle %5.1f",
                H.name().c_str(), R.User * 100.0, R.System * 100.0,
                R.Idle * 100.0);
  return std::string(Buf);
}
