//===- gridftp/Protocol.cpp ------------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "gridftp/Protocol.h"

#include <cassert>

using namespace dgsim;

const char *dgsim::transferProtocolName(TransferProtocol P) {
  switch (P) {
  case TransferProtocol::Ftp:
    return "ftp";
  case TransferProtocol::GridFtpStream:
    return "gridftp-stream";
  case TransferProtocol::GridFtpModeE:
    return "gridftp-modeE";
  }
  assert(false && "unknown protocol");
  return "?";
}

SimTime dgsim::protocolStartupTime(TransferProtocol P,
                                   const NetPath &ControlPath,
                                   SimTime TcpConnectTime,
                                   double SlowerCpuSpeed) {
  assert(SlowerCpuSpeed > 0.0 && "non-positive CPU speed");
  SimTime Rtt = ControlPath.Rtt;
  // Control connection + dialogue + one data-channel connect; PASV-style
  // data connections for parallel streams open concurrently, so a single
  // connect time covers MODE E as well.
  SimTime T = TcpConnectTime + protocol::FtpDialogueRtts * Rtt +
              protocol::ServerSetupSeconds + TcpConnectTime;
  if (P == TransferProtocol::Ftp)
    return T;
  T += protocol::GsiHandshakeRtts * Rtt +
       protocol::GsiCryptoSeconds / SlowerCpuSpeed;
  if (P == TransferProtocol::GridFtpModeE)
    T += protocol::ModeENegotiationRtts * Rtt;
  return T;
}

Bytes dgsim::protocolWireBytes(TransferProtocol P, Bytes PayloadBytes) {
  assert(PayloadBytes >= 0.0 && "negative payload");
  if (P == TransferProtocol::GridFtpModeE)
    return PayloadBytes * (1.0 + protocol::ModeEOverheadFraction);
  return PayloadBytes;
}
