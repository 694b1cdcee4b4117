//===- gridftp/Protocol.h - FTP / GridFTP protocol cost models -------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Protocol-level behaviour of the two transfer services the paper compares.
///
/// FTP (RFC 959, stream mode): a control-channel dialogue (USER/PASS/TYPE/
/// PASV/RETR) followed by one data connection carrying raw bytes.
///
/// GridFTP extends FTP with, among other things:
///   * GSI security on the control (and optionally data) channel -- extra
///     round trips plus public-key cryptography that costs CPU time;
///   * Extended Block Mode (MODE E): the data channel carries framed blocks
///     (8-bit flags + 64-bit offset + 64-bit length = 17 bytes of header
///     per block), which makes out-of-order arrival self-describing and so
///     permits N parallel TCP data connections;
///   * striped transfers.
///
/// The paper stresses (§4.2) that "parallel data transfer with one TCP
/// stream is not the same as no parallel data transfer at all": stream mode
/// has no framing and no MODE E negotiation, 1-stream MODE E has both.
/// The cost constants below encode exactly that distinction.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_GRIDFTP_PROTOCOL_H
#define DGSIM_GRIDFTP_PROTOCOL_H

#include "net/Routing.h"
#include "support/Units.h"

namespace dgsim {

/// Which wire protocol a transfer uses.
enum class TransferProtocol {
  /// Plain FTP, stream mode, single data connection.
  Ftp,
  /// GridFTP in default stream mode (compatible with plain FTP servers).
  GridFtpStream,
  /// GridFTP Extended Block Mode with N parallel data connections.
  GridFtpModeE,
};

/// \returns a short printable protocol name.
const char *transferProtocolName(TransferProtocol P);

/// Protocol cost constants.
namespace protocol {
/// Control-channel round trips for the pre-transfer FTP dialogue
/// (USER, PASS, TYPE, SIZE, PASV, RETR).
inline constexpr double FtpDialogueRtts = 5.0;
/// Extra control round trips GridFTP spends on GSI authentication.
inline constexpr double GsiHandshakeRtts = 2.0;
/// CPU seconds of public-key cryptography on the reference machine
/// (divided by the slower endpoint's CpuSpeed).
inline constexpr SimTime GsiCryptoSeconds = 0.35;
/// Extra round trips to negotiate MODE E and the parallelism option.
inline constexpr double ModeENegotiationRtts = 1.0;
/// Server-side setup latency (process fork, file open).
inline constexpr SimTime ServerSetupSeconds = 0.05;
/// MODE E data block payload size, bytes (globus-url-copy default).
inline constexpr double ModeEBlockBytes = 64.0 * 1024.0;
/// MODE E per-block header: 8-bit flags + 64-bit offset + 64-bit length.
inline constexpr double ModeEHeaderBytes = 17.0;
/// The fraction of extra wire bytes MODE E framing adds.
inline constexpr double ModeEOverheadFraction =
    ModeEHeaderBytes / ModeEBlockBytes;
} // namespace protocol

/// Computes the pre-data startup latency of a transfer on \p ControlPath.
/// \p SlowerCpuSpeed is the smaller of the two endpoints' CPU speeds
/// (GSI crypto runs on both ends; the slower dominates).
SimTime protocolStartupTime(TransferProtocol P, const NetPath &ControlPath,
                            SimTime TcpConnectTime, double SlowerCpuSpeed);

/// \returns the bytes that actually cross the wire for \p PayloadBytes.
Bytes protocolWireBytes(TransferProtocol P, Bytes PayloadBytes);

} // namespace dgsim

#endif // DGSIM_GRIDFTP_PROTOCOL_H
