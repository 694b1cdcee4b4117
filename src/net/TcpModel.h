//===- net/TcpModel.h - Steady-state TCP throughput model -----------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An analytic model of what one TCP stream can sustain on a path.
///
/// Two effects bound a single stream below the raw link capacity on wide-area
/// paths, and both matter for reproducing the paper's Fig 4:
///
///   * the receiver/sender window: rate <= Wmax / RTT, and
///   * congestion losses: rate <= (MSS / RTT) * C / sqrt(p)
///     (the Mathis/Semke/Mahdavi/Ott square-root law, C = sqrt(3/2)).
///
/// GridFTP's MODE E opens N parallel streams, multiplying both bounds by N;
/// the aggregate is then clipped by the bottleneck link share.  This is
/// exactly why parallel data transfer "improves aggregate bandwidth" in the
/// paper, and why returns diminish once N * per-stream-cap exceeds the
/// bottleneck.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_NET_TCPMODEL_H
#define DGSIM_NET_TCPMODEL_H

#include "net/Routing.h"
#include "support/Units.h"

namespace dgsim {

/// Stateless throughput calculator: class constants and static methods.
class TcpModel {
public:
  /// Maximum segment size, bytes (Ethernet default).
  static constexpr double MssBytes = 1460.0;
  /// Maximum effective window, bytes.  64 KiB is the classic no-window-
  /// scaling default that made parallel streams worthwhile in 2005.
  static constexpr double MaxWindowBytes = 64.0 * 1024.0;
  /// Mathis constant (sqrt(3/2) for periodic losses with delayed ACKs off).
  static constexpr double MathisC = 1.224744871391589;
  /// TCP/IP + Ethernet header overhead as a fraction of payload (40 B of
  /// TCP/IP + 38 B of Ethernet framing per 1460 B+ segment); the goodput
  /// of a saturated link is Capacity / (1 + HeaderOverhead).
  static constexpr double HeaderOverhead = 0.058;
  /// Time to establish one connection (SYN handshake), in RTTs.
  static constexpr double ConnectRtts = 1.5;

  /// \returns the payload rate one stream can sustain on \p Path, before any
  /// competition for link capacity: min(window bound, loss bound).
  /// Local (zero-RTT) paths are unbounded by the window term.
  static BitRate perStreamCap(const NetPath &Path);

  /// \returns the aggregate cap for \p Streams parallel streams.
  static BitRate parallelCap(const NetPath &Path, unsigned Streams);

  /// \returns the usable payload fraction of raw link capacity.
  static double goodputFactor() { return 1.0 / (1.0 + HeaderOverhead); }

  /// \returns the time to open \p Connections TCP connections in series
  /// batches (GridFTP opens the parallel data connections concurrently, so
  /// this is one connect time regardless of N, plus per-connection setup
  /// charged by the protocol layer).
  static SimTime connectTime(const NetPath &Path) {
    return ConnectRtts * Path.Rtt;
  }
};

} // namespace dgsim

#endif // DGSIM_NET_TCPMODEL_H
