//===- support/TimeSeries.h - Timestamped measurement series --------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded, time-ordered series of (timestamp, value) samples.
///
/// Used by the Fig 5 cost program for its adjustable time-scale averaging;
/// its Sample type is also a sensor's last reading.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_SUPPORT_TIMESERIES_H
#define DGSIM_SUPPORT_TIMESERIES_H

#include "support/Units.h"

#include <cstddef>
#include <vector>

namespace dgsim {

/// One timestamped observation.
struct Sample {
  SimTime Time = 0.0;
  double Value = 0.0;
};

/// Time-ordered sample buffer with a configurable capacity; the oldest
/// samples are evicted first (NWS keeps a fixed history per sensor).
///
/// Bounded series are flat ring buffers: once warm, add() is a single
/// in-place overwrite that does not touch the allocator.
class TimeSeries {
public:
  /// \p Capacity zero means unbounded.
  explicit TimeSeries(size_t Capacity = 0) : Capacity(Capacity) {}

  /// Appends a sample.  Timestamps must be non-decreasing.
  void add(SimTime Time, double Value);

  bool empty() const { return Count == 0; }
  size_t size() const { return Count; }

  /// \returns the most recent sample; series must be non-empty.
  const Sample &latest() const;

  /// \returns the sample at position \p I (0 = oldest).
  const Sample &at(size_t I) const;

  /// \returns the values of the most recent \p N samples, oldest first.
  /// Returns all samples when fewer than \p N exist.
  std::vector<double> lastValues(size_t N) const;

  /// \returns the mean of samples with Time >= \p Since; 0 when none match.
  /// This is the Fig 5 "time scale" average.
  double meanSince(SimTime Since) const;

  /// \returns the number of samples with Time >= \p Since.
  size_t countSince(SimTime Since) const;

  /// \returns all values, oldest first.
  std::vector<double> values() const;

  /// Removes every sample.
  void clear() {
    Samples.clear();
    Head = 0;
    Count = 0;
  }

private:
  /// \returns the sample at logical position \p I (0 = oldest).
  const Sample &slot(size_t I) const {
    size_t Pos = Head + I;
    if (Pos >= Samples.size())
      Pos -= Samples.size();
    return Samples[Pos];
  }

  size_t Capacity;
  /// Physical storage; grows to Capacity then becomes a ring with Head
  /// marking the oldest sample (Head stays 0 while unbounded or filling).
  std::vector<Sample> Samples;
  size_t Head = 0;
  size_t Count = 0;
};

} // namespace dgsim

#endif // DGSIM_SUPPORT_TIMESERIES_H
