//===- monitor/Forecaster.h - NWS-style forecasting battery ---------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Short-term performance forecasting in the style of the Network Weather
/// Service (Wolski, Spring & Hayes 1999), which the paper uses to "measure
/// and predict" network bandwidth "as accurate[ly] as possible".
///
/// NWS runs a battery of cheap predictors over each measurement series and,
/// at each step, reports the prediction of whichever predictor has the
/// lowest accumulated error so far ("dynamic predictor selection").  We
/// implement the classic battery: last value, running mean, sliding-window
/// means and medians of several widths, and exponential smoothing with
/// several gains, plus the adaptive meta-forecaster.
///
/// The predictors are plain value types that NwsForecaster holds and calls
/// directly: a grid run keeps one battery per sensor, so a battery carries
/// no names, vtables or pointer tables, only predictor state.  Member
/// names live once, in a static table in battery order.  The sliding
/// means and medians keep no copy of their window: the battery keeps one
/// ring of its last 40 observations and hands each of them the value
/// leaving its window.
///
/// State privacy: a forecaster's state belongs to the sensor that owns
/// it and is advanced only through that sensor's observe() calls.  No
/// forecaster may keep global/static mutable state or draw from a shared
/// RNG: trials run concurrently under --jobs, and a shared stream would
/// make one sensor's forecasts depend on how often another one samples
/// (DESIGN.md §12).
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_MONITOR_FORECASTER_H
#define DGSIM_MONITOR_FORECASTER_H

#include <cstddef>
#include <iterator>
#include <vector>

namespace dgsim {

/// Forecasts the most recent observation; 0 before the first.
class LastValueForecaster {
public:
  void observe(double Value) { Last = Value; }
  double predict() const { return Last; }

private:
  double Last = 0.0;
};

/// Forecasts the mean of the entire history.
class RunningMeanForecaster {
public:
  void observe(double Value) {
    Sum += Value;
    Count += 1.0;
  }
  double predict() const { return Count ? Sum / Count : 0.0; }

private:
  double Sum = 0.0;
  double Count = 0.0;
};

/// Forecasts the mean of a sliding window whose values its owner keeps:
/// add() while the window fills, then replace() with the value leaving it.
class SlidingMeanForecaster {
public:
  void add(double Value) {
    Sum += Value;
    ++Count;
  }
  /// Adds before subtracting: predictions are pinned bit for bit, and the
  /// other order rounds differently.
  void replace(double Expired, double Value) {
    Sum += Value;
    Sum -= Expired;
  }
  double predict() const {
    return Count == 0 ? 0.0 : Sum / static_cast<double>(Count);
  }

private:
  double Sum = 0.0;
  size_t Count = 0;
};

/// Forecasts the median of a sliding window whose values its owner keeps.
///
/// The window is kept in sorted order incrementally (insert and in-place
/// replacement are O(Window) memmoves over a few hundred bytes), so
/// predict() is O(1): the meta-forecaster calls every member's predict()
/// once per observation to score it.
class SlidingMedianForecaster {
public:
  void add(double Value);
  void replace(double Expired, double Value);
  double predict() const;

private:
  std::vector<double> Sorted;
};

/// Exponentially smoothed forecast with gain \p Alpha in (0, 1].
class ExponentialSmoothingForecaster {
public:
  explicit ExponentialSmoothingForecaster(double Alpha);
  void observe(double Value);
  double predict() const { return Smoothed; }

private:
  double Alpha;
  double Smoothed = 0.0;
  bool Seen = false;
};

/// The NWS meta-forecaster: runs the whole battery, tracks each member's
/// mean squared error over the stream seen so far, and forwards the
/// prediction of the current winner.
class NwsForecaster {
public:
  /// Incorporates a new observation.
  void observe(double Value);

  /// \returns the current winner's one-step-ahead forecast; 0 before the
  /// first observation.
  double predict() const { return memberPredict(bestIndex()); }

  /// \returns the name of the member with the lowest MSE so far.
  const char *bestMemberName() const { return memberName(bestIndex()); }

  /// \returns the current MSE of member \p I (battery order).
  double memberMse(size_t I) const;

  /// \returns member \p I's current prediction (battery order).  The
  /// prediction-accuracy harness ranks replicas under every member, not
  /// just the adaptive winner.
  double memberPredict(size_t I) const;

  /// \returns member \p I's name (battery order), e.g. "sw_mean(10)".
  static const char *memberName(size_t I);

  /// \returns the battery size.
  static constexpr size_t memberCount() { return BatterySize; }

  /// \returns the number of observations consumed.
  size_t observationCount() const { return Observations; }

private:
  static constexpr size_t BatterySize = 13;
  /// Sliding-window widths, shared by the means and the medians; the
  /// widest sets how many observations Recent keeps.
  static constexpr size_t Windows[] = {5, 10, 20, 40};
  static constexpr size_t MaxWindow = Windows[std::size(Windows) - 1];

  size_t bestIndex() const;

  // Battery order (fixed; MSE accumulation and tie-breaking depend on it):
  // last, run_mean, sw_mean(5,10,20,40), sw_median(5,10,20,40),
  // exp_smooth(0.05,0.25,0.75).
  LastValueForecaster Last;
  RunningMeanForecaster RunMean;
  SlidingMeanForecaster Means[std::size(Windows)];
  SlidingMedianForecaster Medians[std::size(Windows)];
  ExponentialSmoothingForecaster Smooth[3]{
      ExponentialSmoothingForecaster(0.05),
      ExponentialSmoothingForecaster(0.25),
      ExponentialSmoothingForecaster(0.75)};
  /// The last min(Observations, MaxWindow) observations, observation K in
  /// slot K % MaxWindow; grown as observations arrive.
  std::vector<double> Recent;
  double SquaredError[BatterySize] = {};
  size_t Observations = 0;
};

} // namespace dgsim

#endif // DGSIM_MONITOR_FORECASTER_H
