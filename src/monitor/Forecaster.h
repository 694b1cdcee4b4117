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

#include <string>
#include <vector>

namespace dgsim {

/// One predictor over a scalar measurement stream.  Feed observations with
/// observe(); read the one-step-ahead forecast with predict().
class Forecaster {
public:
  virtual ~Forecaster() = default;

  /// \returns a short identifier such as "sw_mean(10)".
  virtual const std::string &name() const = 0;

  /// Incorporates a new observation.
  virtual void observe(double Value) = 0;

  /// \returns the current one-step-ahead forecast; 0 before the first
  /// observation.
  virtual double predict() const = 0;
};

/// Forecasts the most recent observation.
class LastValueForecaster final : public Forecaster {
public:
  LastValueForecaster();
  const std::string &name() const override { return Name; }
  void observe(double Value) override { Last = Value; }
  double predict() const override { return Last; }

private:
  std::string Name;
  double Last = 0.0;
};

/// Forecasts the mean of the entire history.
class RunningMeanForecaster final : public Forecaster {
public:
  RunningMeanForecaster();
  const std::string &name() const override { return Name; }
  void observe(double Value) override;
  double predict() const override { return Count ? Sum / Count : 0.0; }

private:
  std::string Name;
  double Sum = 0.0;
  double Count = 0.0;
};

/// Forecasts the mean of the last \p Window observations.
///
/// The window lives in a flat ring buffer (one allocation, no deque block
/// bookkeeping): observe() only needs the expiring value, not ordered
/// traversal.
class SlidingMeanForecaster final : public Forecaster {
public:
  explicit SlidingMeanForecaster(size_t Window);
  const std::string &name() const override { return Name; }
  void observe(double Value) override;
  double predict() const override;

private:
  std::string Name;
  size_t Window;
  /// Ring of the last Window values; Head is the oldest once full.
  std::vector<double> Ring;
  size_t Head = 0;
  size_t Count = 0;
  double Sum = 0.0;
};

/// Forecasts the median of the last \p Window observations.
///
/// The window is kept in sorted order incrementally (insert/erase are
/// O(Window) memmoves over a few hundred bytes), so predict() is O(1).
/// The meta-forecaster calls every member's predict() once per
/// observation to score it, which made the sort-on-read implementation
/// the hottest path in sensor-heavy runs.
class SlidingMedianForecaster final : public Forecaster {
public:
  explicit SlidingMedianForecaster(size_t Window);
  const std::string &name() const override { return Name; }
  void observe(double Value) override;
  double predict() const override;

private:
  std::string Name;
  size_t Window;
  /// Ring of the last Window values in arrival order; identifies which
  /// value expires next.
  std::vector<double> Ring;
  size_t Head = 0;
  size_t Count = 0;
  /// The same multiset as Ring, kept sorted.
  std::vector<double> Sorted;
};

/// Exponentially smoothed forecast with gain \p Alpha in (0, 1].
class ExponentialSmoothingForecaster final : public Forecaster {
public:
  explicit ExponentialSmoothingForecaster(double Alpha);
  const std::string &name() const override { return Name; }
  void observe(double Value) override;
  double predict() const override { return Smoothed; }

private:
  std::string Name;
  double Alpha;
  double Smoothed = 0.0;
  bool Seen = false;
};

/// The NWS meta-forecaster: runs the whole battery, tracks each member's
/// mean squared error over the stream seen so far, and forwards the
/// prediction of the current winner.
///
/// The battery is stored as concrete members (not boxed behind the
/// Forecaster interface): observe() makes 26 member calls per observation
/// and a grid run constructs one battery per sensor, so both the virtual
/// dispatch and the 13 per-battery heap allocations were measurable at
/// scale.  The \c Members table re-exposes the battery polymorphically for
/// introspection.
class NwsForecaster final : public Forecaster {
public:
  /// Builds the default battery (13 predictors).
  NwsForecaster();

  const std::string &name() const override { return Name; }
  void observe(double Value) override;
  double predict() const override;

  /// \returns the name of the member with the lowest MSE so far.
  const std::string &bestMemberName() const;

  /// \returns the current MSE of member \p I (battery order).
  double memberMse(size_t I) const;

  /// \returns member \p I's current prediction (battery order).  The
  /// prediction-accuracy harness ranks replicas under every member, not
  /// just the adaptive winner.
  double memberPredict(size_t I) const;

  /// \returns member \p I's name (battery order).
  const std::string &memberName(size_t I) const;

  /// \returns the battery size.
  size_t memberCount() const { return BatterySize; }

  /// \returns the number of observations consumed.
  size_t observationCount() const { return Observations; }

private:
  static constexpr size_t BatterySize = 13;

  size_t bestIndex() const;

  std::string Name;
  // Battery order (fixed; MSE accumulation and tie-breaking depend on it):
  // last, run_mean, sw_mean(5,10,20,40), sw_median(5,10,20,40),
  // exp_smooth(0.05,0.25,0.75).
  LastValueForecaster Last;
  RunningMeanForecaster RunMean;
  SlidingMeanForecaster Mean5, Mean10, Mean20, Mean40;
  SlidingMedianForecaster Median5, Median10, Median20, Median40;
  ExponentialSmoothingForecaster Smooth05, Smooth25, Smooth75;
  /// The battery in order, for name()/MSE introspection.
  Forecaster *Members[BatterySize];
  double SquaredError[BatterySize] = {};
  size_t Observations = 0;
};

} // namespace dgsim

#endif // DGSIM_MONITOR_FORECASTER_H
