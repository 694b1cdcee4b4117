//===- dgbench/src/Spans.h - In-memory spans around layer calls -----------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans the benchmark records around its own calls into dgsim's public
/// functions (grid build, kernel run, fetch, policy choice, oracle
/// evaluation).  Each span has a layer, a start, an end, the span that was
/// open when it began (its parent) and a request id: the spans of one
/// fetch share the fetch's arrival index.
///
/// Spans stay in memory and are written once, at exit, as Chrome
/// trace-event JSON (load it in chrome://tracing or Perfetto).  The layer
/// table derives self time — a span's duration minus the part of its
/// interval its child spans cover — so a layer's share of wall time is
/// not counted twice when layers nest.
///
//===----------------------------------------------------------------------===//

#ifndef DGBENCH_SPANS_H
#define DGBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace dgbench {

/// One closed or open interval on the benchmark's clock.
struct Span {
  uint32_t Layer = 0;
  /// Index of the enclosing span, or NoParent.
  uint32_t Parent = 0;
  uint64_t Id = 0;
  int64_t StartNs = 0;
  int64_t EndNs = -1;

  int64_t durationNs() const { return EndNs - StartNs; }
};

inline constexpr uint32_t NoParent = ~0u;

/// Totals of one layer across every span.
struct LayerTotals {
  std::string Name;
  uint64_t Calls = 0;
  int64_t TotalNs = 0;
  int64_t SelfNs = 0;
};

/// \returns the length of \p [Start, End) not covered by any of
/// \p Children's intervals (clipped to the parent; overlapping children
/// count once).
int64_t selfTimeNs(int64_t Start, int64_t End,
                   std::vector<std::pair<int64_t, int64_t>> Children);

/// Records nested spans on one thread.
class SpanRecorder {
public:
  SpanRecorder();

  /// Registers (or finds) a layer by name.
  uint32_t layer(const std::string &Name);

  /// Opens a span of \p Layer; an \p Id of 0 inherits the parent's id.
  /// \returns the span's index, for end().
  uint32_t begin(uint32_t Layer, uint64_t Id = 0);

  /// Closes the innermost open span, which must be \p Index.
  void end(uint32_t Index);

  int64_t nowNs() const;

  const std::vector<Span> &spans() const { return Spans; }
  const std::vector<std::string> &layerNames() const { return Names; }

  /// Per-layer calls, total and self time, in layer registration order.
  std::vector<LayerTotals> totals() const;

  /// Writes every span as Chrome trace-event JSON ("X" complete events,
  /// microsecond timestamps, the request id and parent in args).
  /// \returns false on a write error.
  bool writeChromeTrace(std::FILE *Out) const;

private:
  std::chrono::steady_clock::time_point Epoch;
  std::vector<std::string> Names;
  std::vector<Span> Spans;
  std::vector<uint32_t> Open;
};

/// RAII span; a null recorder makes it a no-op that reads no clock.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder *R, uint32_t Layer, uint64_t Id = 0)
      : R(R), Index(R ? R->begin(Layer, Id) : 0) {}
  ~ScopedSpan() {
    if (R)
      R->end(Index);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanRecorder *R;
  uint32_t Index;
};

} // namespace dgbench

#endif // DGBENCH_SPANS_H
