//===- dgbench/src/Spans.cpp ----------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>

using namespace dgbench;

int64_t dgbench::selfTimeNs(
    int64_t Start, int64_t End,
    std::vector<std::pair<int64_t, int64_t>> Children) {
  std::sort(Children.begin(), Children.end());
  int64_t Covered = 0;
  int64_t Reach = Start; // Everything before Reach is already counted.
  for (auto [S, E] : Children) {
    S = std::max(S, Reach);
    E = std::min(E, End);
    if (E <= S)
      continue;
    Covered += E - S;
    Reach = E;
  }
  return (End - Start) - Covered;
}

SpanRecorder::SpanRecorder() : Epoch(std::chrono::steady_clock::now()) {}

uint32_t SpanRecorder::layer(const std::string &Name) {
  for (uint32_t I = 0; I != Names.size(); ++I)
    if (Names[I] == Name)
      return I;
  Names.push_back(Name);
  return uint32_t(Names.size() - 1);
}

int64_t SpanRecorder::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

uint32_t SpanRecorder::begin(uint32_t Layer, uint64_t Id) {
  Span S;
  S.Layer = Layer;
  S.Parent = Open.empty() ? NoParent : Open.back();
  S.Id = Id != 0 || S.Parent == NoParent ? Id : Spans[S.Parent].Id;
  S.StartNs = nowNs();
  Spans.push_back(S);
  Open.push_back(uint32_t(Spans.size() - 1));
  return Open.back();
}

void SpanRecorder::end(uint32_t Index) {
  assert(!Open.empty() && Open.back() == Index && "spans must nest");
  Spans[Index].EndNs = nowNs();
  Open.pop_back();
}

std::vector<LayerTotals> SpanRecorder::totals() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> Children(
      Spans.size());
  for (const Span &S : Spans)
    if (S.Parent != NoParent && S.EndNs >= 0)
      Children[S.Parent].push_back({S.StartNs, S.EndNs});
  std::vector<LayerTotals> T(Names.size());
  for (size_t I = 0; I != Names.size(); ++I)
    T[I].Name = Names[I];
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (S.EndNs < 0)
      continue;
    LayerTotals &L = T[S.Layer];
    ++L.Calls;
    L.TotalNs += S.durationNs();
    L.SelfNs += selfTimeNs(S.StartNs, S.EndNs, std::move(Children[I]));
  }
  return T;
}

bool SpanRecorder::writeChromeTrace(std::FILE *Out) const {
  std::fprintf(Out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool First = true;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (S.EndNs < 0)
      continue;
    const std::string &Name = Names[S.Layer];
    std::string Cat = Name.substr(0, Name.find('.'));
    std::fprintf(Out,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%" PRIu64
                 ",\"span\":%zu,\"parent\":%lld}}",
                 First ? "" : ",\n", Name.c_str(), Cat.c_str(),
                 double(S.StartNs) / 1e3, double(S.durationNs()) / 1e3, S.Id,
                 I, S.Parent == NoParent ? -1LL : (long long)S.Parent);
    First = false;
  }
  std::fprintf(Out, "\n]}\n");
  return std::ferror(Out) == 0;
}
