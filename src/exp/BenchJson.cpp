//===- exp/BenchJson.cpp -----------------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "exp/BenchJson.h"

#include "support/AllocStats.h"
#include "support/InlineFunction.h"
#include "support/Resource.h"

#include <cstdio>
#include <cstdlib>

using namespace dgsim;
using namespace dgsim::exp;

const char *exp::gitDescribe() {
#ifdef DGSIM_GIT_DESCRIBE
  return DGSIM_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

static void writeTrial(json::JsonWriter &W, const TrialRecord &Record,
                       bool IncludeTimings) {
  W.beginObject();
  W.member("index", static_cast<uint64_t>(Record.Point.Index));
  W.member("seed", Record.Point.Seed);
  W.key("params");
  W.beginObject();
  for (const auto &[Axis, Value] : Record.Point.Params)
    W.member(Axis, Value);
  W.endObject();
  if (Record.Result.SpecHash != 0) {
    char Buf[17];
    std::snprintf(Buf, sizeof(Buf), "%016llx",
                  static_cast<unsigned long long>(Record.Result.SpecHash));
    W.member("spec_hash", Buf);
  }
  if (Record.Result.EventsExecuted != 0)
    W.member("events", Record.Result.EventsExecuted);
  W.key("metrics");
  W.beginObject();
  for (const auto &[Name, Value] : Record.Result.Metrics)
    W.member(Name, Value);
  W.endObject();
  if (IncludeTimings)
    W.member("wall_s", Record.WallSeconds);
  W.endObject();
}

std::string exp::benchJson(const Scenario &S,
                           const std::vector<TrialRecord> &Records,
                           const JsonRun &Run) {
  json::JsonWriter W;
  W.beginObject();
  W.member("schema", "dgsim-bench-v1");
  W.member("id", S.Id);
  W.member("title", S.Title);
  W.member("git", gitDescribe());
  if (Run.IncludeTimings)
    W.member("jobs", Run.Jobs);
  W.key("axes");
  W.beginArray();
  for (const Axis &A : S.Axes) {
    W.beginObject();
    W.member("name", A.Name);
    W.key("values");
    W.beginArray();
    for (const std::string &V : A.Values)
      W.value(V);
    W.endArray();
    W.endObject();
  }
  W.endArray();
  W.key("seeds");
  W.beginArray();
  for (uint64_t Seed : S.Seeds)
    W.value(Seed);
  W.endArray();
  W.key("metrics");
  W.beginArray();
  for (const std::string &M : S.Metrics)
    W.value(M);
  W.endArray();
  W.key("trials");
  W.beginArray();
  for (const TrialRecord &Record : Records)
    writeTrial(W, Record, Run.IncludeTimings);
  W.endArray();
  if (Run.Footer)
    Run.Footer(W);
  if (Run.IncludeTimings) {
    W.member("wall_s", Run.WallSeconds);
    // Peak RSS varies run to run (allocator, ASLR, jobs), so it rides with
    // the other host-side provenance the determinism suite strips.
    W.member("peak_rss_bytes", peakRssBytes());
    // Steady-state allocation counters (host-side provenance too: both
    // depend on how much this process ran before the sweep).  Pool growth
    // should be warm-up-bound; inline-callback spills should be cold-path
    // only — a jump in either flags a hot-path allocation regression.
    W.member("pool_growths", PoolStats::growths());
    W.member("sbo_heap_fallbacks", InlineFunctionStats::heapFallbacks());
  }
  W.endObject();
  return W.take();
}

void exp::writeBenchJson(const std::string &Path, const std::string &Doc) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "error: cannot open '%s' for writing\n",
                 Path.c_str());
    std::exit(2);
  }
  std::fwrite(Doc.data(), 1, Doc.size(), F);
  std::fputc('\n', F);
  std::fclose(F);
}
