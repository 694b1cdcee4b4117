//===- exp/Options.cpp -------------------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "exp/Options.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace dgsim;
using namespace dgsim::exp;

std::vector<uint64_t> BenchOptions::seeds() const {
  std::vector<uint64_t> Seeds;
  Seeds.reserve(SeedCount);
  for (unsigned I = 0; I < SeedCount; ++I)
    Seeds.push_back(BaseSeed + I);
  return Seeds;
}

std::string BenchOptions::jsonPath() const {
  if (!WriteJson)
    return "";
  return JsonPath.empty() ? "BENCH_" + Id + ".json" : JsonPath;
}

static void usage(const char *Prog, const BenchOptions &Defaults) {
  std::printf(
      "usage: %s [options]\n"
      "  --seeds N       seeds per sweep point (default 1)\n"
      "  --base-seed S   first seed (default %llu)\n"
      "  --jobs M        worker threads; results are identical for any M\n"
      "  --json PATH     write results to PATH (default BENCH_%s.json)\n"
      "  --no-json       do not write the JSON document\n"
      "  --quick         reduced matrix (CI smoke mode)\n"
      "  --help          this text\n",
      Prog, static_cast<unsigned long long>(Defaults.BaseSeed),
      Defaults.Id.c_str());
}

BenchOptions exp::parseBenchOptions(int Argc, char **Argv, std::string Id,
                                    uint64_t BaseSeed) {
  BenchOptions O;
  O.Id = std::move(Id);
  O.BaseSeed = BaseSeed;

  auto NumArg = [&](int &I, const char *Flag) -> const char * {
    if (I + 1 >= Argc) {
      std::fprintf(stderr, "%s: %s needs an argument\n", Argv[0], Flag);
      std::exit(2);
    }
    return Argv[++I];
  };

  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (!std::strcmp(Arg, "--seeds")) {
      long V = std::atol(NumArg(I, Arg));
      if (V < 1) {
        std::fprintf(stderr, "%s: --seeds must be >= 1\n", Argv[0]);
        std::exit(2);
      }
      O.SeedCount = static_cast<unsigned>(V);
    } else if (!std::strcmp(Arg, "--base-seed")) {
      O.BaseSeed = std::strtoull(NumArg(I, Arg), nullptr, 10);
    } else if (!std::strcmp(Arg, "--jobs")) {
      long V = std::atol(NumArg(I, Arg));
      if (V < 1) {
        std::fprintf(stderr, "%s: --jobs must be >= 1\n", Argv[0]);
        std::exit(2);
      }
      O.Jobs = static_cast<unsigned>(V);
    } else if (!std::strcmp(Arg, "--json")) {
      O.JsonPath = NumArg(I, Arg);
      O.WriteJson = true;
    } else if (!std::strcmp(Arg, "--no-json")) {
      O.WriteJson = false;
    } else if (!std::strcmp(Arg, "--quick")) {
      O.Quick = true;
    } else if (!std::strcmp(Arg, "--help")) {
      usage(Argv[0], O);
      std::exit(0);
    } else {
      std::fprintf(stderr, "%s: unknown option '%s' (try --help)\n", Argv[0],
                   Arg);
      std::exit(2);
    }
  }
  return O;
}

std::vector<TrialRecord>
exp::runScenario(const Scenario &S, const BenchOptions &Options,
                 std::function<void(json::JsonWriter &)> JsonFooter) {
  auto Start = std::chrono::steady_clock::now();
  std::vector<TrialRecord> Records = runTrials(S, Options.Jobs);
  std::string Path = Options.jsonPath();
  if (!Path.empty()) {
    JsonRun Run;
    Run.Jobs = Options.Jobs;
    Run.WallSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - Start)
                          .count();
    Run.Footer = std::move(JsonFooter);
    writeBenchJson(Path, benchJson(S, Records, Run));
  }

  std::printf("run: %zu trials (%zu seeds x %zu points), %u jobs%s%s\n\n",
              Records.size(), S.Seeds.size(),
              S.Seeds.empty() ? 0 : Records.size() / S.Seeds.size(),
              Options.Jobs, Path.empty() ? "" : " -> ", Path.c_str());
  return Records;
}
