//===- perfbench/src/main.cpp - Benchmark entry point --------------------===//
///
/// \file
/// lalr_perfbench --workload gen-cold|serve-warm|serve-edit --seed N
///                --seconds S --trace 0|1 [--corrupt-oracle]
///
/// Prints one JSON object as the last line of standard output: whether
/// every operation matched its oracle, how many were attempted and
/// failed, and the end-to-end metrics (--trace 0) or the per-layer
/// metrics (--trace 1). Exits 1 when any operation failed.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: lalr_perfbench --workload gen-cold|serve-warm|"
               "serve-edit [--seed N] [--seconds S] [--trace 0|1] "
               "[--corrupt-oracle]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    bool HasValue = I + 1 < Argc;
    if (A == "--workload" && HasValue)
      Opts.Workload = Argv[++I];
    else if (A == "--seed" && HasValue)
      Opts.Seed = std::strtoull(Argv[++I], nullptr, 10);
    else if (A == "--seconds" && HasValue)
      Opts.Seconds = std::strtod(Argv[++I], nullptr);
    else if (A == "--trace" && HasValue)
      Opts.Trace = std::strcmp(Argv[++I], "0") != 0;
    else if (A == "--corrupt-oracle")
      Opts.CorruptOracle = true;
    else
      return usage();
  }
  if (Opts.Seconds <= 0)
    return usage();

  Outcome Out;
  if (Opts.Workload == "gen-cold")
    Out = runGenCold(Opts);
  else if (Opts.Workload == "serve-warm")
    Out = runServeWarm(Opts);
  else if (Opts.Workload == "serve-edit")
    Out = runServeEdit(Opts);
  else
    return usage();

  bool Correct = Out.Attempted > 0 && Out.Failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Out.Attempted),
              static_cast<unsigned long long>(Out.Failed));
  for (size_t I = 0; I < Out.Metrics.size(); ++I) {
    const Metric &M = Out.Metrics[I];
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                I ? ", " : "", M.Name.c_str(), M.Value, M.Unit.c_str());
  }
  std::printf("}}\n");
  return Correct ? 0 : 1;
}
