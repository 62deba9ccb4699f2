//===- main.cpp - npral-bench command line --------------------------------===//
//
//   npral-bench --workload <tight-fuzz|serve-mix|ara-grid> --seed <n>
//               --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// The exit code is non-zero when any output failed its check.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

using namespace npral::bench;

namespace {

int usage() {
  std::cerr << "usage: npral-bench --workload tight-fuzz|serve-mix|ara-grid "
               "--seed N --seconds S --trace 0|1\n";
  return 2;
}

void printResult(const Result &R) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              R.Correct ? "true" : "false",
              static_cast<long long>(R.Attempted),
              static_cast<long long>(R.Failed));
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                I ? ", " : "", M.Name.c_str(), M.Value, M.Unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  for (int I = 1; I < argc; ++I) {
    const std::string A = argv[I];
    if (I + 1 >= argc)
      return usage();
    const std::string V = argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::atof(V.c_str());
    else if (A == "--trace")
      O.Trace = V == "1";
    else
      return usage();
  }
  if (O.Seconds <= 0)
    return usage();

  Result R;
  if (O.Workload == "tight-fuzz")
    R = runTightFuzz(O);
  else if (O.Workload == "serve-mix")
    R = runServeMix(O);
  else if (O.Workload == "ara-grid")
    R = runAraGrid(O);
  else
    return usage();

  if (O.Trace)
    completePerLayer(R);
  printResult(R);
  return R.Correct && R.Failed == 0 ? 0 : 1;
}
