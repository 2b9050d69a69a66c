//===- bench/fig13_counters_compress.cpp - Paper Figure 13 ----------------===//
///
/// Regenerates Figure 13: performance-counter breakdown for compress
/// (Java) on the Pentium 4. In the paper, dynamic replication is almost
/// 3x faster than plain here, entirely from eliminated mispredictions.
/// Declared as a SweepSpec — the compress row of Figure 9 — and run
/// through the shared declarative runner.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <cstdio>

using namespace vmib;

int main(int argc, char **argv) {
  OptionParser Opts(argc, argv, bench::sweepOptions());
  JavaLab Lab;
  SpeedupMatrix M;
  int Exit = 0;
  if (!bench::runMatrixBench(
          Opts, "fig13_counters_compress", "java", "p4northwood", {"compress"},
          jvmVariants(),
          "=== Figure 13: performance counters, compress (Java, P4) ===\n\n",
          Lab, M, Exit))
    return Exit;

  std::printf("%s\n",
              M.renderCounterBars("Figure 13", "compress").c_str());
  std::printf(
      "Paper shape: dynamic repl's speedup is attributable entirely to\n"
      "the reduction in indirect branch mispredictions (§7.3).\n");
  return 0;
}
