//===- bench/fig10_counters_benchgc.cpp - Paper Figure 10 -----------------===//
///
/// Regenerates Figure 10: performance-counter breakdown (cycles,
/// instructions, indirect branches, mispredictions, I-cache misses,
/// miss cycles, generated code bytes) for bench-gc on the Pentium 4.
/// Declared as a SweepSpec — the bench-gc row of Figure 8 — and run
/// through the shared declarative runner: one gang replays all nine
/// variants over the captured trace.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <cstdio>

using namespace vmib;

int main(int argc, char **argv) {
  OptionParser Opts(argc, argv, bench::sweepOptions());
  ForthLab Lab;
  SpeedupMatrix M;
  int Exit = 0;
  if (!bench::runMatrixBench(
          Opts, "fig10_counters_benchgc", "forth", "p4northwood", {"bench-gc"},
          gforthVariants(),
          "=== Figure 10: performance counters, bench-gc (Gforth, P4) ===\n\n",
          Lab, M, Exit))
    return Exit;

  std::printf("%s\n",
              M.renderCounterBars("Figure 10", "bench-gc").c_str());
  std::printf(
      "Paper shape: plain/static repl/dynamic repl share one instruction\n"
      "count; replication eliminates most mispredictions (3.07x on this\n"
      "benchmark in the paper); superinstructions cut instructions and\n"
      "dispatches; code bytes grow only for the dynamic methods.\n");
  return 0;
}
