//===- bench/fig11_counters_brew.cpp - Paper Figure 11 --------------------===//
///
/// Regenerates Figure 11: performance-counter breakdown for brew on the
/// Pentium 4. Declared as a SweepSpec — the brew row of Figure 8 — and
/// run through the shared declarative runner: one gang replays all
/// nine variants over the captured trace.
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
          Opts, "fig11_counters_brew", "forth", "p4northwood", {"brew"},
          gforthVariants(),
          "=== Figure 11: performance counters, brew (Gforth, P4) ===\n\n",
          Lab, M, Exit))
    return Exit;

  std::printf("%s\n", M.renderCounterBars("Figure 11", "brew").c_str());
  std::printf(
      "Paper shape: replication-based methods generate the most code\n"
      "(~1MB for brew in the paper); miss cycles stay a small share of\n"
      "total cycles on the P4.\n");
  return 0;
}
