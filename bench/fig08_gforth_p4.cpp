//===- bench/fig08_gforth_p4.cpp - Paper Figure 8 -------------------------===//
///
/// Regenerates Figure 8: speedups of the nine Gforth interpreter
/// variants over plain threaded code on the Pentium 4 (Northwood): the
/// 20-cycle misprediction penalty makes the replication-based methods
/// shine (paper: up to 4.55x with static super over plain). Declares
/// the sweep as a SweepSpec and routes through the shared declarative
/// runner.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <cstdio>

using namespace vmib;

int main(int argc, char **argv) {
  OptionParser Opts(argc, argv, bench::sweepOptions({bench::QuickOption}));
  ForthLab Lab;
  SpeedupMatrix M;
  int Exit = 0;
  if (!bench::runMatrixBench(
          Opts, "fig08_gforth_p4", "forth", "p4northwood",
          bench::forthBenchNames(Opts.has("quick")), gforthVariants(),
          "=== Figure 8: Gforth variant speedups on Pentium 4 ===\n\n",
          Lab, M, Exit))
    return Exit;

  std::printf("%s\n", M.renderSpeedups("Figure 8 (Pentium 4)").c_str());
  std::printf(
      "Paper shape: larger speedups than on the Celeron (bigger\n"
      "misprediction penalty, bigger caches); across bb and with static\n"
      "super lead on every benchmark.\n");
  return 0;
}
