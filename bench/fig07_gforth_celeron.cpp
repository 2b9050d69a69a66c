//===- bench/fig07_gforth_celeron.cpp - Paper Figure 7 --------------------===//
///
/// Regenerates Figure 7: speedups of the nine Gforth interpreter
/// variants over plain threaded code on the Celeron-800 (small BTB and
/// I-cache, so code-growth effects are visible). Declares the sweep as
/// a SweepSpec and routes through the shared declarative runner: the
/// default mode is the trace-affine in-process gang pipeline.
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
          Opts, "fig07_gforth_celeron", "forth", "celeron800",
          bench::forthBenchNames(Opts.has("quick")), gforthVariants(),
          "=== Figure 7: Gforth variant speedups on Celeron-800 ===\n\n",
          Lab, M, Exit))
    return Exit;

  std::printf("%s\n", M.renderSpeedups("Figure 7 (Celeron-800)").c_str());
  std::printf(
      "Paper shape: dynamic methods beat static ones; the combination\n"
      "(dynamic both / across bb / with static super) is best except\n"
      "where I-cache misses bite on this small-cache CPU.\n");
  return 0;
}
