//===- bench/fig09_java_p4.cpp - Paper Figure 9 ---------------------------===//
///
/// Regenerates Figure 9: speedups of the nine JVM interpreter variants
/// over plain threaded code on the Pentium 4. Declares the sweep as a
/// SweepSpec and routes through the shared declarative runner: one
/// quickening gang per benchmark replays all variants in a single
/// chunk-tiled trace pass, each member re-applying the quickenings to
/// its own fresh program copy.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <cstdio>

using namespace vmib;

int main(int argc, char **argv) {
  OptionParser Opts(argc, argv, bench::sweepOptions({bench::QuickOption}));
  JavaLab Lab;
  SpeedupMatrix M;
  int Exit = 0;
  if (!bench::runMatrixBench(
          Opts, "fig09_java_p4", "java", "p4northwood",
          bench::javaBenchNames(Opts.has("quick")), jvmVariants(),
          "=== Figure 9: Java variant speedups on Pentium 4 ===\n\n", Lab,
          M, Exit))
    return Exit;

  std::printf("%s\n", M.renderSpeedups("Figure 9 (Pentium 4)").c_str());
  std::printf(
      "Paper shape: smaller speedups than Gforth (lower dispatch share);\n"
      "dynamic methods usually beat static ones; static super does\n"
      "comparatively better than on Forth (longer basic blocks, §7.3).\n");
  return 0;
}
