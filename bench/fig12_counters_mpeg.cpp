//===- bench/fig12_counters_mpeg.cpp - Paper Figure 12 --------------------===//
///
/// Regenerates Figure 12: performance-counter breakdown for mpegaudio
/// (Java) on the Pentium 4. Declared as a SweepSpec — the mpeg row of
/// Figure 9 — and run through the shared declarative runner: one
/// quickening gang replays all nine variants over the captured trace
/// and its rewrites.
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
          Opts, "fig12_counters_mpeg", "java", "p4northwood", {"mpeg"},
          jvmVariants(),
          "=== Figure 12: performance counters, mpegaudio (Java, P4) ===\n\n",
          Lab, M, Exit))
    return Exit;

  std::printf("%s\n", M.renderCounterBars("Figure 12", "mpeg").c_str());
  std::printf(
      "Paper shape: plain/static repl/dynamic repl share one instruction\n"
      "count; static replication helps the JVM less than Gforth (§7.3);\n"
      "code growth is larger than for Forth (class library also gets\n"
      "replicated in the paper's setup).\n");
  return 0;
}
