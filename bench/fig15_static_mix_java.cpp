//===- bench/fig15_static_mix_java.cpp - Paper Figure 15 ------------------===//
///
/// Regenerates Figure 15: cycles for mpegaudio (Java) on the Pentium 4
/// over the static replication/superinstruction mix sweep. The 26 grid
/// points are the variants of one declared SweepSpec (bench::mixSpec),
/// replayed as one quickening gang through the shared declarative
/// runner. Figure 16 declares the same sweep under its own name.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <cstdio>

using namespace vmib;

int main(int argc, char **argv) {
  OptionParser Opts(argc, argv, bench::sweepOptions());
  JavaLab Lab;
  const std::vector<uint32_t> Totals = {0, 50, 100, 200, 300, 400};
  SweepSpec Spec =
      bench::mixSpec("fig15_static_mix_java", "java", "mpeg", "p4northwood",
                     Totals, /*ReplicateSupers=*/false);
  std::vector<PerfCounters> Cells;
  int Exit = 0;
  if (!bench::runDeclaredSweep(
          Opts, Spec,
          "=== Figure 15: static replication/superinstruction mix,\n"
          "    mpegaudio (Java) on Pentium 4 — cycles ===\n\n",
          nullptr, &Lab, Cells, Exit))
    return Exit;

  std::printf("%s\n",
              bench::renderMixTable(Totals, Cells, [](const PerfCounters &C) {
                return format("%.1fM", double(C.Cycles) / 1e6);
              }).c_str());
  std::printf("Paper shape: for the JVM, superinstructions dominate —\n"
              "moving budget to replicas buys little or hurts (§7.5).\n");
  return 0;
}
