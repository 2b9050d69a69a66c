//===- bench/fig14_static_mix_forth.cpp - Paper Figure 14 -----------------===//
///
/// Regenerates Figure 14: cycles for bench-gc on the Celeron-800 as the
/// budget of additional static VM instructions is split between
/// replicas and superinstructions. One row per total budget
/// {0,25,50,100,200,400,800,1600}, sweeping %superinstructions across
/// the columns. The 36 grid points are the variants of one declared
/// SweepSpec (bench::mixSpec), replayed as one gang over the captured
/// trace through the shared declarative runner.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <cstdio>

using namespace vmib;

int main(int argc, char **argv) {
  OptionParser Opts(argc, argv, bench::sweepOptions());
  ForthLab Lab;
  const std::vector<uint32_t> Totals = {0, 25, 50, 100, 200, 400, 800, 1600};
  SweepSpec Spec =
      bench::mixSpec("fig14_static_mix_forth", "forth", "bench-gc",
                     "celeron800", Totals, /*ReplicateSupers=*/true);
  std::vector<PerfCounters> Cells;
  int Exit = 0;
  if (!bench::runDeclaredSweep(
          Opts, Spec,
          "=== Figure 14: static replication/superinstruction mix,\n"
          "    bench-gc (Gforth) on Celeron-800 ===\n\n",
          &Lab, nullptr, Cells, Exit))
    return Exit;

  std::printf("%s\n",
              bench::renderMixTable(Totals, Cells, [](const PerfCounters &C) {
                return format("%.1fM", double(C.Cycles) / 1e6);
              }).c_str());
  std::printf(
      "Paper shape: performance improves with the total budget and\n"
      "approaches a floor; away from the extreme points the exact\n"
      "replica/superinstruction split matters little (Fig. 14).\n");
  return 0;
}
