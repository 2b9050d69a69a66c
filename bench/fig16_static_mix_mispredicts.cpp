//===- bench/fig16_static_mix_mispredicts.cpp - Paper Figure 16 -----------===//
///
/// Regenerates Figure 16: indirect branch mispredictions for mpegaudio
/// (Java) over the same static replica/superinstruction sweep as
/// Figure 15. The paper's key observation: *small* numbers of replicas
/// can increase mispredictions (Table III's effect at scale, §7.5).
/// The sweep is Figure 15's SweepSpec under this bench's name, run
/// through the shared declarative runner.
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
      bench::mixSpec("fig16_static_mix_mispredicts", "java", "mpeg",
                     "p4northwood", Totals, /*ReplicateSupers=*/false);
  std::vector<PerfCounters> Cells;
  int Exit = 0;
  if (!bench::runDeclaredSweep(
          Opts, Spec,
          "=== Figure 16: indirect branch mispredictions over the\n"
          "    static mix sweep, mpegaudio (Java, P4) ===\n\n",
          nullptr, &Lab, Cells, Exit))
    return Exit;

  std::printf("%s\n",
              bench::renderMixTable(Totals, Cells, [](const PerfCounters &C) {
                return format("%.2fM", double(C.Mispredictions) / 1e6);
              }).c_str());
  std::printf("Paper shape: at 100%% replicas with a small budget the\n"
              "misprediction count can exceed configurations with more\n"
              "superinstructions; superinstructions need ~60%% of the\n"
              "branches and so win overall (§7.5).\n");
  return 0;
}
