//===- bench/ablation_replica_policy.cpp - §5.1 ablation ------------------===//
///
/// Round-robin vs random replica selection (§5.1): the paper chose
/// round-robin after observing better results, explained by spatial
/// locality — within a loop, round-robin never reuses a replica before
/// cycling through the others.
///
/// Declares the three-variant sweep as a SweepSpec and routes through
/// the shared declarative gang/timing path (replay counters are
/// bit-identical to the direct runs it used to do, one interpretation
/// per benchmark instead of one per cell).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <cstdio>

using namespace vmib;

int main(int argc, char **argv) {
  OptionParser Opts(argc, argv, bench::sweepOptions({bench::QuickOption}));
  const std::string Banner =
      "=== Ablation: round-robin vs random replica selection "
      "(§5.1) ===\n\n";
  ForthLab Lab;

  VariantSpec Plain = makeVariant(DispatchStrategy::Threaded);
  VariantSpec RR = makeVariant(DispatchStrategy::StaticRepl);
  RR.Name = "round-robin";
  RR.Config.Policy = ReplicaPolicy::RoundRobin;
  VariantSpec Rand = makeVariant(DispatchStrategy::StaticRepl);
  Rand.Name = "random";
  Rand.Config.Policy = ReplicaPolicy::Random;

  SweepSpec Spec = bench::suiteSpec(
      "ablation_replica_policy", "forth",
      bench::forthBenchNames(Opts.has("quick")), {Plain, RR, Rand},
      "p4northwood");
  std::vector<PerfCounters> Cells;
  int Exit = 0;
  if (!bench::runDeclaredSweep(Opts, Spec, Banner, &Lab, nullptr, Cells,
                               Exit))
    return Exit;

  TextTable T({"benchmark", "plain mispredicts", "round-robin", "random",
               "rr advantage"});
  for (size_t B = 0; B < Spec.Benchmarks.size(); ++B) {
    uint64_t PlainMiss =
        Cells[Spec.cellIndex(B, Spec.memberIndex(0, 0, 0))].Mispredictions;
    uint64_t RRMiss =
        Cells[Spec.cellIndex(B, Spec.memberIndex(0, 1, 0))].Mispredictions;
    uint64_t RandMiss =
        Cells[Spec.cellIndex(B, Spec.memberIndex(0, 2, 0))].Mispredictions;
    T.addRow({Spec.Benchmarks[B], withThousands(PlainMiss),
              withThousands(RRMiss), withThousands(RandMiss),
              format("%.2fx", RandMiss > 0 ? double(RandMiss) / double(RRMiss)
                                           : 1.0)});
  }
  std::printf("%s\n", T.render().c_str());
  std::printf("Paper: round-robin achieved better results than random\n"
              "(§5.1); both beat plain threaded code.\n");
  return 0;
}
