//===- bench/ablation_parse_policy.cpp - §5.1 ablation --------------------===//
///
/// Greedy (maximum munch) vs optimal (dynamic programming)
/// superinstruction parsing: the paper found "almost no difference
/// between the results for greedy and optimal selection" (§5.1) and
/// uses greedy. This bench quantifies that on the Forth suite.
///
/// Declares the two-variant sweep as a SweepSpec and routes through
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
      "=== Ablation: greedy vs optimal superinstruction parse "
      "(§5.1) ===\n\n";
  ForthLab Lab;

  VariantSpec Greedy = makeVariant(DispatchStrategy::StaticSuper);
  Greedy.Name = "greedy";
  Greedy.Config.Parse = ParsePolicy::Greedy;
  VariantSpec Optimal = makeVariant(DispatchStrategy::StaticSuper);
  Optimal.Name = "optimal";
  Optimal.Config.Parse = ParsePolicy::Optimal;

  SweepSpec Spec = bench::suiteSpec(
      "ablation_parse_policy", "forth",
      bench::forthBenchNames(Opts.has("quick")), {Greedy, Optimal},
      "p4northwood");
  std::vector<PerfCounters> Cells;
  int Exit = 0;
  if (!bench::runDeclaredSweep(Opts, Spec, Banner, &Lab, nullptr, Cells,
                               Exit))
    return Exit;

  TextTable T({"benchmark", "greedy cycles", "optimal cycles", "ratio",
               "greedy dispatches", "optimal dispatches"});
  for (size_t B = 0; B < Spec.Benchmarks.size(); ++B) {
    const PerfCounters &G = Cells[Spec.cellIndex(B, Spec.memberIndex(0, 0, 0))];
    const PerfCounters &O = Cells[Spec.cellIndex(B, Spec.memberIndex(0, 1, 0))];
    T.addRow({Spec.Benchmarks[B], withThousands(G.Cycles),
              withThousands(O.Cycles),
              format("%.4f", double(G.Cycles) / double(O.Cycles)),
              withThousands(G.DispatchCount),
              withThousands(O.DispatchCount)});
  }
  std::printf("%s\n", T.render().c_str());
  std::printf("Paper: almost no difference; the optimal algorithm is only\n"
              "slower to run, so greedy is used throughout.\n");
  return 0;
}
