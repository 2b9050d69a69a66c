//===- bench/mix_indirect_fraction.cpp - §7.2.2 instruction mix -----------===//
///
/// Regenerates the §7.2.2 instruction-mix observation: on plain
/// threaded code, indirect branches are ~16.5% of executed instructions
/// for Gforth but only ~6% for the JVM (whose instructions do more work
/// per dispatch), which is why the same optimizations buy more on
/// Forth. The plain cells are two declared SweepSpecs, one per suite
/// (the plain columns of Figures 8 and 9), each run through the shared
/// declarative runner (--emit-spec prints both, Forth first).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <cstdio>

using namespace vmib;

int main(int argc, char **argv) {
  // No --spec: it substitutes one sweep, and this bench declares two.
  OptionParser Opts(argc, argv,
                    withoutOptions(bench::sweepOptions(), {"spec"}));
  VariantSpec Plain = makeVariant(DispatchStrategy::Threaded);
  ForthLab FLab;
  JavaLab JLab;
  SweepSpec ForthSpec =
      bench::suiteSpec("mix_indirect_fraction_forth", "forth",
                       bench::forthBenchNames(), {Plain}, "p4northwood");
  SweepSpec JavaSpec =
      bench::suiteSpec("mix_indirect_fraction_java", "java",
                       bench::javaBenchNames(), {Plain}, "p4northwood");
  std::vector<PerfCounters> ForthCells, JavaCells;
  int Exit = 0;
  bool RanForth = bench::runDeclaredSweep(
      Opts, ForthSpec,
      "=== §7.2.2: indirect branches as a fraction of executed "
      "instructions (plain) ===\n\n",
      &FLab, nullptr, ForthCells, Exit);
  if (!RanForth && Exit != 0)
    return Exit;
  // Under --emit-spec neither sweep runs: print the Java spec too.
  if (!bench::runDeclaredSweep(Opts, JavaSpec, "", nullptr, &JLab, JavaCells,
                               Exit) ||
      !RanForth)
    return Exit;

  TextTable T({"VM", "benchmark", "instructions", "indirect branches",
               "fraction"});
  std::vector<double> ForthFracs, JavaFracs;
  auto AddRows = [&](const char *VM, const SweepSpec &Spec,
                     const std::vector<PerfCounters> &Cells,
                     std::vector<double> &Fracs) {
    for (size_t B = 0; B < Spec.Benchmarks.size(); ++B) {
      const PerfCounters &C = Cells[Spec.cellIndex(B, 0)];
      Fracs.push_back(C.indirectBranchFraction());
      T.addRow({VM, Spec.Benchmarks[B], withThousands(C.Instructions),
                withThousands(C.IndirectBranches),
                format("%.2f%%", 100 * C.indirectBranchFraction())});
    }
  };
  AddRows("Gforth", ForthSpec, ForthCells, ForthFracs);
  T.addRule();
  AddRows("JVM", JavaSpec, JavaCells, JavaFracs);
  std::printf("%s\n", T.render().c_str());
  std::printf("averages: Gforth %.2f%% (paper: 16.54%%), JVM %.2f%% "
              "(paper: 6.08%%)\n",
              100 * mean(ForthFracs), 100 * mean(JavaFracs));
  return 0;
}
