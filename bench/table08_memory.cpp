//===- bench/table08_memory.cpp - Paper Table VIII ------------------------===//
///
/// Regenerates Table VIII: peak dynamic memory of the code-copying
/// techniques (run-time generated native code) per Java benchmark,
/// against a HotSpot-mixed-mode proxy estimate. The paper's point:
/// dynamic super is competitive with a JIT's code cache; the
/// replication-based variants cost several times more. The three
/// variants are a declared SweepSpec (columns of Figure 9) run through
/// the shared declarative runner.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <cstdio>

using namespace vmib;

int main(int argc, char **argv) {
  OptionParser Opts(argc, argv, bench::sweepOptions());
  JavaLab Lab;
  SweepSpec Spec = bench::suiteSpec(
      "table08_memory", "java", bench::javaBenchNames(),
      {makeVariant(DispatchStrategy::DynamicSuper),
       makeVariant(DispatchStrategy::AcrossBB),
       makeVariant(DispatchStrategy::WithStaticSuperAcross)},
      "p4northwood");
  std::vector<PerfCounters> Cells;
  int Exit = 0;
  if (!bench::runDeclaredSweep(
          Opts, Spec,
          "=== Table VIII: peak dynamic code memory per benchmark ===\n\n",
          nullptr, &Lab, Cells, Exit))
    return Exit;

  TextTable T({"benchmark", "HotSpot mixed*", "dynamic super",
               "across bb", "w/static across"});
  for (size_t B = 0; B < Spec.Benchmarks.size(); ++B) {
    const PerfCounters &Super = Cells[Spec.cellIndex(B, 0)];
    const PerfCounters &Across = Cells[Spec.cellIndex(B, 1)];
    const PerfCounters &WithAcross = Cells[Spec.cellIndex(B, 2)];
    // HotSpot-mixed proxy: JIT code for the hot subset, roughly the
    // size of the shared dynamic-superinstruction code (paper Table
    // VIII finds them in the same range).
    uint64_t Jit = Super.CodeBytes + Super.CodeBytes / 2;
    T.addRow({Spec.Benchmarks[B], humanBytes(Jit),
              humanBytes(Super.CodeBytes), humanBytes(Across.CodeBytes),
              humanBytes(WithAcross.CodeBytes)});
  }
  std::printf("%s\n", T.render().c_str());
  std::printf(
      "* simulated proxy (DESIGN.md substitutions).\n"
      "Paper shape: dynamic super is competitive with HotSpot's mixed\n"
      "mode; across bb and w/static across need several times more\n"
      "memory because they replicate code for all methods.\n");
  return 0;
}
