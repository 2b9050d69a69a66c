//===- bench/table07_java_suite.cpp - Paper Table VII ---------------------===//
///
/// Regenerates Table VII: the Java benchmark inventory with sizes,
/// quickening counts and reference execution checks. The step column
/// is declared as a one-variant (plain) SweepSpec routed through the
/// shared declarative runner; sizes come from the cached assemblies and
/// the quickening counts from the captured dispatch traces (loaded
/// from the VMIB_TRACE_CACHE when a verified file exists — under
/// --shards the workers populate that cache).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <cstdio>

using namespace vmib;

int main(int argc, char **argv) {
  OptionParser Opts(argc, argv, bench::sweepOptions({bench::QuickOption}));
  const std::string Banner =
      "=== Table VII: SPECjvm98-analogue Java benchmarks ===\n\n";
  JavaLab Lab;

  SweepSpec Spec = bench::suiteSpec(
      "table07_java_suite", "java", bench::javaBenchNames(Opts.has("quick")),
      {makeVariant(DispatchStrategy::Threaded)}, "p4northwood");
  std::vector<PerfCounters> Cells;
  int Exit = 0;
  if (!bench::runDeclaredSweep(Opts, Spec, Banner, nullptr, &Lab, Cells,
                               Exit))
    return Exit;

  TextTable T({"program", "lines", "VM instrs", "quickenings",
               "description", "steps", "output hash"});
  for (size_t B = 0; B < Spec.Benchmarks.size(); ++B) {
    const JavaBenchmark &Bench = javaBenchmark(Spec.Benchmarks[B]);
    uint64_t Steps =
        Cells[Spec.cellIndex(B, Spec.memberIndex(0, 0, 0))].VMInstructions;
    if (Steps != Lab.referenceSteps(Bench.Name)) {
      std::printf("trace/reference step mismatch in %s\n",
                  Bench.Name.c_str());
      return 1;
    }
    // Quickening counts come off the trace — from the shared cache
    // when a sharded run populated it, otherwise captured here.
    const DispatchTrace &Trace = Lab.trace(Bench.Name);
    T.addRow({Bench.Name, std::to_string(Bench.sourceLines()),
              std::to_string(Lab.program(Bench.Name).Program.size()),
              std::to_string(Trace.numQuickens()), Bench.Description,
              withThousands(Steps),
              format("%016llx",
                     (unsigned long long)Lab.referenceHash(Bench.Name))});
  }
  std::printf("%s\n", T.render().c_str());
  return 0;
}
