//===- bench/table09_forth_native.cpp - Paper Table IX --------------------===//
///
/// Regenerates Table IX: speedups of across-bb and two native-code
/// Forth compilers (simulated proxies; see DESIGN.md) over plain, on
/// the Athlon-1200, for tscp, brainless and brew. The plain and
/// across-bb cells are a declared SweepSpec run through the shared
/// declarative runner.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "harness/Baselines.h"

#include <cstdio>

using namespace vmib;

int main(int argc, char **argv) {
  OptionParser Opts(argc, argv, bench::sweepOptions());
  ForthLab Lab;
  SweepSpec Spec = bench::suiteSpec(
      "table09_forth_native", "forth", {"tscp", "brainless", "brew"},
      {makeVariant(DispatchStrategy::Threaded),
       makeVariant(DispatchStrategy::AcrossBB)},
      "athlon1200");
  std::vector<PerfCounters> Cells;
  int Exit = 0;
  if (!bench::runDeclaredSweep(
          Opts, Spec,
          "=== Table IX: Gforth across-bb vs native-code compilers "
          "(Athlon-1200) ===\n\n",
          &Lab, nullptr, Cells, Exit))
    return Exit;
  CpuConfig Cpu; // the spec that ran: --spec may substitute it
  cpuConfigById(Spec.Cpus[0], Cpu);

  TextTable T({"benchmark", "across bb", "bigForth*", "iForth*"});
  for (size_t B = 0; B < Spec.Benchmarks.size(); ++B) {
    const PerfCounters &Plain = Cells[Spec.cellIndex(B, 0)];
    const PerfCounters &Across = Cells[Spec.cellIndex(B, 1)];
    double SAcross = double(Plain.Cycles) / double(Across.Cycles);
    double SBig = double(Plain.Cycles) /
                  double(baselineCycles(Plain, Cpu, bigForthProxy()));
    double SIfo = double(Plain.Cycles) /
                  double(baselineCycles(Plain, Cpu, iForthProxy()));
    T.addRow({Spec.Benchmarks[B], formatDouble(SAcross, 2),
              formatDouble(SBig, 2), formatDouble(SIfo, 2)});
  }
  std::printf("%s\n", T.render().c_str());
  std::printf(
      "* simulated comparator proxies (DESIGN.md substitutions).\n"
      "Paper shape: the optimized interpreter is within a small factor\n"
      "of simple native-code compilers (paper: across-bb 2.17-2.98 vs\n"
      "bigForth 0.92-5.13 over plain).\n");
  return 0;
}
