//===- bench/table05_jvm_baselines.cpp - Paper Table V --------------------===//
///
/// Regenerates Table V: running time of the base (plain threaded)
/// interpreter against other JVMs — HotSpot's tuned assembly
/// interpreter, Kaffe's naive interpreter, HotSpot mixed mode and the
/// Kaffe JIT. The external JVMs are simulated cost-model proxies
/// (DESIGN.md substitutions); times are cycles scaled to seconds at the
/// paper's 3GHz P4. The plain cells are a declared SweepSpec (the plain
/// column of Figure 9) run through the shared declarative runner.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "harness/Baselines.h"

#include <cstdio>

using namespace vmib;

int main(int argc, char **argv) {
  OptionParser Opts(argc, argv, bench::sweepOptions());
  JavaLab Lab;
  SweepSpec Spec = bench::suiteSpec(
      "table05_jvm_baselines", "java", bench::javaBenchNames(),
      {makeVariant(DispatchStrategy::Threaded)}, "p4northwood");
  std::vector<PerfCounters> Cells;
  int Exit = 0;
  if (!bench::runDeclaredSweep(
          Opts, Spec,
          "=== Table V: base interpreter vs other JVMs (simulated "
          "proxies) ===\n\n",
          nullptr, &Lab, Cells, Exit))
    return Exit;
  CpuConfig Cpu; // the spec that ran: --spec may substitute it
  cpuConfigById(Spec.Cpus[0], Cpu);
  const double Hz = 3e9;

  TextTable T({"benchmark", "our base", "HotSpot interp*",
               "Kaffe interp*", "HotSpot mixed*", "Kaffe JIT*"});
  for (size_t B = 0; B < Spec.Benchmarks.size(); ++B) {
    const std::string &Name = Spec.Benchmarks[B];
    const PerfCounters &Plain = Cells[Spec.cellIndex(B, 0)];
    uint64_t Overhead = Lab.runtimeOverhead(Name, Cpu);
    // Plain.Cycles already includes the CVM runtime overhead; proxies
    // pay their own runtime's share.
    PerfCounters Interp = Plain;
    Interp.Cycles -= Overhead;
    auto Secs = [&](uint64_t Cycles) {
      return format("%.3fs", static_cast<double>(Cycles) / Hz);
    };
    auto Proxy = [&](const BaselineModel &M) {
      return baselineCycles(Interp, Cpu, M) +
             static_cast<uint64_t>(M.RuntimeFactor *
                                   static_cast<double>(Overhead));
    };
    T.addRow({Name, Secs(Plain.Cycles),
              Secs(Proxy(hotspotInterpreterProxy())),
              Secs(Proxy(kaffeInterpreterProxy())),
              Secs(Proxy(hotspotMixedProxy())),
              Secs(Proxy(kaffeJitProxy()))});
  }
  std::printf("%s\n", T.render().c_str());
  std::printf(
      "* simulated comparator proxies (DESIGN.md substitutions).\n"
      "Paper shape: our base interpreter is close to HotSpot's tuned\n"
      "assembly interpreter, ~8-13x faster than Kaffe's naive\n"
      "interpreter, and several times slower than the JITs.\n");
  return 0;
}
