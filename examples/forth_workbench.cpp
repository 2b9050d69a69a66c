//===- examples/forth_workbench.cpp - Variant/CPU explorer ---------------===//
///
/// Command-line workbench over the Forth suite: one variant on one
/// benchmark and CPU, or with --all every paper variant's counters.
///
//===----------------------------------------------------------------------===//

#include "harness/Figures.h"
#include "harness/ForthLab.h"
#include "support/CommandLine.h"
#include "support/Format.h"
#include "support/Table.h"

#include <cstdio>

using namespace vmib;

static CpuConfig cpuByName(const std::string &Name) {
  if (Name == "celeron")
    return makeCeleron800();
  if (Name == "athlon")
    return makeAthlon1200();
  return makePentium4Northwood();
}

int main(int Argc, char **Argv) {
  OptionParser Opts(
      Argc, Argv,
      {{"bench", "Forth suite benchmark (default gray)", OptionDecl::Value},
       {"variant", "paper variant (default \"across bb\")", OptionDecl::Value},
       {"cpu", "celeron, p4 or athlon (default p4)", OptionDecl::Value},
       {"all", "run every paper variant; print all counters"}});
  std::string Bench = Opts.get("bench", "gray");
  std::string VariantName = Opts.get("variant", "across bb");
  CpuConfig Cpu = cpuByName(Opts.get("cpu", "p4"));

  ForthLab Lab;

  if (Opts.has("all")) {
    TextTable T({"variant", "cycles", "instrs", "ind.branches",
                 "mispredicted", "icache misses", "code bytes",
                 "speedup"});
    uint64_t PlainCycles = 0;
    for (const VariantSpec &V : gforthVariants()) {
      PerfCounters C = Lab.run(Bench, V, Cpu);
      if (PlainCycles == 0)
        PlainCycles = C.Cycles;
      T.addRow({V.Name, withThousands(C.Cycles),
                withThousands(C.Instructions),
                withThousands(C.IndirectBranches),
                withThousands(C.Mispredictions),
                withThousands(C.ICacheMisses), humanBytes(C.CodeBytes),
                format("%.2f", double(PlainCycles) / double(C.Cycles))});
    }
    std::printf("%s on %s:\n\n%s\n", Bench.c_str(), Cpu.Name.c_str(),
                T.render().c_str());
    return 0;
  }

  for (const VariantSpec &V : gforthVariants()) {
    if (V.Name != VariantName)
      continue;
    PerfCounters C = Lab.run(Bench, V, Cpu);
    std::printf("%s / %s on %s:\n", Bench.c_str(), V.Name.c_str(),
                Cpu.Name.c_str());
    std::printf("  cycles            %s\n",
                withThousands(C.Cycles).c_str());
    std::printf("  instructions      %s\n",
                withThousands(C.Instructions).c_str());
    std::printf("  indirect branches %s (%.2f%% of instructions)\n",
                withThousands(C.IndirectBranches).c_str(),
                100 * C.indirectBranchFraction());
    std::printf("  mispredicted      %s (%.1f%%)\n",
                withThousands(C.Mispredictions).c_str(),
                100 * C.mispredictRate());
    std::printf("  icache misses     %s\n",
                withThousands(C.ICacheMisses).c_str());
    std::printf("  generated code    %s\n",
                humanBytes(C.CodeBytes).c_str());
    return 0;
  }
  std::printf("unknown variant '%s'; paper variants:\n",
              VariantName.c_str());
  for (const VariantSpec &V : gforthVariants())
    std::printf("  %s\n", V.Name.c_str());
  return 1;
}
