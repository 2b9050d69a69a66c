//===- examples/quickstart.cpp - Five-minute tour of the library ----------===//
///
/// Compiles a small Forth program, runs it under plain threaded code
/// and under dynamic superinstructions with replication across basic
/// blocks (the paper's best portable technique), and prints the
/// simulated Pentium 4 counters side by side.
///
/// Build & run:  cmake --build build && ./build/examples/quickstart
///
//===----------------------------------------------------------------------===//

#include "forthvm/ForthCompiler.h"
#include "support/CommandLine.h"
#include "support/Format.h"
#include "support/Table.h"
#include "vmcore/DispatchBuilder.h"
#include "vmcore/DispatchSim.h"

#include <cstdio>

using namespace vmib;

int main(int argc, char **argv) {
  OptionParser(argc, argv, {}); // no options; answers --help
  // 1. A Forth program with a real working set: naive Fibonacci (lots
  // of calls/returns and repeated VM instructions — the BTB's enemy).
  const char *Source = R"(
    : fib dup 2 < if exit then dup 1- recurse swap 2 - recurse + ;
    23 fib .
  )";
  ForthUnit Unit = compileForth(Source, "quickstart");
  if (!Unit.ok()) {
    std::printf("compile error: %s\n", Unit.Error.c_str());
    return 1;
  }

  // 2. Run it under two interpreter constructions on a simulated P4.
  CpuConfig Cpu = makePentium4Northwood();
  TextTable T({"variant", "cycles", "instructions", "indirect branches",
               "mispredicted", "mispredict rate"});

  for (DispatchStrategy Kind :
       {DispatchStrategy::Threaded, DispatchStrategy::AcrossBB}) {
    StrategyConfig Config;
    Config.Kind = Kind;
    auto Layout = DispatchBuilder::build(Unit.Program, forth::opcodeSet(),
                                         Config);
    DispatchSim Sim(*Layout, Cpu);
    ForthVM VM;
    ForthVM::Result R = VM.run(Unit, &Sim);
    Sim.finish();
    if (!R.ok()) {
      std::printf("run error: %s\n", R.Error.c_str());
      return 1;
    }
    const PerfCounters &C = Sim.counters();
    T.addRow({strategyName(Kind), withThousands(C.Cycles),
              withThousands(C.Instructions),
              withThousands(C.IndirectBranches),
              withThousands(C.Mispredictions),
              format("%.1f%%", 100.0 * C.mispredictRate())});
  }

  std::printf("quickstart: fib(23) on the Forth VM "
              "(simulated Pentium 4)\n\n%s\n",
              T.render().c_str());
  std::printf("The across-basic-blocks construction (§5.2 of the paper)\n"
              "eliminates nearly all dispatches and their "
              "mispredictions.\n");
  return 0;
}
