//===- examples/java_quickening.cpp - Watching quickening happen ----------===//
///
/// Assembles a small Java program whose loop contains quickable
/// instructions (getstatic/putstatic/invokevirtual), builds a dynamic
/// superinstruction layout over it, and shows how the layout changes as
/// instructions quicken: the pre-reserved gaps start as dispatch stubs
/// to the fat resolving routines and end up holding the lean quick code
/// (§5.4 of the paper).
///
//===----------------------------------------------------------------------===//

#include "javavm/JavaVM.h"
#include "support/CommandLine.h"
#include "support/Format.h"
#include "vmcore/DispatchBuilder.h"

#include <cstdio>

using namespace vmib;

static const char Source[] = R"(
class Counter
  field int value
  method bump 1 2 returns virtual
    aload 0 getfield Counter value iload 1 iadd
    dup astore 1
    aload 0 iload 1 putfield Counter value
    iload 1 ireturn
  end
end
class Main
  static int total
  method main 0 3
    new Counter astore 0
    iconst 0 istore 1
  label loop
    iload 1 iconst 20 if_icmpge done
    aload 0 iload 1 invokevirtual Counter bump
    putstatic Main total
    iinc 1 1
    goto loop
  label done
    getstatic Main total printi
    return
  end
end)";

static void dumpLoopPieces(const JavaProgram &P,
                           const DispatchProgram &Layout,
                           const char *When) {
  std::printf("%s:\n", When);
  const OpcodeSet &Set = java::opcodeSet();
  for (uint32_t I = 0; I < P.Program.size(); ++I) {
    const OpcodeInfo &Info = Set.info(P.Program.Code[I].Op);
    if (!Info.Quickable && Info.Name.find("quick") == std::string::npos &&
        P.Program.Code[I].Op != java::INVOKEVIRTUAL_QUICK)
      continue;
    const Piece &Pc = Layout.piece(I);
    std::printf("  [%3u] %-22s entry=0x%08llx bytes=%-3u %s\n", I,
                Info.Name.c_str(), (unsigned long long)Pc.EntryAddr,
                Pc.CodeBytes,
                Pc.ColdStubBranch ? "(gap stub -> original routine)"
                                  : "(patched quick code)");
  }
}

int main(int argc, char **argv) {
  OptionParser(argc, argv, {}); // no options; answers --help
  JavaProgram P = assembleJava(Source, "quickening-demo");
  if (!P.ok()) {
    std::printf("assembly error: %s\n", P.Error.c_str());
    return 1;
  }

  StrategyConfig Config;
  Config.Kind = DispatchStrategy::DynamicSuper;
  auto Layout = DispatchBuilder::build(P.Program, java::opcodeSet(),
                                       Config);
  std::printf("dynamic superinstructions over %u VM instructions; "
              "generated code: %s\n\n",
              P.Program.size(),
              humanBytes(Layout->generatedCodeBytes()).c_str());

  dumpLoopPieces(P, *Layout, "before execution (gaps hold dispatch "
                             "stubs)");

  CpuConfig Cpu = makePentium4Northwood();
  DispatchSim Sim(*Layout, Cpu);
  JavaVM VM;
  JavaVM::Result R = VM.run(P, &Sim, Layout.get());
  Sim.finish();
  if (!R.ok()) {
    std::printf("run error: %s\n", R.Error.c_str());
    return 1;
  }

  std::printf("\nran %llu VM instructions; %llu instructions "
              "quickened\n\n",
              (unsigned long long)R.Steps,
              (unsigned long long)R.Quickenings);
  dumpLoopPieces(P, *Layout, "after execution (gaps patched with quick "
                             "code)");
  std::printf("\nmispredict rate: %.1f%%; generated code unchanged at "
              "%s (gaps were pre-reserved)\n",
              100 * Sim.counters().mispredictRate(),
              humanBytes(Sim.counters().CodeBytes).c_str());
  return 0;
}
