//===- bench/table04_superinstructions.cpp - Paper Table IV ---------------===//
///
/// Regenerates Table IV: combining B A into the superinstruction B_A on
/// "label: A B A GOTO label" leaves each (super)instruction occurring
/// once in the loop — no mispredictions after the first iteration.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace vmib;
using namespace vmib::bench;

int main(int argc, char **argv) {
  OptionParser(argc, argv, {}); // no options; answers --help
  banner("Table IV",
         "Improving BTB prediction accuracy with superinstructions:\n"
         "B A combined into B_A on 'label: A B A GOTO label'.");

  ToyLoopVM VM;
  VMProgram P = VM.loopABA();

  StrategyConfig Config;
  Config.Kind = DispatchStrategy::StaticSuper;
  StaticResources Res;
  Res.Supers = SuperTable::fromSequences({{VM.B, VM.A}});
  Res.OpcodeReplicas.assign(VM.Set.size(), 0);
  Res.SuperReplicas.assign(1, 0);

  std::printf("Threaded dispatch with superinstruction B_A:\n%s\n",
              traceLoop(VM, P, Config, &Res, 2, 1).c_str());
  std::printf("Paper: no mispredictions after the first iteration; one\n"
              "dispatch per loop iteration is also eliminated.\n");
  return 0;
}
