//===- bench/table01_btb_loop.cpp - Paper Table I -------------------------===//
///
/// Regenerates Table I: BTB predictions on the VM program
/// "label: A B A GOTO label" under switch dispatch (one shared branch,
/// everything mispredicts) and threaded dispatch (per-routine branches,
/// only A's branch mispredicts).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace vmib;
using namespace vmib::bench;

int main(int argc, char **argv) {
  OptionParser(argc, argv, {}); // no options; answers --help
  banner("Table I",
         "BTB predictions on a small VM program (label: A B A GOTO label),\n"
         "after the loop has executed at least once.");

  ToyLoopVM VM;
  VMProgram P = VM.loopABA();

  StrategyConfig Switch;
  Switch.Kind = DispatchStrategy::Switch;
  std::printf("Switch dispatch:\n%s\n",
              traceLoop(VM, P, Switch, nullptr, 2, 1).c_str());

  StrategyConfig Threaded;
  Threaded.Kind = DispatchStrategy::Threaded;
  std::printf("Threaded dispatch:\n%s\n",
              traceLoop(VM, P, Threaded, nullptr, 2, 1).c_str());

  std::printf("Paper: switch mispredicts all 4 dispatches per iteration;\n"
              "threaded mispredicts only the two dispatches of A.\n");
  return 0;
}
