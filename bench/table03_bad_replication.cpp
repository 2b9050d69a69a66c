//===- bench/table03_bad_replication.cpp - Paper Table III ----------------===//
///
/// Regenerates Table III: on "label: A B A B A GOTO label", replicating
/// B into B1/B2 makes *every* instance of A mispredict (its BTB entry
/// now rotates over three targets), increasing mispredictions per
/// iteration from two to three.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace vmib;
using namespace vmib::bench;

int main(int argc, char **argv) {
  OptionParser(argc, argv, {}); // no options; answers --help
  banner("Table III",
         "Increasing mispredictions through bad static replication on\n"
         "'label: A B A B A GOTO label'.");

  ToyLoopVM VM;
  VMProgram P = VM.loopABABA();

  StrategyConfig Plain;
  Plain.Kind = DispatchStrategy::Threaded;
  std::printf("Original code:\n%s\n",
              traceLoop(VM, P, Plain, nullptr, 2, 1).c_str());

  StrategyConfig Repl;
  Repl.Kind = DispatchStrategy::StaticRepl;
  Repl.Policy = ReplicaPolicy::RoundRobin;
  StaticResources Res;
  Res.OpcodeReplicas.assign(VM.Set.size(), 0);
  Res.OpcodeReplicas[VM.B] = 1; // B1 and B2
  std::printf("Modified code (B replicated into B1/B2):\n%s\n",
              traceLoop(VM, P, Repl, &Res, 2, 1).c_str());

  std::printf("Paper: mispredictions per iteration rise from 2 to 3.\n");
  return 0;
}
