//===- bench/table02_replication.cpp - Paper Table II ---------------------===//
///
/// Regenerates Table II: replicating A into A1/A2 (round-robin
/// selection) gives every replica a single successor, eliminating all
/// mispredictions in the loop.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace vmib;
using namespace vmib::bench;

int main(int argc, char **argv) {
  OptionParser(argc, argv, {}); // no options; answers --help
  banner("Table II",
         "Improving BTB prediction accuracy by replicating VM instruction A\n"
         "on the loop 'label: A B A GOTO label' (threaded dispatch).");

  ToyLoopVM VM;
  VMProgram P = VM.loopABA();

  StrategyConfig Config;
  Config.Kind = DispatchStrategy::StaticRepl;
  Config.Policy = ReplicaPolicy::RoundRobin;
  StaticResources Res;
  Res.OpcodeReplicas.assign(VM.Set.size(), 0);
  Res.OpcodeReplicas[VM.A] = 1; // one additional copy: A1 and A2

  std::printf("Threaded dispatch with replicas A1/A2:\n%s\n",
              traceLoop(VM, P, Config, &Res, 2, 1).c_str());
  std::printf("Paper: no mispredictions after the first iteration.\n");
  return 0;
}
