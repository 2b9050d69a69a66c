//===- vmcore/DispatchSim.cpp ---------------------------------------------===//

#include "vmcore/DispatchSim.h"

#include <cassert>

using namespace vmib;

DispatchSim::DispatchSim(DispatchProgram &Prog, const CpuConfig &Cpu)
    : Prog(Prog), Cpu(Cpu), Predictor(std::make_unique<BTB>(Cpu.Btb)),
      State(Cpu.ICache) {}

void DispatchSim::setPredictor(
    std::unique_ptr<IndirectBranchPredictor> NewPredictor) {
  assert(NewPredictor && "predictor must not be null");
  Predictor = std::move(NewPredictor);
}

void DispatchSim::finish() {
  State.Counters = sim::finalize(State.Counters, Prog, Cpu);
}
