//===- forthvm/ForthVM.h - Forth virtual machine ----------------*- C++ -*-===//
///
/// \file
/// A Gforth-style stack VM: data stack, return stack (shared by calls
/// and DO/LOOP), a cell-addressed data space, and deterministic
/// pseudo-I/O (EMIT/. feed an output hash so every workload is
/// self-checking). The engine executes the reference semantics; the
/// dispatch behaviour of a particular interpreter construction is
/// simulated by the DispatchSim it notifies on every step.
///
//===----------------------------------------------------------------------===//

#ifndef VMIB_FORTHVM_FORTHVM_H
#define VMIB_FORTHVM_FORTHVM_H

#include "forthvm/ForthOpcodes.h"
#include "vmcore/DispatchSim.h"
#include "vmcore/DispatchTrace.h"
#include "vmcore/VMProgram.h"

#include <string>
#include <vector>

namespace vmib {

/// A compiled Forth program plus its initial data-space image.
struct ForthUnit {
  VMProgram Program;
  /// Initial contents of data space cells [0, DataInit.size()).
  std::vector<int64_t> DataInit;
  /// First free data-space cell after compilation.
  uint32_t Here = 0;
  /// Nonempty if compilation failed; Program is unusable then.
  std::string Error;

  bool ok() const { return Error.empty(); }
};

/// Execution engine for ForthUnits.
class ForthVM {
public:
  struct Result {
    bool Halted = false;      ///< reached HALT (vs step limit / error)
    uint64_t Steps = 0;       ///< VM instructions executed
    int64_t Top = 0;          ///< top of data stack at halt (0 if empty)
    uint64_t OutputHash = 0;  ///< FNV-1a hash of all EMIT/. output
    std::string Error;        ///< VM-level error (underflow etc.)

    bool ok() const { return Halted && Error.empty(); }
  };

  explicit ForthVM(uint32_t MemCells = 1u << 20, uint64_t RandSeed = 42);

  /// Runs \p Unit. \p Sim, if non-null, receives a step event per
  /// executed VM instruction. \p ExecCounts, if non-null, is resized to
  /// the program and incremented per instruction index (training runs).
  /// \p Capture, if non-null, records the (Cur, Next) dispatch stream
  /// for later GangReplayer runs (capture-once/replay-many sweeps);
  /// capturing needs no Sim.
  Result run(const ForthUnit &Unit, DispatchSim *Sim = nullptr,
             uint64_t MaxSteps = 1ull << 33,
             std::vector<uint64_t> *ExecCounts = nullptr,
             DispatchTrace *Capture = nullptr);

private:
  uint32_t MemCells;
  uint64_t RandSeed;
};

} // namespace vmib

#endif // VMIB_FORTHVM_FORTHVM_H
