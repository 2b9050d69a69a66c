//===- javavm/JavaVM.h - Mini-JVM execution engine --------------*- C++ -*-===//
///
/// \file
/// The mini-JVM: frames over a flat code segment, an object/array heap,
/// statics, and JVM-style quickening (§5.4): quickable instructions
/// resolve their symbolic constant-pool operand on first execution,
/// rewrite themselves into their quick form, and notify the dispatch
/// layout so it can patch the pre-reserved code gap.
///
//===----------------------------------------------------------------------===//

#ifndef VMIB_JAVAVM_JAVAVM_H
#define VMIB_JAVAVM_JAVAVM_H

#include "javavm/JavaProgram.h"
#include "vmcore/DispatchProgram.h"
#include "vmcore/DispatchSim.h"
#include "vmcore/DispatchTrace.h"

#include <string>
#include <vector>

namespace vmib {

/// Execution engine for JavaPrograms. Quickening mutates the program,
/// so callers pass a fresh copy per experiment.
class JavaVM {
public:
  struct Result {
    bool Halted = false;
    uint64_t Steps = 0;
    uint64_t OutputHash = 0; ///< FNV-1a over printi output
    uint64_t Quickenings = 0;
    std::string Error;

    bool ok() const { return Halted && Error.empty(); }
  };

  explicit JavaVM(uint32_t HeapLimit = 1u << 22);

  /// Runs \p Program (mutated by quickening). \p Sim, if non-null,
  /// receives one step per executed VM instruction; \p Layout, if
  /// non-null, receives onQuicken notifications (it must have been
  /// built over \p Program's VMProgram). \p ExecCounts, if non-null,
  /// collects per-instruction execution counts (training runs).
  /// \p Capture, if non-null, records the (Cur, Next) dispatch stream
  /// plus the quickening rewrites so GangReplayer can re-drive any
  /// layout over a fresh program copy; capturing needs no Sim/Layout.
  Result run(JavaProgram &Program, DispatchSim *Sim = nullptr,
             DispatchProgram *Layout = nullptr,
             uint64_t MaxSteps = 1ull << 33,
             std::vector<uint64_t> *ExecCounts = nullptr,
             DispatchTrace *Capture = nullptr);

private:
  uint32_t HeapLimit;
};

} // namespace vmib

#endif // VMIB_JAVAVM_JAVAVM_H
