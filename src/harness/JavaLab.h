//===- harness/JavaLab.h - Java experiment runner ---------------*- C++ -*-===//
///
/// \file
/// Runs Java-suite benchmarks under interpreter variants and CPU
/// models. What this lab owns beyond its WorkloadLab base (reference
/// numbers, trace capture and cache, replay input): assembling the
/// suite, the paper's JVM selection scheme (§7.1) — static
/// superinstructions and replicas are selected *per benchmark* from the
/// static profiles of all the *other* programs of the suite
/// (leave-one-out), favouring shorter sequences — and the
/// runtime-overhead basis. Quickening mutates the program, so every run
/// works on a fresh copy.
///
/// Sweep counters come from one GangReplayer pass over the captured
/// trace (replayGang, SweepExecutor); run() interprets the workload
/// with a DispatchSim attached — the direct path the tests use as the
/// oracle.
///
//===----------------------------------------------------------------------===//

#ifndef VMIB_HARNESS_JAVALAB_H
#define VMIB_HARNESS_JAVALAB_H

#include "harness/Variants.h"
#include "harness/WorkloadLab.h"
#include "javavm/JavaVM.h"
#include "vmcore/DispatchBuilder.h"
#include "vmcore/GangReplayer.h"
#include "workloads/JavaSuite.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace vmib {

/// Assembly + selection state for the Java suite; reference numbers
/// and traces come from the WorkloadLab base.
///
/// All per-benchmark state (assembly, reference numbers, trace) is
/// populated lazily on first use, so a sweep-shard worker touching one
/// workload does not pay for a whole-suite eager constructor.
class JavaLab : public WorkloadLab {
public:
  JavaLab();

  /// The pristine assembled program for a suite benchmark (assembled
  /// on first use). Thread-safe.
  const JavaProgram &program(const std::string &Benchmark);

  /// Leave-one-out static resources for \p Benchmark (§7.1); cached per
  /// (benchmark, supers, replicas).
  const StaticResources &resources(const std::string &Benchmark,
                                   uint32_t SuperCount,
                                   uint32_t ReplicaCount);

  /// Runs \p Benchmark under \p Variant on \p Cpu; verifies the output
  /// hash against the reference run. The returned cycle count includes
  /// the benchmark's runtime-system overhead (see runtimeOverhead).
  PerfCounters run(const std::string &Benchmark, const VariantSpec &Variant,
                   const CpuConfig &Cpu);

  /// Cycles the benchmark spends *outside* the interpreter (garbage
  /// collection, allocation paths, verification — §7.2.2: "the Java VM
  /// spends a considerable portion of its time outside the
  /// interpreter"). Modelled as a per-benchmark fraction of the plain
  /// interpreter's cycles, calibrated to SPECjvm98's known runtime
  /// shares (jack/javac/mtrt runtime-bound, compress/mpeg loop-bound);
  /// added identically to every variant, so it dampens — but never
  /// reorders — the speedups, exactly as in the paper.
  /// The plain cycles (the basis) are what a replayGang of
  /// (\p Benchmark, \p Cpu) in this lab stored; only when no such gang
  /// ran does this replay the plain variant as a one-member gang (the
  /// direct-run oracle, benches reading overheads after an orchestrated
  /// sweep). Thread-safe.
  uint64_t runtimeOverhead(const std::string &Benchmark,
                           const CpuConfig &Cpu);

  /// Profile interpretations actually run (persisted per-benchmark
  /// static profiles keep this at zero).
  uint64_t profileRunsPerformed() const {
    return ProfileRuns.load(std::memory_order_relaxed);
  }

  /// Builds the dispatch layout of (Benchmark, Variant) over \p Over —
  /// the caller's fresh program copy that recorded quickenings will
  /// mutate during replay. Thread-safe.
  std::unique_ptr<DispatchProgram> buildLayout(const std::string &Benchmark,
                                               const VariantSpec &Variant,
                                               const VMProgram &Over);

  /// Batch replay: one chunk-tiled GangReplayer pass covering every
  /// variant, each member owning a fresh program copy whose recorded
  /// quickenings are re-applied at their exact event positions.
  /// Results are in variant order, bit-identical to run() per cell
  /// (runtime overhead included; a one-variant gang is a per-config
  /// replay). The overhead basis is the interpreter cycles of the
  /// gang's own plain member — the variant whose every field but the
  /// name builds the plain layout — or of a hidden plain member
  /// appended when the list has none (its row is dropped); the basis
  /// is stored for runtimeOverhead(). Thread-safe. With \p Threads > 1
  /// the gang replays on the shared-tile worker pool (each member has
  /// one owner per tile, so results stay bit-identical for any thread
  /// count); \p StatsOut receives the pool accounting when non-null.
  std::vector<PerfCounters>
  replayGang(const std::string &Benchmark,
             const std::vector<VariantSpec> &Variants, const CpuConfig &Cpu,
             unsigned Threads = 1, GangReplayer::Stats *StatsOut = nullptr,
             TraceDecodeMode Decode = TraceDecodeMode::Auto);

private:
  /// Binds the pristine assembled program.
  WorkloadBinding identify(const std::string &Benchmark) override;
  /// Interprets a scratch copy (quickening mutates the program; a
  /// capture records the rewrites for replays to re-apply).
  bool interpret(const std::string &Benchmark, DispatchTrace *Capture,
                 WorkloadMeta &Out, std::string &Error) override;
  /// Profiles the whole suite: every leave-one-out selection merges
  /// the other benchmarks' profiles.
  void warmSelection() override;
  /// A replaced hash retires the benchmark's profile and every
  /// selection that merged it.
  void retireDerived(const std::string &Benchmark) override;

  /// Post-quickening static profile of one benchmark (the state static
  /// selection sees: quick forms, §5.4).
  const SequenceProfile &profileOfLocked(const std::string &Benchmark);
  const StaticResources &resourcesLocked(const std::string &Benchmark,
                                         uint32_t SuperCount,
                                         uint32_t ReplicaCount);

  /// replayGang() without the runtime-system overhead cycles and
  /// without a hidden member.
  std::vector<PerfCounters>
  replayGangNoOverhead(const std::string &Benchmark,
                       const std::vector<VariantSpec> &Variants,
                       const CpuConfig &Cpu, unsigned Threads = 1,
                       GangReplayer::Stats *StatsOut = nullptr,
                       TraceDecodeMode Decode = TraceDecodeMode::Auto);

  /// Stores the overhead basis of (\p Benchmark, \p Cpu) for
  /// runtimeOverhead(); the first value stored wins (every gang
  /// computes the same one).
  void recordBasis(const std::string &Benchmark, const CpuConfig &Cpu,
                   uint64_t PlainInterpCycles);

  PerfCounters runNoOverhead(const std::string &Benchmark,
                             const VariantSpec &Variant,
                             const CpuConfig &Cpu);

  /// Assembled programs; a lock of their own, so interpret() can reach
  /// them with or without CacheMutex held.
  std::map<std::string, JavaProgram> Programs;
  std::mutex ProgramMutex;
  std::atomic<uint64_t> ProfileRuns{0};
  // Selection and basis state, guarded by CacheMutex.
  std::map<std::string, SequenceProfile> Profiles;
  std::map<std::string, StaticResources> ResourceCache;
  /// Plain interpreter cycles per "benchmark@cpu": the overhead basis.
  std::map<std::string, uint64_t> PlainCycles;
};

} // namespace vmib

#endif // VMIB_HARNESS_JAVALAB_H
