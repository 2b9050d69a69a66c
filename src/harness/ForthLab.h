//===- harness/ForthLab.h - Forth experiment runner -------------*- C++ -*-===//
///
/// \file
/// Runs Forth-suite benchmarks under interpreter variants and CPU
/// models, producing the paper's counters. What this lab owns beyond
/// its WorkloadLab base (reference numbers, trace capture and cache,
/// replay input): compiling the suite and generating the synthetic
/// workloads, and the training step — static replicas and
/// superinstructions are selected from a dynamic profile of the
/// brainless benchmark (§7.1), with resources cached per
/// (superCount, replicaCount) configuration.
///
/// Two execution paths produce bit-identical counters:
///  - replayGang(), and SweepExecutor's gangs: interpret once into a
///    cached DispatchTrace, then re-drive any number of (variant x
///    predictor x CPU) configurations through one GangReplayer pass.
///    Every printed paper number comes this way.
///  - run()/runWithPredictor(): interpret the workload with a
///    DispatchSim attached — the direct path, kept as the tests'
///    oracle and for the examples.
/// The caches are mutex-guarded, so gangs over different workloads
/// may run on concurrent sweep workers.
///
//===----------------------------------------------------------------------===//

#ifndef VMIB_HARNESS_FORTHLAB_H
#define VMIB_HARNESS_FORTHLAB_H

#include "harness/Variants.h"
#include "harness/WorkloadLab.h"
#include "vmcore/DispatchBuilder.h"
#include "vmcore/GangReplayer.h"
#include "workloads/ForthSuite.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace vmib {

/// Compilation + training state for the Forth suite; reference
/// numbers and traces come from the WorkloadLab base.
///
/// All per-benchmark state (compiled unit, reference numbers, trace)
/// is populated lazily on first use: a sweep-shard worker process that
/// touches one workload pays for that workload only, not for a
/// whole-suite eager constructor.
class ForthLab : public WorkloadLab {
public:
  ForthLab();

  /// The compiled unit for a suite benchmark, or the generated program
  /// of a synthetic one (compiled on first use). Thread-safe.
  const ForthUnit &unit(const std::string &Benchmark);

  /// The training profile (dynamic frequencies of brainless, §7.1).
  const SequenceProfile &trainingProfile();

  /// Static resources for a (supers, replicas) configuration; cached.
  const StaticResources &resources(uint32_t SuperCount,
                                   uint32_t ReplicaCount,
                                   bool ReplicateSupers);

  /// Runs \p Benchmark under \p Variant on \p Cpu; checks that the run
  /// halts cleanly and matches the reference output hash.
  PerfCounters run(const std::string &Benchmark, const VariantSpec &Variant,
                   const CpuConfig &Cpu);

  /// Same, with an externally supplied predictor (ablation bench).
  PerfCounters
  runWithPredictor(const std::string &Benchmark, const VariantSpec &Variant,
                   const CpuConfig &Cpu,
                   std::unique_ptr<IndirectBranchPredictor> Predictor);

  /// Training-benchmark interpretations actually run (a persisted
  /// training profile keeps this at zero).
  uint64_t trainingRunsPerformed() const {
    return TrainingRuns.load(std::memory_order_relaxed);
  }

  /// Batch replay: one chunk-tiled GangReplayer pass over the cached
  /// trace covering every variant (default BTB), so the trace streams
  /// from memory once for the whole batch instead of once per variant.
  /// Results are in variant order, bit-identical to run() per cell (a
  /// one-variant gang is a per-config replay). Thread-safe. With
  /// \p Threads > 1 the gang replays on the shared-tile worker pool
  /// (bit-identical for any thread count); \p StatsOut receives the
  /// pool accounting when non-null.
  std::vector<PerfCounters>
  replayGang(const std::string &Benchmark,
             const std::vector<VariantSpec> &Variants, const CpuConfig &Cpu,
             unsigned Threads = 1, GangReplayer::Stats *StatsOut = nullptr,
             TraceDecodeMode Decode = TraceDecodeMode::Auto);

  /// Builds the dispatch layout of (Benchmark, Variant) — the static
  /// construction a replay or direct run simulates over. Thread-safe.
  std::unique_ptr<DispatchProgram> buildLayout(const std::string &Benchmark,
                                               const VariantSpec &Variant);

private:
  /// Binds the compiled unit; a synthetic workload's exact identity is
  /// a pure function of its parameters.
  WorkloadBinding identify(const std::string &Benchmark) override;
  /// Interprets the unit, or generates a synthetic workload's trace.
  bool interpret(const std::string &Benchmark, DispatchTrace *Capture,
                 WorkloadMeta &Out, std::string &Error) override;
  void warmSelection() override { (void)trainingProfile(); }
  /// A replaced training-benchmark hash retires the training profile
  /// and every resource selection made from it.
  void retireDerived(const std::string &Benchmark) override;

  const SequenceProfile &trainingProfileLocked();
  const StaticResources &resourcesLocked(uint32_t SuperCount,
                                         uint32_t ReplicaCount,
                                         bool ReplicateSupers);

  /// Compiled units; a lock of their own, so interpret() can reach
  /// them with or without CacheMutex held.
  std::map<std::string, ForthUnit> Units;
  std::mutex UnitMutex;
  std::atomic<uint64_t> TrainingRuns{0};
  // Selection state, guarded by CacheMutex.
  std::unique_ptr<SequenceProfile> Training;
  std::map<std::string, StaticResources> ResourceCache;
};

} // namespace vmib

#endif // VMIB_HARNESS_FORTHLAB_H
