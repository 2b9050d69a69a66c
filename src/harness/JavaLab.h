//===- harness/JavaLab.h - Java experiment runner ---------------*- C++ -*-===//
///
/// \file
/// Runs Java-suite benchmarks under interpreter variants and CPU
/// models. Implements the paper's JVM selection scheme (§7.1): static
/// superinstructions and replicas are selected *per benchmark* from the
/// static profiles of all the *other* programs of the suite
/// (leave-one-out), favouring shorter sequences. Quickening mutates the
/// program, so every run works on a fresh copy.
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
#include "javavm/JavaVM.h"
#include "uarch/CpuModel.h"
#include "vmcore/DispatchBuilder.h"
#include "vmcore/DispatchTrace.h"
#include "vmcore/GangReplayer.h"
#include "vmcore/TraceSource.h"
#include "workloads/JavaSuite.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace vmib {

/// Cached assembly + selection state for the Java suite.
///
/// All per-benchmark state (assembly, reference run, trace) is
/// populated lazily on first use, so a sweep-shard worker touching one
/// workload does not pay for a whole-suite eager constructor.
class JavaLab {
public:
  JavaLab();

  /// The pristine assembled program for a suite benchmark (assembled +
  /// reference-run on first use). Thread-safe.
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
  uint64_t runtimeOverhead(const std::string &Benchmark,
                           const CpuConfig &Cpu);

  /// The captured dispatch trace of \p Benchmark — the (Cur, Next)
  /// stream plus quickening rewrites of one hash-verified run on a
  /// pristine copy. Loaded from the VMIB_TRACE_CACHE directory when a
  /// verified file exists, otherwise captured once (and saved back);
  /// then cached in memory. Thread-safe.
  const DispatchTrace &trace(const std::string &Benchmark);

  /// The replay input for \p Benchmark under \p Mode: a borrowed
  /// in-memory trace (zero-copy tiles) or a validated streaming view
  /// of the benchmark's trace cache file (O(tile) working memory).
  /// Auto streams only when the decoded footprint exceeds
  /// AutoDecodeBudgetBytes AND a valid cache file exists. An explicit
  /// Stream request with no streamable file falls back to
  /// materializing with a warning — replay never fails over a missing
  /// optimization. Counters are bit-identical either way. Thread-safe.
  TraceSource traceSource(const std::string &Benchmark,
                          TraceDecodeMode Mode = TraceDecodeMode::Auto);

  /// Reference output hash of \p Benchmark (what every variant run and
  /// the trace cache verify against). Thread-safe. May come from a
  /// persisted meta sidecar in VMIB_TRACE_CACHE (see WorkloadCache.h),
  /// in which case it is provisional: the first actual interpretation
  /// confirms it, and a stale sidecar falls back to a real reference
  /// run instead of aborting.
  uint64_t referenceHash(const std::string &Benchmark);

  /// Steps of the reference run (== events of the captured trace).
  /// Thread-safe.
  uint64_t referenceSteps(const std::string &Benchmark);

  /// Whole-workload reference interpretations this lab actually ran
  /// (cold-start accounting; sidecar hits keep this at zero).
  uint64_t referenceRunsPerformed() const {
    return ReferenceRuns.load(std::memory_order_relaxed);
  }
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

  /// Releases a cached trace (memory control in long sweeps). NOT safe
  /// while replays of \p Benchmark are in flight: they hold references
  /// into the cached trace. Call only between sweep phases.
  void dropTrace(const std::string &Benchmark);

  /// Populates the caches a parallel sweep will hit — the benchmark's
  /// trace, the runtime-overhead basis, and the post-quickening static
  /// profiles of the whole suite (every leave-one-out resource
  /// selection interprets them otherwise); called serially by the
  /// bench capture phase so workers never run a whole-workload
  /// interpretation under the cache lock.
  /// \p Decode mirrors the sweep's decode mode: a streaming sweep
  /// only validates the trace cache file here (capturing it if
  /// absent) instead of pinning the whole event arena in memory.
  void warmup(const std::string &Benchmark, const CpuConfig &Cpu,
              TraceDecodeMode Decode = TraceDecodeMode::Auto) {
    (void)traceSource(Benchmark, Decode);
    (void)plainInterpCycles(Benchmark, Cpu);
    for (const JavaBenchmark &B : javaSuite())
      (void)profileOf(B.Name);
  }

  /// Batch replay: one chunk-tiled GangReplayer pass covering every
  /// variant, each member owning a fresh program copy whose recorded
  /// quickenings are re-applied at their exact event positions.
  /// Results are in variant order, bit-identical to run() per cell
  /// (runtime overhead included; a one-variant gang is a per-config
  /// replay). Thread-safe. With \p Threads > 1 the gang replays on the
  /// shared-tile worker pool (each quickening member has one owner per
  /// tile, so results stay bit-identical for any thread count);
  /// \p StatsOut receives the pool accounting when non-null.
  /// \p SeedCostNs, when non-null, seeds the pool scheduler's
  /// per-member cost EWMAs (variant order, 0 = unknown — see
  /// GangReplayer::seedMemberCost); \p FinalCostNs, when non-null,
  /// receives the end-of-run EWMAs a pooled pass measured (empty
  /// otherwise). Both steer scheduling only, never counters.
  std::vector<PerfCounters>
  replayGang(const std::string &Benchmark,
             const std::vector<VariantSpec> &Variants, const CpuConfig &Cpu,
             unsigned Threads = 1, GangReplayer::Stats *StatsOut = nullptr,
             const std::vector<uint64_t> *SeedCostNs = nullptr,
             std::vector<uint64_t> *FinalCostNs = nullptr,
             TraceDecodeMode Decode = TraceDecodeMode::Auto);

  /// replayGang() without the runtime-system overhead cycles.
  std::vector<PerfCounters>
  replayGangNoOverhead(const std::string &Benchmark,
                       const std::vector<VariantSpec> &Variants,
                       const CpuConfig &Cpu, unsigned Threads = 1,
                       GangReplayer::Stats *StatsOut = nullptr,
                       const std::vector<uint64_t> *SeedCostNs = nullptr,
                       std::vector<uint64_t> *FinalCostNs = nullptr,
                       TraceDecodeMode Decode = TraceDecodeMode::Auto);

private:
  /// Post-quickening static profile of one benchmark (the state static
  /// selection sees: quick forms, §5.4).
  const SequenceProfile &profileOf(const std::string &Benchmark);

  /// Interpreter-only cycles of the plain variant (overhead basis),
  /// from a one-member quickening gang; cached per (benchmark, CPU).
  uint64_t plainInterpCycles(const std::string &Benchmark,
                             const CpuConfig &Cpu);

  PerfCounters runNoOverhead(const std::string &Benchmark,
                             const VariantSpec &Variant,
                             const CpuConfig &Cpu);

  /// Assembles + reference-runs \p Benchmark if not cached yet (fatal
  /// on an unknown name or failing reference run, like the old eager
  /// constructor). A valid meta sidecar stands in for the reference
  /// run (the hash is then provisional until confirmed).
  const JavaProgram &programLocked(const std::string &Benchmark);
  const SequenceProfile &profileOfLocked(const std::string &Benchmark);
  const StaticResources &resourcesLocked(const std::string &Benchmark,
                                         uint32_t SuperCount,
                                         uint32_t ReplicaCount);

  /// The authoritative reference hash: re-runs the reference
  /// interpretation when the cached value is provisional
  /// (sidecar-sourced), refreshing the sidecar. Called on the
  /// verification-failure path so a stale sidecar degrades to one
  /// extra run, never to a false divergence abort.
  uint64_t confirmedReferenceHash(const std::string &Benchmark);

  std::map<std::string, JavaProgram> Programs;
  std::map<std::string, uint64_t> ReferenceHash;
  std::map<std::string, uint64_t> ReferenceSteps;
  std::map<std::string, uint64_t> BindingHash; ///< assembled-program id
  std::map<std::string, bool> HashFromSidecar;
  std::atomic<uint64_t> ReferenceRuns{0};
  std::atomic<uint64_t> ProfileRuns{0};
  std::map<std::string, SequenceProfile> Profiles;
  std::map<std::string, StaticResources> ResourceCache;
  std::map<std::string, uint64_t> PlainCycleCache;
  std::map<std::string, DispatchTrace> Traces;
  // Plain mutex on purpose: the *Locked helpers exist so nothing locks
  // re-entrantly; accidental re-entrancy should deadlock loudly, not
  // silently recurse.
  std::mutex CacheMutex;
};

} // namespace vmib

#endif // VMIB_HARNESS_JAVALAB_H
