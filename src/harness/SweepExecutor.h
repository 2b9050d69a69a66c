//===- harness/SweepExecutor.h - Run sweep specs in-process -----*- C++ -*-===//
///
/// \file
/// Executes `SweepSpec`s over the lab replay pipeline. The executor is
/// the single implementation both execution modes share:
///
///  - `runAll()` — the in-process path: trace-affine `pipelineSweep`
///    over the workloads (capture of workload i+1 overlapped with the
///    gang replay of workload i), one chunk-tiled gang per workload
///    covering every (CPU × variant × predictor) member.
///  - `runSlice()` — the shard-worker path: one workload's contiguous
///    member range as a single gang (what a `sweep_driver --worker`
///    process executes for its ShardJob).
///
/// Both paths honor the spec's `Threads` knob: each gang replays on
/// GangReplayer's shared-tile worker pool (tiles planned from the costs
/// measured on earlier tiles, work stealing, overflowing members
/// restarting in place on the pool) when the resolved thread count
/// exceeds 1 (Threads == 0 auto-detects the
/// host's core count, see resolveGangThreads) — so a worker process
/// can use several cores of its host without re-decoding the trace per
/// core (two-level shards × threads fan-out). Cells are bit-identical
/// for any (shards, threads) pair.
///
/// Every member is a *full* replay, so a member's counters do not
/// depend on which other members share the gang — `runAll` and any
/// shard decomposition produce bit-identical cells (pinned by
/// tests/SweepSpecTest.cpp).
///
/// Labs can be borrowed (a bench passes its own, keeping one set of
/// compile/reference/trace caches per process) or are created lazily.
///
//===----------------------------------------------------------------------===//

#ifndef VMIB_HARNESS_SWEEPEXECUTOR_H
#define VMIB_HARNESS_SWEEPEXECUTOR_H

#include "harness/ForthLab.h"
#include "harness/JavaLab.h"
#include "harness/ResultStore.h"
#include "harness/SweepSpec.h"

#include <memory>
#include <vector>

namespace vmib {

class Auditor;

/// Resolves a spec's `threads` field to the worker count a gang
/// actually runs with: 0 (the auto-detect request, `--threads=0` /
/// `threads 0`) becomes the host's hardware_concurrency (min 1); any
/// other value passes through.
unsigned resolveGangThreads(unsigned SpecThreads);

/// Wall-clock accounting of one sweep execution, in the units the
/// standard [timing] line reports.
struct SweepRunStats {
  double CaptureSeconds = 0; ///< producer-thread busy time
  double ReplaySeconds = 0;  ///< wall clock of the replay/pipeline stage
  /// Trace events × members actually replayed (store-served cells
  /// count nothing).
  uint64_t ReplayedEvents = 0;
  size_t Configs = 0;
  /// Gang worker-pool accounting summed over every gang this sweep
  /// replayed (per-worker events/waits/steals/busy time, restarted
  /// member counts, streaming decode and tile-ring figures).
  GangReplayer::Stats Load;
};

/// What the result store holds for members [Begin, End) of one
/// workload.
struct StoredSlice {
  /// Whether the cells could be keyed at all: the trace content hash
  /// was known.
  bool Keyed = false;
  uint64_t TraceHash = 0; ///< the hash the cell keys derive from
  /// Slice order; the stored cells are filled in.
  std::vector<PerfCounters> Cells;
  /// Members (ascending) the store did not serve — all of them when
  /// !Keyed.
  std::vector<size_t> Missing;

  bool complete() const { return Keyed && Missing.empty(); }
};

/// The result-store probe every entry point shares: looks up members
/// [\p MemberBegin, \p MemberEnd) of workload \p Workload under
/// \p TraceHash, or — when null — under the content hash the
/// workload's trace cache file declares in its header
/// (DispatchTrace::peekContentHash: nothing is loaded or captured).
/// \p Counted books every hit and miss in the store's stats (the
/// serving lookup); otherwise the probe is stats-free — the
/// all-or-nothing checks of the orchestrator and the warm-store fast
/// paths, which leave the accounting to whoever serves the cells.
StoredSlice probeStoredSlice(ResultStore &Store, const SweepSpec &Spec,
                             size_t Workload, size_t MemberBegin,
                             size_t MemberEnd, bool Counted,
                             const uint64_t *TraceHash = nullptr);

class SweepExecutor {
public:
  /// Borrow \p Forth / \p Java (may be null: created lazily on first
  /// use for the relevant suite).
  explicit SweepExecutor(ForthLab *Forth = nullptr, JavaLab *Java = nullptr)
      : ForthRef(Forth), JavaRef(Java) {}

  /// Attaches an open ResultStore (borrowed, may be null to detach):
  /// runSlice then serves cells whose content keys hit the store
  /// without replaying them, and records + flushes fresh cells before
  /// returning — so a cell a worker computed is durable before the
  /// orchestrator can commit the rows announcing it.
  void setResultStore(ResultStore *S) { Store = S; }

  /// Arms compute-fault injection (the `flipcounter` mass of
  /// VMIB_FAULT): each freshly computed cell draws deterministically
  /// and may get one bit flipped BEFORE it is returned or committed to
  /// the store — modelling silent compute corruption the audit layer
  /// must catch. Store-served cells are not re-flipped here (that is
  /// the store's own `flipstore` mass).
  void setFaultInjection(const FaultPlan &Plan) { Faults = Plan; }

  /// Attaches an Auditor (borrowed, may be null to detach): runAll
  /// then audits each workload's row after the pipeline completes —
  /// serially, because the Auditor is not thread-safe — repairing rows
  /// in place before cells scatter.
  void setAuditor(Auditor *A) { Audit = A; }

  /// The audit layer's re-execution entry: replays \p Members
  /// (ascending) of \p Workload exactly as specced, with NO result
  /// store consultation and NO fault injection — a clean, direct
  /// recompute whose only inputs are the trace and the spec.
  /// \p LoadOut, when non-null, accumulates (merges) the gang's pool
  /// accounting.
  std::vector<PerfCounters>
  replayMembersDirect(const SweepSpec &Spec, size_t Workload,
                      const std::vector<size_t> &Members,
                      GangReplayer::Stats *LoadOut = nullptr);

  /// Runs gang members [MemberBegin, MemberEnd) of workload \p Workload
  /// as one gang over the workload's trace; results in member order.
  /// Members the attached store holds are served without replay. The
  /// gang replays on resolveGangThreads(Spec.Threads) workers;
  /// \p LoadOut, when non-null, accumulates (merges) the gang's pool
  /// accounting.
  std::vector<PerfCounters> runSlice(const SweepSpec &Spec, size_t Workload,
                                     size_t MemberBegin, size_t MemberEnd,
                                     GangReplayer::Stats *LoadOut = nullptr);

  /// The full in-process sweep: every cell, workload-major canonical
  /// order, with capture overlapped via pipelineSweep. Workloads the
  /// attached store fully serves skip the pipeline — no warmup, no
  /// trace load, no replay. \p Threads == 0 uses defaultSweepThreads().
  SweepRunStats runAll(const SweepSpec &Spec, unsigned Threads,
                       std::vector<PerfCounters> &Cells);

  ForthLab &forth();
  JavaLab &java();
  /// The lab of \p Spec's suite: where a sweep loads or captures its
  /// traces and warms up.
  WorkloadLab &lab(const SweepSpec &Spec);

private:
  // The slice runners take an arbitrary (ascending) member list rather
  // than a contiguous range: with a result store attached, the members
  // still missing after the probe are whatever subset the store did
  // not cover.
  std::vector<PerfCounters> runForthSlice(const SweepSpec &Spec,
                                          size_t Workload,
                                          const std::vector<size_t> &Members,
                                          GangReplayer::Stats *LoadOut);
  std::vector<PerfCounters> runJavaSlice(const SweepSpec &Spec,
                                         size_t Workload,
                                         const std::vector<size_t> &Members,
                                         GangReplayer::Stats *LoadOut);

  ForthLab *ForthRef;
  JavaLab *JavaRef;
  std::unique_ptr<ForthLab> OwnedForth;
  std::unique_ptr<JavaLab> OwnedJava;
  ResultStore *Store = nullptr;
  Auditor *Audit = nullptr;
  FaultPlan Faults;
};

} // namespace vmib

#endif // VMIB_HARNESS_SWEEPEXECUTOR_H
