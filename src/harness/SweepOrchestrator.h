//===- harness/SweepOrchestrator.h - Multi-process sweep fan-out *- C++ -*-===//
///
/// \file
/// Distributes a `SweepSpec` over worker *processes* and merges their
/// results. The orchestrator decomposes the spec into ShardJobs
/// (decomposeSweep), keeps up to `Shards` workers alive at a time, and
/// parses each worker's `[result]` lines back into the canonical cell
/// vector — bit-identical to `SweepExecutor::runAll` because cells are
/// pure functions of (trace, configuration) and the result lines are
/// exact decimal round trips.
///
/// Workers are launched through a shell command template, so the same
/// orchestrator fans out locally (the default template runs the
/// sibling `sweep_driver` binary) or across machines (an SSH/queue
/// template — the spec file and trace cache just have to be reachable
/// from the remote side):
///
///   {driver} --worker --spec={spec} --shards={shards} --job={job}
///     --threads={threads} --attempt={attempt} {store}
///   ssh host 'VMIB_TRACE_CACHE=/shared/cache {driver} --worker ... {store}'
///
/// `{attempt}` is the job's attempt number (0 for the first launch,
/// one more per retry): workers only use it to seed deterministic fault
/// injection (VMIB_FAULT), so templates without the placeholder still
/// work. `{store}` is `--store-dir=<dir>` while `Store` is open and
/// empty otherwise; a template without it fails the sweep before any
/// spawn while a store is open. The paths behind `{driver}`, `{spec}`
/// and `{store}` each reach the shell as one word (single-quoted when
/// they hold anything beyond [A-Za-z0-9_./:@%+=,-]), and placeholders
/// expand in one pass, so a path holding `{job}` stays as written.
/// Older templates may still carry `--schedule={schedule}`; the
/// placeholder is left as is and workers ignore the flag.
///
/// Fan-out is two-level: `Shards` worker processes × `Threads`
/// intra-gang worker threads per process (GangReplayer shared decoded
/// tiles), so a multi-core worker host uses its cores off ONE decode
/// of its trace instead of running N whole processes that each
/// re-decode it.
///
/// The worker protocol is line-oriented stdout: any number of
/// `[timing]` lines (echoed through for the timing artifact), one
/// `[result]` line per finished member, exit status 0. Anything else
/// is ignored, so workers can keep printing banners. Worker stderr is
/// captured separately; its tail is attached to every failure
/// diagnostic.
///
/// **Failure model** (docs/simulation-pipeline.md, "Failure model"):
/// a worker attempt FAILS when it exits non-zero, dies on a signal,
/// exceeds the per-job wall-clock timeout (SIGTERM, then SIGKILL
/// after a grace period — both sent to the worker's process group),
/// violates the protocol (result outside its shard, duplicate
/// member), or exits 0 without covering its shard. A failed attempt's
/// partial `[result]` rows are DISCARDED — every attempt accumulates
/// into private staging buffers that are committed only on clean
/// completion, so `mergeShardResults`' coverage guarantees are
/// unaffected by how many attempts died mid-stream. The job then
/// re-enters the queue with exponential backoff + deterministic
/// jitter, up to `Retries` requeues; a job that exhausts its budget
/// fails the sweep loudly (with the worker's stderr tail) unless
/// `PartialOk` degrades it to a per-cell coverage report. A job has
/// at most one live attempt: a stalled worker is ended by the job
/// timeout and its job requeued like any other failure.
///
//===----------------------------------------------------------------------===//

#ifndef VMIB_HARNESS_SWEEPORCHESTRATOR_H
#define VMIB_HARNESS_SWEEPORCHESTRATOR_H

#include "harness/Auditor.h"
#include "harness/SweepExecutor.h"
#include "harness/SweepSpec.h"

#include <cstdint>
#include <string>
#include <vector>

namespace vmib {

/// How to fan a sweep out over worker processes.
struct SweepWorkerOptions {
  /// Worker processes kept running concurrently (and the decomposition
  /// granularity hint handed to decomposeSweep).
  unsigned Shards = 1;
  /// Intra-gang worker threads per worker process ({threads} in the
  /// command template): the second level of a shards × threads
  /// fan-out. 0 defers to the spec's own `threads` field.
  unsigned Threads = 0;
  /// Spec file passed to workers as {spec}: the spec is the only
  /// carrier of execution shape (chunk, decode, threads) to workers.
  /// Empty, or a file that does not print to the same spec text as
  /// the orchestrated spec (say, one a --chunk or --decode override
  /// changed): the orchestrator writes the effective spec to a temp
  /// file and removes it afterwards. For remote templates this must be
  /// a path the remote side can read; a path this process cannot read
  /// is passed through as is.
  std::string SpecPath;
  /// Shell command template; {driver}, {spec}, {shards}, {job},
  /// {threads}, {attempt} and {store} are substituted. Empty uses the
  /// default local-worker template above.
  std::string CommandTemplate;
  /// Path substituted for {driver}; empty uses defaultSweepDriverPath().
  std::string DriverBinary;
  /// Echo worker [timing] lines to stdout (the merged timing
  /// artifact). Only lines from *committed* attempts are echoed, so
  /// retried duplicates never double-count in the artifact.
  bool EchoWorkerTimings = true;

  //===--- fault tolerance -------------------------------------------------===//

  /// Requeues allowed per job after its first attempt fails (exit
  /// non-zero, signal, timeout, protocol violation, short coverage).
  /// 0 keeps the strict fail-fast behavior.
  unsigned Retries = 0;
  /// Base requeue delay; requeue i of a job waits
  /// BackoffMs << (i-1) (capped at << 6) ± 25% deterministic jitter.
  unsigned BackoffMs = 250;
  /// Per-attempt wall-clock budget in milliseconds; 0 = no timeout.
  /// An over-budget worker's process group gets SIGTERM, then SIGKILL
  /// after KillGraceMs.
  unsigned JobTimeoutMs = 0;
  /// SIGTERM-to-SIGKILL escalation grace.
  unsigned KillGraceMs = 2000;
  /// A job that exhausts its retries stops the sweep (false) or is
  /// recorded in the report while the rest of the sweep completes
  /// (true). Uncovered cells are zero-filled; OrchestratorReport says
  /// which.
  bool PartialOk = false;
  /// Seed for the backoff jitter (deterministic: same seed + same
  /// failure schedule = same delays).
  uint64_t JitterSeed = 0x76696d6962ULL;

  //===--- incremental results ---------------------------------------------===//

  /// Open ResultStore (borrowed, may be null) probed BEFORE shard
  /// dispatch: a job whose every cell already resolves by content key
  /// is committed from the store without spawning a worker. Workers
  /// additionally consult the same store (its directory reaches them
  /// through {store} on their command line) for partially-covered
  /// jobs, and report their hit/miss accounting back on `[store]`
  /// lines.
  ResultStore *Store = nullptr;

  //===--- redundant-execution audit ---------------------------------------===//

  /// Sampled audit (harness/Auditor). Once every primary has settled,
  /// this process audits each committed job's slice with
  /// Auditor::auditSlice, exactly as the in-process executor does:
  /// the cells the seeded draw samples replay through the decorrelated
  /// shape on a clean executor (no store, no fault injection), and
  /// mismatches go through the canonical tiebreak and the triage
  /// ladder, which quarantines implicated cells in `Store` and repairs
  /// the slice before the merge. The orchestrator therefore loads (or,
  /// without VMIB_TRACE_CACHE, recaptures) the traces it audits.
  /// Workers never audit.
  AuditPlan Audit;
};

/// What happened while fanning a sweep out: retry/timeout
/// accounting plus — under PartialOk — exactly which jobs and cells
/// are missing. All-zero counters mean every job succeeded first try.
struct OrchestratorReport {
  unsigned AttemptsLaunched = 0; ///< all spawns, including retries
  unsigned WorkerFailures = 0;   ///< failed attempts (any cause)
  unsigned Timeouts = 0;         ///< attempts killed by the job timeout
  unsigned RetriesScheduled = 0; ///< requeues actually performed
  /// Jobs (decomposeSweep indices) that exhausted their retry budget.
  /// Non-empty only under PartialOk (otherwise the sweep failed).
  std::vector<size_t> FailedJobs;
  /// Final failure diagnostic per entry of FailedJobs (parallel array).
  std::vector<std::string> FailedJobErrors;
  /// Per canonical cell: 1 when a committed attempt reported it.
  std::vector<uint8_t> CellCovered;
  /// First failure diagnostic observed (kept even when the attempt
  /// was successfully retried — field diagnosis wants the cause, not
  /// just the recovery).
  std::string FirstFailure;

  //===--- result-store accounting -----------------------------------------===//

  /// Jobs committed straight from the orchestrator's pre-dispatch
  /// store probe (no worker spawned).
  size_t JobsServedFromStore = 0;
  /// Cell lookups served from the store: pre-dispatch probe hits plus
  /// the hits committed workers reported on their [store] lines.
  uint64_t StoreHits = 0;
  /// Cell lookups that missed (committed workers only).
  uint64_t StoreMisses = 0;
  /// Records salvaged from torn segments (committed workers).
  uint64_t StoreRecovered = 0;
  /// Segments quarantined during recovery (committed workers).
  uint64_t StoreQuarantined = 0;
  /// Worker flushes that failed and kept records buffered.
  uint64_t StoreFlushFailures = 0;

  //===--- audit accounting ------------------------------------------------===//

  /// Sampled cells bit-compared against a decorrelated re-execution,
  /// with the triage verdicts, quarantines and repairs.
  AuditStats Audit;

  size_t cellsCovered() const {
    size_t N = 0;
    for (uint8_t C : CellCovered)
      N += C;
    return N;
  }
  bool complete() const { return FailedJobs.empty(); }
};

/// The sibling sweep_driver binary of the running executable
/// (<dir of /proc/self/exe>/sweep_driver), or "sweep_driver" when the
/// executable path cannot be resolved.
std::string defaultSweepDriverPath();

/// Runs \p Spec over worker processes per \p Opt; on success fills
/// \p Cells (canonical order; zero-filled for cells lost to a
/// PartialOk job failure) and \p Stats (ReplaySeconds = fan-out wall
/// clock; ReplayedEvents summed from committed workers' timing
/// lines). \p Report, when non-null, receives the fault-tolerance
/// accounting above. \returns false with \p Error set on spawn
/// failure, a job exhausting its retries without PartialOk, or
/// incomplete/duplicate coverage.
bool orchestrateSweep(const SweepSpec &Spec, const SweepWorkerOptions &Opt,
                      std::vector<PerfCounters> &Cells, SweepRunStats &Stats,
                      std::string &Error,
                      OrchestratorReport *Report = nullptr);

} // namespace vmib

#endif // VMIB_HARNESS_SWEEPORCHESTRATOR_H
