//===- tools/sweep_driver.cpp - Sharded sweep driver ----------------------===//
///
/// Runs a declarative SweepSpec (see docs/simulation-pipeline.md,
/// "Distributed sweeps" and "Failure model") either in-process or
/// sharded over worker processes, and verifies that both produce
/// bit-identical cells.
///
///   sweep_driver --spec=F                      orchestrate (default:
///                [--shards=N] [--worker-cmd=T]  1 worker process)
///   sweep_driver --spec=F --in-process          single-process gang sweep
///   sweep_driver --spec=F --worker              one shard job: replay its
///                --shards=N --job=I             gang slice, emit [result]
///                [--attempt=A]                  lines on stdout
///   sweep_driver --spec=F --verify --shards=N   run in-process serial,
///                                               threaded (when the
///                                               threads knob is set),
///                                               materialized and
///                                               streamed, 1-worker and
///                                               N-worker sharded;
///                                               bit-compare all of
///                                               them and report
///                                               wall-clock scaling +
///                                               the :loadbalance line
///   sweep_driver --spec=F --emit-spec           parse + reprint the spec
///
/// Replay-path knob (docs/simulation-pipeline.md, "Streaming decode"):
/// `--decode=materialize|stream|auto` picks how replay acquires the
/// event stream (whole trace in memory vs O(tile) streaming decode
/// from the trace cache file; auto streams past the
/// VMIB_DECODE_BUDGET footprint). It is bit-identity-neutral by
/// contract, and `--verify` proves it: the decode axis reloads every
/// trace through the cache file, re-runs the sweep materialized and
/// streamed (serially, and threaded when the threads knob is set),
/// bit-compares every run, and emits the `:decodebandwidth` [timing]
/// line (load events/s, the on-disk compression ratio, the streaming
/// tile-read rate and peak tile-ring bytes). The decision is
/// re-exported via VMIB_TRACE_DECODE so forked workers agree.
///
/// --threads=N overrides the spec's `threads` field everywhere: each
/// gang replays on GangReplayer's shared-tile worker pool (one decoder
/// feeding N workers, cost-planned tiles, work stealing, overflowing
/// members restarting in place), bit-identical to the serial gang. N=0
/// auto-detects the host's core count at executor level. Fan-out is
/// two-level — `--shards=S --threads=N` runs S worker processes × N
/// intra-gang threads each, so a multi-core worker host uses its cores
/// off one trace decode instead of S×N processes.
///
/// Fault tolerance (every orchestrating mode): a worker attempt that
/// exits non-zero, hangs past `--job-timeout=MS` (SIGTERM, then
/// SIGKILL after `--kill-grace=MS`), garbles its protocol, or exits
/// short is discarded wholesale and its job requeued up to
/// `--retries=N` times with exponential backoff (`--backoff-ms=MS`,
/// deterministic jitter). `--hedge=K` re-dispatches the last K
/// outstanding jobs to idle slots (first completion wins — cells are
/// deterministic, so any winner is THE answer). `--partial-ok` turns
/// a job that exhausts its retries into a per-cell coverage report
/// instead of a sweep failure. The `VMIB_FAULT` environment variable
/// (see harness/FaultInjection.h) makes workers misbehave with seeded
/// probability, so every one of those paths is deterministically
/// testable: with faults injected, merged results must still
/// bit-match the in-process run — `--verify` asserts exactly that.
///
/// Orchestrator mode spawns workers through a shell command template
/// (--worker-cmd; default runs this binary as its own worker), so SSH
/// or queue fan-out is one template away — see the docs for an
/// example. Workers consult VMIB_TRACE_CACHE before re-interpreting a
/// workload; set it to a shared directory so each trace is captured
/// once per cluster, not once per worker.
///
/// Incremental results (docs/simulation-pipeline.md, "Durability
/// model"): `--result-store` / `--store-dir=D` attach a persistent,
/// crash-consistent per-cell result cache (harness/ResultStore.h).
/// The orchestrator serves fully-covered jobs without spawning a
/// worker, workers serve covered cells without replaying them, and
/// every fresh cell is durable before its [result] row is announced —
/// so killing the orchestrator anywhere mid-sweep and re-running
/// recomputes only what had not finished, bit-identically. The
/// `[store]` lines report hits/misses/recovery. `--no-result-store`
/// forces the store off; VMIB_RESULT_STORE carries the same choice
/// through the environment. `--cache-gc=BYTES` (standalone, or after
/// a sweep) LRU-evicts traces, sidecars and store segments down to the
/// byte budget, skipping anything a live sweep holds in use. Extra
/// VMIB_FAULT masses `torn=P,nospace=P,renamefail=P` fault-inject the
/// store's filesystem commits.
///
/// Audit model (docs/simulation-pipeline.md, "Audit model"):
/// `--audit=RATE` re-executes a deterministically-sampled subset of
/// cells through a fully decorrelated execution shape (decode, tile
/// size and thread count all flipped) and bit-compares. In
/// orchestrator mode the audits are dispatched like hedges — into idle
/// worker slots, after the job queue drains — as `--audit-exec`
/// workers (clean re-execution: VMIB_FAULT ignored, store off); in
/// `--in-process` and `--worker` mode the Auditor runs in-process
/// after the primary slice. A mismatch triggers a third,
/// canonical-shape tiebreak that classifies the fault
/// (store-served corruption / compute divergence / nondeterminism),
/// quarantines implicated ResultStore cells (evidence preserved, never
/// deleted) and repairs the cell with the authoritative recompute.
/// `VMIB_FAULT="flipcounter=P,flipstore=P"` injects the seeded
/// single-bit corruption that proves all of this end to end;
/// `--report-json=PATH` dumps the full OrchestratorReport (including
/// the audit counters) for CI.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "harness/Auditor.h"
#include "harness/CacheGC.h"
#include "harness/FaultInjection.h"

#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <unistd.h>

using namespace vmib;

namespace {

/// Prints the per-(CPU, predictor) speedup tables — the same rendering
/// the fig benches print for their plane of the cross product.
void printTables(const SweepSpec &Spec,
                 const std::vector<PerfCounters> &Cells) {
  size_t P = Spec.Predictors.empty() ? 1 : Spec.Predictors.size();
  for (size_t C = 0; C < Spec.Cpus.size(); ++C)
    for (size_t G = 0; G < P; ++G) {
      SpeedupMatrix M = bench::matrixFromCells(Spec, Cells, C, G);
      std::string Title = Spec.Name + " [cpu=" + Spec.Cpus[C];
      if (P > 1)
        Title += format(" predictor=%zu", G);
      Title += "]";
      std::printf("%s\n", M.renderSpeedups(Title).c_str());
    }
}

/// Runs one shard job and speaks the worker protocol on stdout.
/// \p Attempt is the orchestrator's retry/hedge counter; it only
/// seeds the (optional) VMIB_FAULT chaos draw. \p Audit turns on the
/// worker self-audit (harness/Auditor) over the computed slice before
/// its rows are announced; \p AuditExec marks this worker as an
/// orchestrator-dispatched audit re-execution — VMIB_FAULT is ignored
/// wholesale (an audit run must be clean, or cell-keyed flip draws
/// would reproduce the primary's corruption and mask it) and the
/// caller has already forced the store off.
int runWorker(const SweepSpec &Spec, unsigned Shards, size_t JobIdx,
              unsigned Attempt, ResultStore *Store, const AuditPlan &Audit,
              bool AuditExec) {
  std::vector<ShardJob> Jobs = decomposeSweep(Spec, Shards);
  if (JobIdx >= Jobs.size()) {
    std::fprintf(stderr, "error: job %zu out of range (%zu jobs)\n", JobIdx,
                 Jobs.size());
    return 1;
  }
  FaultPlan Plan;
  FaultMode Fault = FaultMode::None;
  if (!AuditExec) {
    std::string FaultError;
    if (!parseFaultPlan(std::getenv("VMIB_FAULT"), Plan, FaultError)) {
      std::fprintf(stderr, "error: VMIB_FAULT: %s\n", FaultError.c_str());
      return 1;
    }
    Fault = decideFault(Plan, JobIdx, Attempt);
    if (Fault != FaultMode::None)
      std::fprintf(stderr, "[chaos] job %zu attempt %u: injecting '%s'\n",
                   JobIdx, Attempt, faultModeId(Fault));
  }

  const ShardJob &Job = Jobs[JobIdx];
  const std::string &Benchmark = Spec.Benchmarks[Job.Workload];
  SweepExecutor Executor;
  Executor.setResultStore(Store);
  Executor.setFaultInjection(Plan); // flipcounter mass; zero for audit-exec

  // Store fast path: when EVERY member of the job is already durable
  // (keyed off the trace file header, no decode), skip warmup — the
  // reference run, profile training and trace load all exist only to
  // enable replays this job will not perform; runSlice then serves the
  // slice from the store.
  double CaptureSeconds = 0;
  WallTimer ReplayTimer;
  if (!(Store && Store->isOpen() &&
        probeStoredSlice(*Store, Spec, Job.Workload, Job.MemberBegin,
                         Job.MemberEnd, /*Counted=*/false)
            .complete())) {
    WallTimer CaptureTimer;
    for (const std::string &CpuId : Spec.Cpus) {
      CpuConfig Cpu;
      if (!cpuConfigById(CpuId, Cpu))
        continue;
      if (Spec.Suite == "java")
        Executor.java().warmup(Benchmark, Cpu, Spec.Decode);
      else
        Executor.forth().warmup(Benchmark, Cpu, Spec.Decode);
    }
    CaptureSeconds = CaptureTimer.seconds();
  }
  GangReplayer::Stats Load;
  std::vector<PerfCounters> Slice = Executor.runSlice(
      Spec, Job.Workload, Job.MemberBegin, Job.MemberEnd, &Load);
  bench::emitTiming(Spec.Name + format(":job%zu", JobIdx), CaptureSeconds,
                    ReplayTimer.seconds(), Load.MemberEvents, Slice.size());

  if (AuditExec) {
    // Banner for the orchestrator's logs: which shape this shard
    // re-executed. Deliberately carries NONE of the summable [audit]
    // count tokens, so it stages zero everywhere.
    AuditShape Shape;
    Shape.Decode = Spec.Decode;
    Shape.ChunkEvents = Spec.ChunkEvents;
    Shape.Threads = resolveGangThreads(Spec.Threads);
    std::printf("[audit] sweep=%s job=%zu role=shaped-replay shape=%s\n",
                Spec.Name.c_str(), JobIdx, auditShapeId(Shape).c_str());
  } else if (Audit.enabled()) {
    // Worker self-audit: repair the slice BEFORE its rows go out, so
    // what the orchestrator commits is already the audited truth. The
    // summary [audit] line's counters feed the orchestrator report.
    Auditor SelfAudit(Audit, Executor, Store);
    SelfAudit.auditSlice(Spec, Job.Workload, Job.MemberBegin, Job.MemberEnd,
                         Slice);
  }

  // The emit loop doubles as the chaos stage: faults fire mid-stream
  // (after half the rows) so the orchestrator sees exactly what a
  // real worker death leaves behind — a partial, well-formed prefix.
  size_t N = Slice.size();
  size_t Mid = N / 2;
  for (size_t I = 0; I < N; ++I) {
    if (I == Mid && Fault == FaultMode::Kill) {
      std::fflush(stdout);
      ::raise(SIGKILL);
    }
    if (I == Mid && Fault == FaultMode::Hang) {
      // Ignore SIGTERM so the orchestrator has to escalate to
      // SIGKILL — the worst-real-world hang.
      std::fflush(stdout);
      std::signal(SIGTERM, SIG_IGN);
      for (;;)
        ::pause();
    }
    if (I + 1 == N && Fault == FaultMode::Truncate) {
      std::string Row = sweepResultLine(Spec.Name, Job.Workload,
                                        Job.MemberBegin + I, Slice[I]);
      std::fwrite(Row.data(), 1, Row.size() / 2, stdout); // no newline
      std::fflush(stdout);
      return 0; // clean exit, short coverage
    }
    size_t Member = Job.MemberBegin + I;
    if (I == Mid && Fault == FaultMode::Garble)
      Member = Job.MemberEnd + 7; // well-formed row, outside the shard
    bench::emitResult(Spec.Name, Job.Workload, Member, Slice[I]);
  }
  if (Fault == FaultMode::Duplicate && N > 0)
    bench::emitResult(Spec.Name, Job.Workload, Job.MemberBegin, Slice[0]);
  if (Store && Store->isOpen())
    bench::emitStoreLine(Spec.Name, JobIdx, Store->stats());
  // With SIGPIPE ignored (main), a worker whose orchestrator died
  // mid-read sees EPIPE on the buffered rows instead of dying by
  // signal: flush now and turn a dead pipe into a clean, diagnosable
  // nonzero exit rather than a SIGPIPE corpse.
  if (std::fflush(stdout) != 0 || std::ferror(stdout)) {
    std::fprintf(stderr,
                 "error: worker for job %zu could not write results to "
                 "stdout (%s) — orchestrator gone?\n",
                 JobIdx, std::strerror(errno));
    return 3;
  }
  return 0;
}

/// "123", "64K", "10M", "2G" -> bytes. \returns false on anything else,
/// including values that overflow uint64 (strtoull would silently
/// saturate, and the suffix multiply could wrap a huge budget to a
/// tiny one — an eviction pass must never run with a garbage budget).
bool parseByteSize(const std::string &S, uint64_t &Out) {
  size_t Pos = 0;
  while (Pos < S.size() && S[Pos] >= '0' && S[Pos] <= '9')
    ++Pos;
  if (Pos == 0)
    return false;
  std::string Digits = S.substr(0, Pos);
  errno = 0;
  char *End = nullptr;
  uint64_t V = std::strtoull(Digits.c_str(), &End, 10);
  if (errno != 0 || End != Digits.c_str() + Digits.size())
    return false;
  std::string Suffix = S.substr(Pos);
  uint64_t Mult = 1;
  if (Suffix == "K" || Suffix == "k")
    Mult = 1024ULL;
  else if (Suffix == "M" || Suffix == "m")
    Mult = 1024ULL * 1024;
  else if (Suffix == "G" || Suffix == "g")
    Mult = 1024ULL * 1024 * 1024;
  else if (!Suffix.empty())
    return false;
  if (V != 0 && V > UINT64_MAX / Mult)
    return false;
  Out = V * Mult;
  return true;
}

/// Per-trace encoding report: on-disk vs decoded bytes for every
/// trace left in the cache after the GC pass, so
/// `--cache-gc` doubles as the "what is the compression buying"
/// inspection tool. Silent when the cache is empty or unreadable.
void printTraceEncodingReport(const std::string &CacheDir) {
  if (CacheDir.empty())
    return;
  DIR *D = opendir(CacheDir.c_str());
  if (!D)
    return;
  const std::string Ext = ".vmibtrace";
  uint64_t DiskTotal = 0, LogicalTotal = 0;
  size_t Count = 0;
  while (struct dirent *E = readdir(D)) {
    std::string Name = E->d_name;
    if (Name.size() < Ext.size() ||
        Name.compare(Name.size() - Ext.size(), Ext.size(), Ext) != 0)
      continue;
    std::string Path =
        CacheDir + (CacheDir.back() == '/' ? "" : "/") + Name;
    DispatchTrace::FileInfo Info;
    if (!DispatchTrace::peekFileInfo(Path, Info))
      continue;
    std::printf("[cache-gc] trace=%s events=%llu bytes=%llu logical=%llu "
                "ratio=%.2f\n",
                Name.c_str(), (unsigned long long)Info.NumEvents,
                (unsigned long long)Info.FileBytes,
                (unsigned long long)Info.LogicalBytes, Info.ratio());
    DiskTotal += Info.FileBytes;
    LogicalTotal += Info.LogicalBytes;
    ++Count;
  }
  closedir(D);
  if (Count > 0)
    std::printf("[cache-gc] traces=%zu bytes=%llu logical=%llu ratio=%.2f\n",
                Count, (unsigned long long)DiskTotal,
                (unsigned long long)LogicalTotal,
                DiskTotal > 0
                    ? (double)LogicalTotal / (double)DiskTotal
                    : 0.0);
}

/// `--cache-gc=BYTES`: one LRU eviction pass over the trace cache and
/// the result store (see harness/CacheGC.h). Runs standalone (no
/// --spec) or after a sweep; directories in use by live sweeps are
/// skipped, never evicted under.
int runCacheGCMode(const OptionParser &Opts) {
  uint64_t Budget = 0;
  if (!parseByteSize(Opts.get("cache-gc"), Budget)) {
    std::fprintf(stderr,
                 "error: bad --cache-gc '%s' (expected BYTES with an "
                 "optional K/M/G suffix)\n",
                 Opts.get("cache-gc").c_str());
    return 1;
  }
  std::string CacheDir = DispatchTrace::cacheDir();
  // The GC manages the store *location* whether or not this run would
  // use the store: an explicit --store-dir, else the default beside
  // the cache.
  std::string StoreDir = Opts.get("store-dir");
  if (StoreDir.empty() && !CacheDir.empty())
    StoreDir = CacheDir + (CacheDir.back() == '/' ? "results"
                                                  : "/results");
  if (CacheDir.empty() && StoreDir.empty()) {
    std::fprintf(stderr,
                 "error: --cache-gc has nothing to manage: set "
                 "VMIB_TRACE_CACHE or pass --store-dir\n");
    return 1;
  }
  CacheGCReport R;
  std::string Error;
  if (!runCacheGC(CacheDir, StoreDir, Budget, R, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  std::printf("[cache-gc] budget=%llu total=%llu evicted_bytes=%llu "
              "evicted_files=%zu removed_temps=%zu skipped_in_use=%zu\n",
              (unsigned long long)Budget, (unsigned long long)R.TotalBytes,
              (unsigned long long)R.EvictedBytes, R.EvictedFiles,
              R.RemovedTemps, R.SkippedLockedDirs);
  printTraceEncodingReport(CacheDir);
  return 0;
}

/// Prints the per-cell coverage report of a degraded (--partial-ok)
/// sweep: which jobs died for good, what they covered, and why.
void printCoverageReport(const SweepSpec &Spec, unsigned Shards,
                         const OrchestratorReport &Report) {
  std::vector<ShardJob> Jobs = decomposeSweep(Spec, Shards);
  std::printf("[coverage] sweep=%s cells=%zu covered=%zu failed_jobs=%zu\n",
              Spec.Name.c_str(), Report.CellCovered.size(),
              Report.cellsCovered(), Report.FailedJobs.size());
  for (size_t I = 0; I < Report.FailedJobs.size(); ++I) {
    size_t J = Report.FailedJobs[I];
    const char *Why = I < Report.FailedJobErrors.size()
                          ? Report.FailedJobErrors[I].c_str()
                          : "(no diagnostic)";
    std::printf("[coverage] sweep=%s job=%zu workload=%zu members=[%zu,%zu) "
                "lost: %s\n",
                Spec.Name.c_str(), J, Jobs[J].Workload, Jobs[J].MemberBegin,
                Jobs[J].MemberEnd, Why);
  }
}

bool runSharded(const SweepSpec &Spec, unsigned Shards,
                const SweepWorkerOptions &FaultOpts,
                const std::string &WorkerCmd, const std::string &SpecPath,
                std::vector<PerfCounters> &Cells, SweepRunStats &Stats,
                OrchestratorReport *ReportOut = nullptr) {
  SweepWorkerOptions Opt = FaultOpts;
  Opt.Shards = Shards;
  Opt.Threads = Spec.Threads; // two-level: shards × intra-gang threads
  Opt.SpecPath = SpecPath;
  Opt.CommandTemplate = WorkerCmd;
  std::string Error;
  OrchestratorReport Report;
  if (!orchestrateSweep(Spec, Opt, Cells, Stats, Error, &Report)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return false;
  }
  bench::emitTiming(Spec.Name + format(":shards%u", Shards), Stats);
  bench::emitOrchestratorReport(Spec.Name, Report);
  if (FaultOpts.Store)
    bench::emitStoreReport(Spec.Name, Report);
  if (!Report.complete())
    printCoverageReport(Spec, Shards, Report);
  if (ReportOut)
    *ReportOut = std::move(Report);
  return true;
}

int runVerify(const SweepSpec &Spec, unsigned Shards,
              const SweepWorkerOptions &FaultOpts,
              const std::string &WorkerCmd, const std::string &SpecPath) {
  // Warm the capture caches up front (and, with VMIB_TRACE_CACHE set,
  // the cache the workers will hit), so the timed passes below measure
  // replay — the serial and threaded in-process runs then differ only
  // in the intra-gang worker pool.
  SweepExecutor Executor;
  WallTimer CaptureTimer;
  for (const std::string &Benchmark : Spec.Benchmarks)
    for (const std::string &CpuId : Spec.Cpus) {
      CpuConfig Cpu;
      if (!cpuConfigById(CpuId, Cpu))
        continue;
      if (Spec.Suite == "java")
        Executor.java().warmup(Benchmark, Cpu);
      else
        Executor.forth().warmup(Benchmark, Cpu);
    }
  double CaptureSeconds = CaptureTimer.seconds();

  // In-process serial reference sweep (threads=1, one pipeline worker:
  // the scaling number must compare thread pools, not pipeline luck).
  // VMIB_FAULT never touches this path — with chaos injected into the
  // workers below, this run stays the ground truth the faulted fan-out
  // has to reproduce bit for bit.
  SweepSpec Serial = Spec;
  Serial.Threads = 1;
  std::vector<PerfCounters> InProc;
  SweepRunStats InProcStats = Executor.runAll(Serial, 1, InProc);
  bench::emitTiming(Spec.Name + ":inproc", CaptureSeconds,
                    InProcStats.ReplaySeconds, InProcStats.ReplayedEvents,
                    InProcStats.Configs);

  auto Compare = [&](const std::vector<PerfCounters> &Got,
                     const char *Mode) {
    for (size_t I = 0; I < InProc.size(); ++I)
      if (std::memcmp(&InProc[I], &Got[I], sizeof(PerfCounters)) != 0) {
        std::printf("FAIL: %s cell %zu diverges from the in-process "
                    "sweep\n",
                    Mode, I);
        return false;
      }
    return true;
  };

  // Thread invariance + measured intra-host scaling: the same gangs
  // off the same cached traces, replayed on the shared-tile worker
  // pool. Counters must be bit-identical to the serial sweep; the
  // wall-clock ratio and the pool's per-worker busy fractions and
  // steal counts land in the [timing] artifact.
  unsigned GangThreads = resolveGangThreads(Spec.Threads);
  if (GangThreads > 1) {
    SweepSpec Threaded = Spec;
    Threaded.Threads = GangThreads;
    std::vector<PerfCounters> ThreadedCells;
    SweepRunStats ThreadedStats = Executor.runAll(Threaded, 1, ThreadedCells);
    bench::emitTiming(Spec.Name + format(":threads%u", GangThreads),
                      ThreadedStats);
    if (!Compare(ThreadedCells, "threaded in-process"))
      return 1;

    double Wall = ThreadedStats.ReplaySeconds;
    std::printf("[timing] bench=%s:threadscaling threads=%u "
                "wall_1thread_s=%.3f wall_%uthreads_s=%.3f scaling=%.2f\n",
                Spec.Name.c_str(), GangThreads, InProcStats.ReplaySeconds,
                GangThreads, Wall,
                Wall > 0 ? InProcStats.ReplaySeconds / Wall : 0.0);

    // The load-balance line: how evenly the pool kept its workers busy,
    // how many members were stolen off slow workers, how many members
    // restarted on an exact tier, and what the finish pass cost.
    const GangReplayer::Stats &Load = ThreadedStats.Load;
    uint64_t Steals = 0;
    std::string Busy, Waits;
    for (size_t W = 0; W < Load.Workers.size(); ++W) {
      Steals += Load.Workers[W].MembersStolen;
      Busy += format("%s%.2f", W == 0 ? "" : ",",
                     Wall > 0 ? Load.Workers[W].BusySeconds / Wall : 0.0);
      Waits += format("%s%llu", W == 0 ? "" : ",",
                      (unsigned long long)Load.Workers[W].TilesWaited);
    }
    std::printf("[timing] bench=%s:loadbalance threads=%u steals=%llu "
                "restarts=%llu finish_s=%.3f busy=%s waits=%s\n",
                Spec.Name.c_str(), GangThreads, (unsigned long long)Steals,
                (unsigned long long)Load.DeferredFinishes,
                Load.FinishSeconds, Busy.c_str(), Waits.c_str());
    std::printf("verify: %zu cells bit-identical across threads {1, %u} "
                "in-process execution\n",
                InProc.size(), GangThreads);
  }

  // Decode invariance + raw decode bandwidth: a FRESH executor loads
  // every trace through the cache file and re-runs the sweep off the
  // materialized arena and streamed tile by tile from the file —
  // serially, and threaded when the threads knob is set. Every run must
  // bit-match the reference cells; the decode measurements land in the
  // [timing] artifact as :decodebandwidth. Needs the trace cache —
  // without VMIB_TRACE_CACHE there are no trace files to stream.
  if (!DispatchTrace::cacheDir().empty()) {
    uint64_t DecodedEvents = 0, DecodedBytes = 0, FileBytes = 0;
    double DecodeSeconds = 0;
    for (const std::string &B : Spec.Benchmarks) {
      const DispatchTrace &T = Spec.Suite == "java"
                                   ? Executor.java().trace(B)
                                   : Executor.forth().trace(B);
      uint64_t WH = Spec.Suite == "java" ? Executor.java().referenceHash(B)
                                         : Executor.forth().referenceHash(B);
      std::string Path = DispatchTrace::cachePathFor(Spec.Suite + "-" + B);
      DispatchTrace::FileInfo Info;
      if (Path.empty() || !DispatchTrace::peekFileInfo(Path, Info)) {
        std::printf("FAIL: no readable trace cache file for %s\n",
                    B.c_str());
        return 1;
      }
      FileBytes += Info.FileBytes;
      DecodedBytes += Info.LogicalBytes;
      WallTimer DecodeTimer;
      DispatchTrace Reload;
      std::string Diag;
      if (!Reload.load(Path, WH, &Diag)) {
        std::printf("FAIL: reload of %s: %s\n", B.c_str(), Diag.c_str());
        return 1;
      }
      DecodeSeconds += DecodeTimer.seconds();
      DecodedEvents += Reload.numEvents();
      if (Reload.contentHash() != T.contentHash()) {
        std::printf("FAIL: %s content hash changed across the cache file\n",
                    B.c_str());
        return 1;
      }
    }
    // Streaming-decode measurements off the serial streamed pass: tile
    // read time, events streamed, and the peak tile-ring footprint that
    // proves O(tile) memory.
    double StreamReadSeconds = 0;
    uint64_t StreamEvents = 0, PeakRingBytes = 0;
    SweepExecutor Fresh; // loads the cache files, not memory
    for (bool Streaming : {false, true}) {
      SweepSpec Run = Serial;
      Run.Decode =
          Streaming ? TraceDecodeMode::Stream : TraceDecodeMode::Materialize;
      std::string Label = Streaming ? "streaming" : "materialized";
      std::vector<PerfCounters> DecCells;
      SweepRunStats RunStats = Fresh.runAll(Run, 1, DecCells);
      if (!Compare(DecCells, (Label + " in-process").c_str()))
        return 1;
      if (Streaming) {
        StreamReadSeconds = RunStats.Load.SourceReadSeconds;
        StreamEvents = RunStats.Load.SourceEvents;
        PeakRingBytes = RunStats.Load.PeakTileRingBytes;
      }
      if (GangThreads > 1) {
        SweepSpec Thr = Run; // keeps the decode mode
        Thr.Threads = GangThreads;
        std::vector<PerfCounters> ThrCells;
        Fresh.runAll(Thr, 1, ThrCells);
        if (!Compare(ThrCells, (Label + " threaded in-process").c_str()))
          return 1;
      }
    }
    std::printf("[timing] bench=%s:decodebandwidth events=%llu "
                "file_bytes=%llu ratio=%.2f decode_s=%.3f "
                "events_per_s=%.3g bytes_per_s=%.3g stream_decode_s=%.3f "
                "stream_events_per_s=%.3g peak_ring_bytes=%llu\n",
                Spec.Name.c_str(), (unsigned long long)DecodedEvents,
                (unsigned long long)FileBytes,
                FileBytes > 0 ? (double)DecodedBytes / (double)FileBytes
                              : 0.0,
                DecodeSeconds,
                DecodeSeconds > 0 ? (double)DecodedEvents / DecodeSeconds
                                  : 0.0,
                DecodeSeconds > 0 ? (double)DecodedBytes / DecodeSeconds
                                  : 0.0,
                StreamReadSeconds,
                StreamReadSeconds > 0
                    ? (double)StreamEvents / StreamReadSeconds
                    : 0.0,
                (unsigned long long)PeakRingBytes);
    std::printf("verify: %zu cells bit-identical across %s replay x "
                "{materialized, streaming} decode\n",
                InProc.size(),
                GangThreads > 1 ? "{serial, threaded}" : "{serial}");
  } else {
    std::printf("note: VMIB_TRACE_CACHE unset; skipping the decode verify "
                "axis\n");
  }

  std::vector<PerfCounters> OneWorker;
  SweepRunStats OneStats;
  if (!runSharded(Spec, 1, FaultOpts, WorkerCmd, SpecPath, OneWorker,
                  OneStats))
    return 1;
  if (!Compare(OneWorker, "1-worker"))
    return 1;
  if (Shards <= 1) {
    // Nothing to scale against — the N-worker pass would just repeat
    // the 1-worker sweep.
    std::printf("verify: %zu cells bit-identical across in-process and "
                "1-worker execution (pass --shards=N>1 for scaling)\n",
                InProc.size());
    printTables(Spec, InProc);
    return 0;
  }

  std::vector<PerfCounters> NWorker;
  SweepRunStats NStats;
  if (!runSharded(Spec, Shards, FaultOpts, WorkerCmd, SpecPath, NWorker,
                  NStats))
    return 1;
  if (!Compare(NWorker, "N-worker"))
    return 1;

  // The scaling line lands in the [timing] artifact: sharded wall
  // clock with N workers vs 1 worker over the identical job list.
  std::printf("[timing] bench=%s:scaling shards=%u wall_1worker_s=%.3f "
              "wall_%uworkers_s=%.3f scaling=%.2f\n",
              Spec.Name.c_str(), Shards, OneStats.ReplaySeconds, Shards,
              NStats.ReplaySeconds,
              NStats.ReplaySeconds > 0
                  ? OneStats.ReplaySeconds / NStats.ReplaySeconds
                  : 0.0);
  std::printf("verify: %zu cells bit-identical across in-process, "
              "1-worker and %u-worker sharded execution\n",
              InProc.size(), Shards);
  printTables(Spec, InProc);
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  // Workers write their rows to a pipe the orchestrator may abandon
  // (crash, kill, timeout of the parent). Default SIGPIPE disposition
  // would kill the worker by signal with no diagnostic; ignoring it
  // turns the dead pipe into EPIPE, which runWorker reports and exits
  // nonzero on. Harmless for every other mode.
  std::signal(SIGPIPE, SIG_IGN);
  OptionParser Opts(argc, argv);
  std::string SpecPath = Opts.get("spec");
  if (SpecPath.empty()) {
    if (Opts.has("cache-gc"))
      // Standalone GC: no spec, no sweep — just shrink the caches.
      return runCacheGCMode(Opts);
    std::fprintf(stderr,
                 "usage: sweep_driver --spec=FILE [--shards=N] [--worker "
                 "--job=I [--attempt=A] | --in-process | --verify | "
                 "--emit-spec] [--worker-cmd=TEMPLATE] "
                 "[--threads=N (0 = auto)] [--chunk=N] "
                 "[--retries=N] [--backoff-ms=MS] [--job-timeout=MS] "
                 "[--kill-grace=MS] [--hedge=K] [--partial-ok] "
                 "[--decode=materialize|stream|auto] "
                 "[--result-store | --store-dir=D | --no-result-store] "
                 "[--audit=RATE] [--audit-seed=N] "
                 "[--report-json=PATH] "
                 "[--cache-gc=BYTES[K|M|G]]\n"
                 "       sweep_driver --cache-gc=BYTES[K|M|G] "
                 "[--store-dir=D]   (standalone eviction pass)\n"
                 "  fault injection for tests: VMIB_FAULT=\"kill=P,hang=P,"
                 "garble=P,trunc=P,dup=P,torn=P,nospace=P,renamefail=P,"
                 "flipcounter=P,flipstore=P,seed=S\"\n");
    return 2;
  }
  SweepSpec Spec;
  std::string Error;
  if (!loadSweepSpecFile(SpecPath, Spec, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  // --threads / --chunk override the spec's intra-gang knobs in every
  // mode (the shared bench helper validates them like parsed fields;
  // threads 0 = auto-detect at executor level). Orchestrated workers
  // inherit the thread count through the {threads} command-template
  // substitution — they re-parse the spec FILE, which a CLI override
  // never touched.
  int OverrideExit = 0;
  if (!bench::applySpecOverrides(Opts, Spec, OverrideExit))
    return OverrideExit;
  // --decode re-exports through the environment, so orchestrated
  // workers (which see only the env) make the same choice this process
  // does.
  if (!bench::applyReplayPathOptions(Opts, OverrideExit))
    return OverrideExit;
  if (Opts.has("emit-spec")) {
    std::fputs(printSweepSpec(Spec).c_str(), stdout);
    return 0;
  }

  // The fault-tolerance knobs apply to every orchestrating mode
  // (plain, --verify, and through BenchUtil the spec-driven benches).
  SweepWorkerOptions FaultOpts;
  if (!bench::applyWorkerFaultOptions(Opts, FaultOpts, OverrideExit,
                                      /*AllowPartialOk=*/true))
    return OverrideExit;

  // The redundant-execution audit knobs (--audit=RATE, --audit-seed=N)
  // apply to every mode: orchestrating modes dispatch decorrelated
  // audit shards, --in-process and --worker self-audit through the
  // same Auditor. --audit-exec marks THIS process as one of those
  // dispatched audit shards: clean re-execution, no store, no faults,
  // no recursive self-audit.
  AuditPlan Audit;
  if (!bench::applyAuditOptions(Opts, Audit, OverrideExit))
    return OverrideExit;
  bool AuditExec = Opts.has("audit-exec");
  FaultOpts.Audit = Audit;

  unsigned Shards =
      static_cast<unsigned>(Opts.getInt("shards", 1) < 1
                                ? 1
                                : Opts.getInt("shards", 1));

  // Mark the trace cache in use for the whole sweep (a concurrent
  // --cache-gc then skips it rather than evicting traces out from
  // under live replays), and open the durable result store per the
  // flags/environment. Workers get the store decision through the env
  // (applyStoreOptions re-exports it) and their own shared in-use
  // locks through ResultStore::open.
  DirUseLock CacheUse(DispatchTrace::cacheDir());
  ResultStore Store;
  // An audit-exec shard must never consult the store: the store key is
  // shape-free, so it would just re-serve the very cells under audit.
  bool StoreOn = !AuditExec && bench::applyStoreOptions(Opts, Store);
  FaultOpts.Store = StoreOn ? &Store : nullptr;

  int Exit = 0;
  if (Opts.has("worker")) {
    Exit = runWorker(Spec, Shards,
                     static_cast<size_t>(Opts.getInt("job", 0)),
                     static_cast<unsigned>(Opts.getInt("attempt", 0)),
                     StoreOn ? &Store : nullptr, Audit, AuditExec);
  } else if (Opts.has("verify")) {
    Exit = runVerify(Spec, Shards, FaultOpts, Opts.get("worker-cmd"),
                     SpecPath);
  } else if (Opts.has("in-process")) {
    SweepExecutor Executor;
    if (StoreOn)
      Executor.setResultStore(&Store);
    FaultPlan FPlan;
    std::string FaultError;
    if (!parseFaultPlan(std::getenv("VMIB_FAULT"), FPlan, FaultError)) {
      std::fprintf(stderr, "error: VMIB_FAULT: %s\n", FaultError.c_str());
      return 1;
    }
    Executor.setFaultInjection(FPlan);
    Auditor InProcAudit(Audit, Executor, StoreOn ? &Store : nullptr);
    if (Audit.enabled())
      Executor.setAuditor(&InProcAudit);
    std::vector<PerfCounters> Cells;
    SweepRunStats Stats = Executor.runAll(Spec, 0, Cells);
    bench::emitTiming(Spec.Name + ":inproc", Stats);
    if (StoreOn)
      bench::emitStoreReport(Spec.Name, Store);
    printTables(Spec, Cells);
  } else {
    // Orchestrator mode: the same tables and timing the in-process
    // path prints, produced from merged worker shards.
    std::vector<PerfCounters> Cells;
    SweepRunStats Stats;
    OrchestratorReport Report;
    if (!runSharded(Spec, Shards, FaultOpts, Opts.get("worker-cmd"),
                    SpecPath, Cells, Stats, &Report)) {
      Exit = 1;
    } else {
      if (Report.complete()) {
        printTables(Spec, Cells);
      } else {
        std::printf("(tables suppressed: %zu of %zu cells missing under "
                    "--partial-ok; see the [coverage] report above)\n",
                    Report.CellCovered.size() - Report.cellsCovered(),
                    Report.CellCovered.size());
      }
      // Machine-readable run record (CI and the chaos-audit job parse
      // this instead of scraping stdout).
      if (Opts.has("report-json") &&
          !bench::writeOrchestratorReportJson(Opts.get("report-json"),
                                              Spec.Name, Report)) {
        std::fprintf(stderr, "error: could not write --report-json=%s: %s\n",
                     Opts.get("report-json").c_str(), std::strerror(errno));
        Exit = 1;
      }
    }
  }

  // Trailing GC (--cache-gc combined with a sweep): flush + close the
  // store and drop our own in-use mark first — flock conflicts are
  // per-descriptor even within one process, so our own live locks
  // would make the GC skip everything it manages.
  if (Opts.has("cache-gc")) {
    Store.close();
    CacheUse.release();
    int GCExit = runCacheGCMode(Opts);
    if (Exit == 0)
      Exit = GCExit;
  }
  return Exit;
}
