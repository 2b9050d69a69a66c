//===- tools/sweep_driver.cpp - Sharded sweep driver ----------------------===//
///
/// Runs a declarative SweepSpec either in-process or sharded over worker
/// processes, and verifies that every execution shape produces
/// bit-identical cells (docs/simulation-pipeline.md: "Distributed
/// sweeps", "Failure model", "Durability model", "Audit model").
///
///   sweep_driver --spec=F [--shards=N]          orchestrate over worker
///                                               processes (default 1)
///   sweep_driver --spec=F --in-process          single-process gang sweep
///   sweep_driver --spec=F --worker --shards=N   one shard job: replay its
///                --job=I [--attempt=A]          gang slice, emit [result]
///                                               lines on stdout
///   sweep_driver --spec=F --verify [--shards=N] orchestrate, then audit
///                                               every cell in-process
///                                               against four shapes
///   sweep_driver --spec=F --emit-spec           parse + reprint the spec
///   sweep_driver --cache-gc=BYTES               evict caches, no sweep
///
/// The mode flags exclude each other, and each mode declares only the
/// options it reads (driverOptions; `[--worker] --help` lists them): an
/// undeclared or malformed argument exits 1 before any work.
/// Orchestrated workers get the shape overrides (--threads, --chunk,
/// --decode) in the spec file they read — a temp copy when an override
/// changed it — and the result store through `{store}` on their command
/// line. The environment carries only VMIB_TRACE_CACHE (a shared
/// directory captures each trace once per cluster) and the VMIB_FAULT
/// chaos plan (harness/FaultInjection.h), which makes workers crash,
/// hang, garble, tear store commits or flip counters with seeded
/// probability, so every recovery path is deterministically testable.
///
/// Verify: the orchestrated primary (under VMIB_FAULT when set), then a
/// clean in-process Auditor (no store, no fault injection) audits every
/// cell at rate 1.0 against the four shapes of verifyAuditShapes(),
/// which cover decode x tile x threads pairwise, and prints one
/// `[timing] bench=<sweep>:verify shape=<id>` line per shape. Exit 1 on
/// a mismatch, on a cell the primary did not cover, or on a stream
/// shape that did not stream while VMIB_TRACE_CACHE is set.
///
/// Audit: `--audit=RATE` runs in the process that owns the sweep —
/// `--in-process` audits each workload row after the pipeline drains,
/// the orchestrator each committed job's slice once the workers have
/// settled — and prints one `[timing] bench=<sweep>:audit shape=<id>`
/// line. A mismatch is tiebroken on the canonical shape, classified,
/// quarantined in the store and repaired; `--report-json` records the
/// counts for CI.
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
/// seeds the (optional) VMIB_FAULT chaos draw.
int runWorker(const SweepSpec &Spec, unsigned Shards, size_t JobIdx,
              unsigned Attempt, ResultStore *Store) {
  std::vector<ShardJob> Jobs = decomposeSweep(Spec, Shards);
  if (JobIdx >= Jobs.size()) {
    std::fprintf(stderr, "error: job %zu out of range (%zu jobs)\n", JobIdx,
                 Jobs.size());
    return 1;
  }
  FaultPlan Plan;
  std::string FaultError;
  if (!parseFaultPlan(std::getenv("VMIB_FAULT"), Plan, FaultError)) {
    std::fprintf(stderr, "error: VMIB_FAULT: %s\n", FaultError.c_str());
    return 1;
  }
  FaultMode Fault = decideFault(Plan, JobIdx, Attempt);
  if (Fault != FaultMode::None)
    std::fprintf(stderr, "[chaos] job %zu attempt %u: injecting '%s'\n",
                 JobIdx, Attempt, faultModeId(Fault));

  const ShardJob &Job = Jobs[JobIdx];
  const std::string &Benchmark = Spec.Benchmarks[Job.Workload];
  SweepExecutor Executor;
  Executor.setResultStore(Store);
  Executor.setFaultInjection(Plan); // the flipcounter mass

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
/// the result store (see harness/CacheGC.h) down to \p Budget. Runs
/// standalone (no --spec) or after a sweep; directories in use by live
/// sweeps are skipped, never evicted under.
int runCacheGCMode(uint64_t Budget, std::string StoreDir) {
  std::string CacheDir = DispatchTrace::cacheDir();
  // The GC manages the store *location* whether or not this run would
  // use the store: an explicit --store-dir, else the default beside
  // the cache.
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

bool runSharded(const SweepSpec &Spec, const SweepWorkerOptions &Opt,
                std::vector<PerfCounters> &Cells, SweepRunStats &Stats,
                OrchestratorReport &Report) {
  std::string Error;
  if (!orchestrateSweep(Spec, Opt, Cells, Stats, Error, &Report)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return false;
  }
  bench::emitTiming(Spec.Name + format(":shards%u", Opt.Shards), Stats);
  bench::emitOrchestratorReport(Spec.Name, Report);
  if (Opt.Store)
    bench::emitStoreReport(Spec.Name, Report);
  if (!Report.complete())
    printCoverageReport(Spec, Opt.Shards, Report);
  return true;
}

/// `--verify`: the orchestrated primary, then a clean in-process audit
/// of every cell at rate 1.0 against each verifyAuditShapes() shape
/// (see the file comment). The mode takes no --audit: every cell is
/// audited four ways below anyway.
int runVerify(const SweepSpec &Spec, const SweepWorkerOptions &Opt) {
  std::vector<PerfCounters> Cells;
  SweepRunStats Stats;
  OrchestratorReport Report;
  if (!runSharded(Spec, Opt, Cells, Stats, Report))
    return 1;
  if (!Report.complete()) {
    std::printf("FAIL: the primary left %zu of %zu cells uncovered\n",
                Report.CellCovered.size() - Report.cellsCovered(),
                Report.CellCovered.size());
    return 1;
  }

  // No store and no fault injection: the executor's only inputs are
  // the traces and the spec.
  SweepExecutor Executor;
  AuditPlan Every;
  Every.Rate = 1.0;
  Auditor Audit(Every, Executor);
  size_t M = Spec.membersPerWorkload();
  std::vector<std::vector<PerfCounters>> Rows(Spec.Benchmarks.size());
  for (size_t W = 0; W < Rows.size(); ++W)
    for (size_t J = 0; J < M; ++J)
      Rows[W].push_back(Cells[Spec.cellIndex(W, J)]);

  bool Streamable = !DispatchTrace::cacheDir().empty();
  bool Ok = true;
  std::vector<AuditShape> Shapes = verifyAuditShapes(Spec.Threads);
  for (const AuditShape &Shape : Shapes) {
    GangReplayer::Stats Load;
    WallTimer Timer;
    for (size_t W = 0; W < Rows.size(); ++W)
      Audit.auditShape(Spec, W, 0, M, Rows[W], Shape, &Load);
    printShapeTiming(Spec.Name + ":verify", Shape, Timer.seconds(), Load);
    if (Shape.Decode == TraceDecodeMode::Stream && Streamable &&
        !Load.StreamedDecode) {
      std::printf("FAIL: shape %s did not stream from the trace cache\n",
                  auditShapeId(Shape).c_str());
      Ok = false;
    }
  }
  if (uint64_t Mismatches = Audit.stats().Mismatches) {
    std::printf("FAIL: %llu audited cells diverge from the primary (see "
                "the [audit] lines above)\n",
                (unsigned long long)Mismatches);
    Ok = false;
  }
  if (!Ok)
    return 1;
  std::printf("verify: %zu cells bit-identical across the %u-worker primary "
              "and %zu in-process shapes\n",
              Cells.size(), Opt.Shards, Shapes.size());
  printTables(Spec, Cells);
  return 0;
}

/// sweep_driver's modes: the orchestrator unless a mode flag says
/// otherwise.
enum class Mode { Orchestrate, Worker, InProcess, Verify, EmitSpec };

const std::pair<const char *, Mode> ModeFlags[] = {
    {"worker", Mode::Worker}, {"in-process", Mode::InProcess},
    {"verify", Mode::Verify}, {"emit-spec", Mode::EmitSpec}};

/// What sweep_driver takes in mode \p M: the shared sweep options, the
/// mode flags and the driver's own, minus what the mode would ignore.
OptionTable driverOptions(Mode M) {
  OptionTable All = bench::sweepOptions(
      {{"worker", "run one shard job, print its [result] lines"},
       {"in-process", "run the sweep in this process"},
       {"verify", "orchestrate, then audit every cell in four shapes"},
       {"partial-ok", "report lost jobs' cells instead of failing"},
       {"report-json", "write the orchestrator report here",
        OptionDecl::Value},
       {"cache-gc", "evict caches down to BYTES[K|M|G] (spec optional)",
        OptionDecl::Value},
       {"job", "the worker's shard job", OptionDecl::Count, UINT32_MAX},
       {"attempt", "the worker's attempt (seeds VMIB_FAULT draws)",
        OptionDecl::Count, UINT32_MAX},
       {"schedule", "retired; accepted and ignored", OptionDecl::Value}});
  switch (M) {
  case Mode::Worker:
    return withoutOptions(All, {"worker-cmd", "retries", "backoff-ms",
                                "job-timeout", "kill-grace", "hedge",
                                "partial-ok", "report-json", "cache-gc",
                                "audit", "audit-seed"});
  case Mode::InProcess:
    return withoutOptions(All, {"shards", "worker-cmd", "retries",
                                "backoff-ms", "job-timeout", "kill-grace",
                                "hedge", "partial-ok", "report-json", "job",
                                "attempt", "schedule"});
  case Mode::Verify:
    return withoutOptions(All, {"audit", "audit-seed", "report-json", "job",
                                "attempt", "schedule"});
  case Mode::EmitSpec:
    return withoutOptions(All, {"partial-ok", "report-json", "cache-gc",
                                "job", "attempt", "schedule"});
  case Mode::Orchestrate:
    break;
  }
  return withoutOptions(All, {"job", "attempt", "schedule"});
}

} // namespace

int main(int argc, char **argv) {
  // Workers write their rows to a pipe the orchestrator may abandon
  // (crash, kill, timeout of the parent). Default SIGPIPE disposition
  // would kill the worker by signal with no diagnostic; ignoring it
  // turns the dead pipe into EPIPE, which runWorker reports and exits
  // nonzero on. Harmless for every other mode.
  std::signal(SIGPIPE, SIG_IGN);
  Mode M = Mode::Orchestrate;
  const char *Picked = nullptr;
  OptionParser Given(argc, argv); // only picks the mode; Opts checks
  for (const auto &[Name, Flag] : ModeFlags)
    if (Given.has(Name)) {
      if (Picked) {
        std::fprintf(stderr, "error: --%s and --%s are exclusive modes\n",
                     Picked, Name);
        return 1;
      }
      Picked = Name;
      M = Flag;
    }
  OptionTable Declared = driverOptions(M);
  OptionParser Opts(argc, argv, Declared);
  uint64_t GCBudget = 0;
  if (Opts.has("cache-gc") && !parseByteSize(Opts.get("cache-gc"), GCBudget)) {
    std::fprintf(stderr,
                 "error: bad --cache-gc '%s' (expected BYTES with an "
                 "optional K/M/G suffix)\n",
                 Opts.get("cache-gc").c_str());
    return 1;
  }
  std::string SpecPath = Opts.get("spec"), Error;
  if (SpecPath.empty()) {
    if (Opts.has("cache-gc"))
      // Standalone GC: no spec, no sweep — just shrink the caches.
      return runCacheGCMode(GCBudget, Opts.get("store-dir"));
    std::fputs(renderOptions("sweep_driver", Declared).c_str(), stderr);
    return 2;
  }
  SweepSpec Spec;
  if (!loadSweepSpecFile(SpecPath, Spec, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  // Shape overrides apply in every mode (workers read the effective
  // spec); workers get the store this opens through {store} and take
  // their own shared in-use locks in ResultStore::open.
  ResultStore Store;
  SweepWorkerOptions W;
  int Exit = 0;
  if (!bench::applySweepOptions(Opts, Spec, W, Store, Exit))
    return Exit;
  // Mark the trace cache in use for the whole sweep: a concurrent
  // --cache-gc then skips it rather than evicting traces out from
  // under live replays.
  DirUseLock CacheUse(DispatchTrace::cacheDir());

  if (M == Mode::Worker) {
    // Both passed the declaration check against the same bound.
    uint64_t Job = 0, Attempt = 0;
    Opts.getCount("job", UINT32_MAX, Job, Error);
    Opts.getCount("attempt", UINT32_MAX, Attempt, Error);
    Exit = runWorker(Spec, W.Shards, Job, static_cast<unsigned>(Attempt),
                     W.Store);
  } else if (M == Mode::Verify) {
    Exit = runVerify(Spec, W);
  } else if (M == Mode::InProcess) {
    SweepExecutor Executor;
    Executor.setResultStore(W.Store);
    FaultPlan FPlan;
    if (!parseFaultPlan(std::getenv("VMIB_FAULT"), FPlan, Error)) {
      std::fprintf(stderr, "error: VMIB_FAULT: %s\n", Error.c_str());
      return 1;
    }
    Executor.setFaultInjection(FPlan);
    Auditor InProcAudit(W.Audit, Executor, W.Store);
    if (W.Audit.enabled())
      Executor.setAuditor(&InProcAudit);
    std::vector<PerfCounters> Cells;
    SweepRunStats Stats = Executor.runAll(Spec, 0, Cells);
    bench::emitTiming(Spec.Name + ":inproc", Stats);
    if (W.Store)
      bench::emitStoreReport(Spec.Name, Store);
    printTables(Spec, Cells);
  } else {
    // Orchestrator mode: the same tables and timing the in-process
    // path prints, produced from merged worker shards.
    std::vector<PerfCounters> Cells;
    SweepRunStats Stats;
    OrchestratorReport Report;
    if (!runSharded(Spec, W, Cells, Stats, Report)) {
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
    int GCExit = runCacheGCMode(GCBudget, Opts.get("store-dir"));
    if (Exit == 0)
      Exit = GCExit;
  }
  return Exit;
}
