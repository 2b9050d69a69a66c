//===- tests/OrchestratorFaultTest.cpp - Fault-tolerant fan-out -----------===//
///
/// Pins the orchestrator's failure model (SweepOrchestrator.h):
///  - a failed attempt's partial rows are discarded and the job is
///    requeued with backoff; the recovered sweep is bit-identical to
///    the in-process executor,
///  - a job that exhausts its retries fails the sweep loudly, with the
///    worker's stderr tail in the diagnostic,
///  - hung workers are SIGTERMed at the job timeout and SIGKILLed
///    after the grace period,
///  - --partial-ok degrades exhausted jobs into a per-cell coverage
///    report while every surviving cell stays exact,
///  - straggler hedging re-dispatches outstanding jobs and the first
///    completion wins,
///  - workers read the effective spec (shape overrides included), not
///    a stale --spec file, through a temp path that carries no spec
///    text (a name with shell syntax or a slash is harmless),
///  - the result store reaches workers on their command line through
///    {store} — under a template that clears the environment too, and
///    as one shell word for any directory — and a custom template
///    without {store} fails while a store is open,
///  - malformed kill-drill counts warn once and leave the drill
///    disarmed,
///  - under VMIB_FAULT chaos (worker crashes, hangs, protocol garbage)
///    the orchestrator still converges to bit-identical results on
///    both suites,
///  - the VMIB_FAULT grammar parses/rejects correctly and draws are
///    deterministic.
///
/// Worker templates are tiny shell programs wrapping the real
/// `sweep_driver --worker` sibling binary, so every failure is
/// injected deterministically — no sleeps-and-hope.
///
//===----------------------------------------------------------------------===//

#include "harness/FaultInjection.h"
#include "harness/ResultStore.h"
#include "harness/SweepExecutor.h"
#include "harness/SweepOrchestrator.h"
#include "harness/SweepSpec.h"
#include "workloads/ForthSuite.h"
#include "workloads/JavaSuite.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

using namespace vmib;

namespace {

/// The shell tail every template ends with: run the real worker. It
/// keeps the retired `--schedule={schedule}` pair on purpose: a legacy
/// custom template must still launch workers, which ignore the flag.
const char *WorkerExec =
    "exec {driver} --worker --spec={spec} --shards={shards} --job={job} "
    "--threads={threads} --schedule={schedule} --attempt={attempt}";

SweepSpec faultForthSpec() {
  SweepSpec S;
  S.Name = "faulttest_forth";
  S.Suite = "forth";
  S.Benchmarks = {forthSuite()[0].Name, forthSuite()[1].Name};
  S.Cpus = {"p4northwood"};
  S.Variants = {makeVariant(DispatchStrategy::Threaded),
                makeVariant(DispatchStrategy::StaticRepl),
                makeVariant(DispatchStrategy::DynamicSuper)};
  return S;
}

SweepSpec faultJavaSpec() {
  SweepSpec S;
  S.Name = "faulttest_java";
  S.Suite = "java";
  S.Benchmarks = {javaSuite()[0].Name, javaSuite()[1].Name};
  S.Cpus = {"p4northwood"};
  S.Variants = {makeVariant(DispatchStrategy::Threaded),
                makeVariant(DispatchStrategy::DynamicSuper)};
  return S;
}

void expectCellsEqual(const std::vector<PerfCounters> &A,
                      const std::vector<PerfCounters> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_EQ(0, std::memcmp(&A[I], &B[I], sizeof(PerfCounters)))
        << "cell " << I << " diverges";
}

class OrchestratorFaultTest : public ::testing::Test {
protected:
  void SetUp() override {
    std::snprintf(Dir, sizeof(Dir), "/tmp/vmib-fault-test-XXXXXX");
    ASSERT_NE(nullptr, ::mkdtemp(Dir));
    // Workers share one trace cache with the in-process reference, so
    // a worker attempt loads its trace instead of re-interpreting.
    ASSERT_EQ(0, ::setenv("VMIB_TRACE_CACHE", Dir, 1));
    ::unsetenv("VMIB_FAULT");
  }
  void TearDown() override {
    ::unsetenv("VMIB_FAULT");
    ::unsetenv("VMIB_TRACE_CACHE");
    std::system(("rm -rf " + std::string(Dir)).c_str());
  }

  /// Writes \p Spec under the fixture dir and returns its path.
  std::string writeSpec(const SweepSpec &Spec) {
    std::string Path = std::string(Dir) + "/" + Spec.Name + ".spec";
    std::FILE *F = std::fopen(Path.c_str(), "w");
    EXPECT_NE(nullptr, F);
    std::string Text = printSweepSpec(Spec);
    std::fwrite(Text.data(), 1, Text.size(), F);
    std::fclose(F);
    return Path;
  }

  /// In-process ground truth (also warms the shared trace cache).
  std::vector<PerfCounters> reference(const SweepSpec &Spec) {
    std::vector<PerfCounters> Cells;
    Executor.runAll(Spec, 1, Cells);
    return Cells;
  }

  /// Runs `sibling sweep_driver <Args>` with \p Env prefixed and
  /// returns its stdout and stderr; \p Exit receives the shell's exit
  /// status (128 + N for a driver killed by signal N).
  std::string runDriver(const std::string &Env, const std::string &Args,
                        int &Exit) {
    std::string Cmd =
        Env + " " + defaultSweepDriverPath() + " " + Args + " 2>&1";
    std::FILE *P = ::popen(Cmd.c_str(), "r");
    EXPECT_NE(nullptr, P) << Cmd;
    std::string Out;
    char Buf[4096];
    size_t N;
    while (P && (N = std::fread(Buf, 1, sizeof(Buf), P)) > 0)
      Out.append(Buf, N);
    int Status = P ? ::pclose(P) : -1;
    Exit = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
    return Out;
  }

  /// Options wired to the fixture: quiet, fast backoff.
  SweepWorkerOptions baseOptions(const std::string &SpecPath,
                                 unsigned Shards) {
    SweepWorkerOptions Opt;
    Opt.Shards = Shards;
    Opt.SpecPath = SpecPath;
    Opt.EchoWorkerTimings = false;
    Opt.BackoffMs = 10;
    return Opt;
  }

  char Dir[64];
  SweepExecutor Executor;
};

} // namespace

//===--- retry / requeue --------------------------------------------------===//

TEST_F(OrchestratorFaultTest, RetryRequeueRecoversAndMergesBitIdentical) {
  SweepSpec Spec = faultForthSpec();
  std::string SpecPath = writeSpec(Spec);
  std::vector<PerfCounters> Want = reference(Spec);

  // EVERY job's first attempt dies after writing its stderr marker;
  // the retry (attempt 1) runs the real worker.
  SweepWorkerOptions Opt = baseOptions(SpecPath, 4);
  Opt.CommandTemplate = std::string("if [ {attempt} -lt 1 ]; then "
                                    "echo boom-{job} >&2; exit 9; fi; ") +
                        WorkerExec;
  Opt.Retries = 2;

  std::vector<PerfCounters> Cells;
  SweepRunStats Stats;
  std::string Error;
  OrchestratorReport Report;
  ASSERT_TRUE(orchestrateSweep(Spec, Opt, Cells, Stats, Error, &Report))
      << Error;
  expectCellsEqual(Want, Cells);

  size_t Jobs = decomposeSweep(Spec, 4).size();
  EXPECT_EQ(Report.WorkerFailures, Jobs);
  EXPECT_EQ(Report.RetriesScheduled, Jobs);
  EXPECT_EQ(Report.Timeouts, 0u);
  EXPECT_TRUE(Report.complete());
  EXPECT_EQ(Report.cellsCovered(), Spec.numCells());
  // The first failure's diagnosis survives the successful recovery.
  EXPECT_NE(Report.FirstFailure.find("boom-"), std::string::npos)
      << Report.FirstFailure;
  EXPECT_NE(Report.FirstFailure.find("exited with status 9"),
            std::string::npos)
      << Report.FirstFailure;
}

TEST_F(OrchestratorFaultTest, ExhaustedRetriesFailLoudlyWithStderrTail) {
  SweepSpec Spec = faultForthSpec();
  std::string SpecPath = writeSpec(Spec);

  SweepWorkerOptions Opt = baseOptions(SpecPath, 2);
  Opt.CommandTemplate = "echo catastrophic-banana >&2; exit 3";
  Opt.Retries = 1;

  std::vector<PerfCounters> Cells;
  SweepRunStats Stats;
  std::string Error;
  OrchestratorReport Report;
  ASSERT_FALSE(orchestrateSweep(Spec, Opt, Cells, Stats, Error, &Report));
  // The sweep error names the exit status, the retry budget, and —
  // crucially for field diagnosis — the worker's own stderr.
  EXPECT_NE(Error.find("exited with status 3"), std::string::npos) << Error;
  EXPECT_NE(Error.find("catastrophic-banana"), std::string::npos) << Error;
  EXPECT_NE(Error.find("failed after 2 attempt(s)"), std::string::npos)
      << Error;
  EXPECT_GE(Report.WorkerFailures, 2u); // first attempt + its retry
}

//===--- timeouts ---------------------------------------------------------===//

TEST_F(OrchestratorFaultTest, TimeoutKillsHungWorker) {
  SweepSpec Spec = faultForthSpec();
  std::string SpecPath = writeSpec(Spec);

  // A worker that never speaks: SIGTERM at the deadline ends it.
  SweepWorkerOptions Opt = baseOptions(SpecPath, 2);
  Opt.CommandTemplate = "sleep 30";
  Opt.JobTimeoutMs = 300;
  Opt.KillGraceMs = 200;

  std::vector<PerfCounters> Cells;
  SweepRunStats Stats;
  std::string Error;
  OrchestratorReport Report;
  ASSERT_FALSE(orchestrateSweep(Spec, Opt, Cells, Stats, Error, &Report));
  EXPECT_NE(Error.find("timed out after 300 ms"), std::string::npos) << Error;
  EXPECT_GE(Report.Timeouts, 1u);
}

TEST_F(OrchestratorFaultTest, TimeoutEscalatesToSigkillWhenTermIgnored) {
  SweepSpec Spec = faultForthSpec();
  std::string SpecPath = writeSpec(Spec);

  // The worst hang: the worker ignores SIGTERM, so only the SIGKILL
  // escalation after the grace period can reclaim the slot.
  SweepWorkerOptions Opt = baseOptions(SpecPath, 2);
  Opt.CommandTemplate = "trap '' TERM; while :; do sleep 1; done";
  Opt.JobTimeoutMs = 300;
  Opt.KillGraceMs = 200;

  std::vector<PerfCounters> Cells;
  SweepRunStats Stats;
  std::string Error;
  OrchestratorReport Report;
  ASSERT_FALSE(orchestrateSweep(Spec, Opt, Cells, Stats, Error, &Report));
  EXPECT_NE(Error.find("escalated to SIGKILL"), std::string::npos) << Error;
  EXPECT_GE(Report.Timeouts, 1u);
}

//===--- partial-ok degradation -------------------------------------------===//

TEST_F(OrchestratorFaultTest, PartialOkCompletesWithCoverageReport) {
  SweepSpec Spec = faultForthSpec();
  std::string SpecPath = writeSpec(Spec);
  std::vector<PerfCounters> Want = reference(Spec);

  // Job 0 is beyond saving; every other job runs the real worker.
  SweepWorkerOptions Opt = baseOptions(SpecPath, 4);
  Opt.CommandTemplate = std::string("if [ {job} -eq 0 ]; then "
                                    "echo dead-zero >&2; exit 7; fi; ") +
                        WorkerExec;
  Opt.Retries = 1;
  Opt.PartialOk = true;

  std::vector<PerfCounters> Cells;
  SweepRunStats Stats;
  std::string Error;
  OrchestratorReport Report;
  ASSERT_TRUE(orchestrateSweep(Spec, Opt, Cells, Stats, Error, &Report))
      << Error;
  ASSERT_EQ(Report.FailedJobs.size(), 1u);
  EXPECT_EQ(Report.FailedJobs[0], 0u);
  ASSERT_EQ(Report.FailedJobErrors.size(), 1u);
  EXPECT_NE(Report.FailedJobErrors[0].find("dead-zero"), std::string::npos)
      << Report.FailedJobErrors[0];
  EXPECT_FALSE(Report.complete());

  // Lost cells are zero-filled and reported uncovered; every cell a
  // surviving job owns is bit-identical to the in-process sweep.
  std::vector<ShardJob> Jobs = decomposeSweep(Spec, 4);
  ASSERT_EQ(Cells.size(), Want.size());
  ASSERT_EQ(Report.CellCovered.size(), Want.size());
  std::vector<uint8_t> Lost(Want.size(), 0);
  for (size_t M = Jobs[0].MemberBegin; M < Jobs[0].MemberEnd; ++M)
    Lost[Spec.cellIndex(Jobs[0].Workload, M)] = 1;
  PerfCounters Zero{};
  for (size_t I = 0; I < Cells.size(); ++I) {
    EXPECT_EQ(Report.CellCovered[I], Lost[I] ? 0 : 1) << "cell " << I;
    const PerfCounters &Expect = Lost[I] ? Zero : Want[I];
    EXPECT_EQ(0, std::memcmp(&Cells[I], &Expect, sizeof(PerfCounters)))
        << "cell " << I;
  }
  EXPECT_EQ(Report.cellsCovered(),
            Want.size() - (Jobs[0].MemberEnd - Jobs[0].MemberBegin));
}

//===--- straggler hedging ------------------------------------------------===//

TEST_F(OrchestratorFaultTest, HedgingFirstCompletionWins) {
  SweepSpec Spec = faultForthSpec();
  Spec.Benchmarks = {forthSuite()[0].Name}; // one workload, 3 members
  std::string SpecPath = writeSpec(Spec);
  std::vector<PerfCounters> Want = reference(Spec);

  // Attempt 0 of the last job stalls forever; the hedge (attempt 1)
  // dispatched into the idle slot wins and the straggler is killed.
  SweepWorkerOptions Opt = baseOptions(SpecPath, 3);
  Opt.CommandTemplate = std::string("if [ {job} -eq 2 ] && "
                                    "[ {attempt} -eq 0 ]; then sleep 60; "
                                    "fi; ") +
                        WorkerExec;
  Opt.HedgeLast = 1;

  std::vector<PerfCounters> Cells;
  SweepRunStats Stats;
  std::string Error;
  OrchestratorReport Report;
  ASSERT_TRUE(orchestrateSweep(Spec, Opt, Cells, Stats, Error, &Report))
      << Error;
  expectCellsEqual(Want, Cells);
  EXPECT_GE(Report.HedgesLaunched, 1u);
  EXPECT_GE(Report.HedgeWins, 1u);
  EXPECT_EQ(Report.RetriesScheduled, 0u); // hedging, not retrying
  EXPECT_TRUE(Report.complete());
}

//===--- the spec carries execution shape to workers ----------------------===//

TEST_F(OrchestratorFaultTest, ShapeOverridesReachWorkersThroughTheSpec) {
  // The file on disk says `chunk 0` and `decode auto`; the orchestrated
  // spec was overridden in code, as --chunk and --decode do. Workers
  // read nothing but {spec}, so that must be the effective spec.
  SweepSpec Spec = faultForthSpec();
  Spec.Benchmarks = {forthSuite()[0].Name};
  std::string SpecPath = writeSpec(Spec);
  std::vector<PerfCounters> Want = reference(Spec);
  Spec.ChunkEvents = 16;
  Spec.Decode = TraceDecodeMode::Stream;

  std::string Log = std::string(Dir) + "/specs-read.log";
  SweepWorkerOptions Opt = baseOptions(SpecPath, 2);
  Opt.CommandTemplate = "cat {spec} >> " + Log + "; " + WorkerExec;

  std::vector<PerfCounters> Cells;
  SweepRunStats Stats;
  std::string Error;
  OrchestratorReport Report;
  ASSERT_TRUE(orchestrateSweep(Spec, Opt, Cells, Stats, Error, &Report))
      << Error;
  expectCellsEqual(Want, Cells);

  std::string Read;
  std::FILE *F = std::fopen(Log.c_str(), "r");
  ASSERT_NE(nullptr, F);
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Read.append(Buf, N);
  std::fclose(F);
  auto Count = [&](const std::string &Line) {
    size_t Hits = 0;
    for (size_t At = Read.find(Line); At != std::string::npos;
         At = Read.find(Line, At + 1))
      ++Hits;
    return Hits;
  };
  size_t Jobs = decomposeSweep(Spec, 2).size();
  EXPECT_EQ(Count("\nchunk 16\n"), Jobs) << Read;
  EXPECT_EQ(Count("\ndecode stream\n"), Jobs) << Read;
  EXPECT_EQ(Count("\nchunk 0\n"), 0u) << Read;
}

TEST_F(OrchestratorFaultTest, SpecNamesNeverReachTheWorkerShell) {
  // An override makes workers read a temp copy of the effective spec,
  // whose path the template's shell sees through {spec}. Spec names
  // may hold shell syntax or a slash; neither may reach that path.
  for (const char *Name : {"fig08;touch${IFS}INJECTED;x", "a/b"}) {
    SweepSpec Spec = faultForthSpec();
    Spec.Name = Name;
    Spec.Benchmarks = {forthSuite()[0].Name};
    std::string SpecPath = std::string(Dir) + "/named.spec";
    std::string Error;
    ASSERT_TRUE(writeSweepSpecFile(Spec, SpecPath, Error)) << Error;
    std::vector<PerfCounters> Want = reference(Spec);
    Spec.ChunkEvents = 4096;

    SweepWorkerOptions Opt = baseOptions(SpecPath, 2);
    Opt.CommandTemplate = "cd " + std::string(Dir) + " && " + WorkerExec;
    std::vector<PerfCounters> Cells;
    SweepRunStats Stats;
    OrchestratorReport Report;
    ASSERT_TRUE(orchestrateSweep(Spec, Opt, Cells, Stats, Error, &Report))
        << Name << ": " << Error;
    expectCellsEqual(Want, Cells);
    EXPECT_NE(0, ::access((std::string(Dir) + "/INJECTED").c_str(), F_OK))
        << Name << ": the spec name ran in the worker shell";
  }
}

//===--- the store reaches workers on their command line ------------------===//

TEST_F(OrchestratorFaultTest, StoreReachesWorkersUnderAnEnvClearingTemplate) {
  // An ssh hop or `env -i` keeps nothing of the orchestrator's
  // environment, so the store must travel in the command: the second
  // sweep serves every job from what the first one's workers stored.
  SweepSpec Spec = faultForthSpec();
  std::string SpecPath = writeSpec(Spec);
  std::vector<PerfCounters> Want = reference(Spec);
  std::string StoreDir = std::string(Dir) + "/results";

  for (int Run = 0; Run < 2; ++Run) {
    ResultStore Store;
    std::string Diag;
    ASSERT_TRUE(Store.open(StoreDir, &Diag)) << Diag;
    SweepWorkerOptions Opt = baseOptions(SpecPath, 2);
    Opt.Store = &Store;
    Opt.CommandTemplate =
        "exec env -i PATH=/usr/bin:/bin VMIB_TRACE_CACHE=" +
        std::string(Dir) +
        " {driver} --worker --spec={spec} --shards={shards} --job={job} "
        "--threads={threads} --attempt={attempt} {store}";
    std::vector<PerfCounters> Cells;
    SweepRunStats Stats;
    std::string Error;
    OrchestratorReport Report;
    ASSERT_TRUE(orchestrateSweep(Spec, Opt, Cells, Stats, Error, &Report))
        << Error;
    expectCellsEqual(Want, Cells);
    size_t Jobs = decomposeSweep(Spec, 2).size();
    if (Run == 0) {
      EXPECT_EQ(Report.StoreMisses, Spec.numCells()) << "workers ran storeless";
    } else {
      EXPECT_EQ(Report.JobsServedFromStore, Jobs);
      EXPECT_EQ(Report.StoreHits, Spec.numCells());
    }
  }
}

TEST_F(OrchestratorFaultTest, StoreDirIsOneShellWordInTheDefaultTemplate) {
  // The default template splices the directory into a shell command:
  // a space, a quote or shell syntax in it must neither split the
  // argument nor run anything. The first sweep's workers store every
  // cell in that directory; the second serves every cell from it.
  SweepSpec Spec = faultForthSpec();
  Spec.Benchmarks = {forthSuite()[0].Name};
  std::string SpecPath = writeSpec(Spec);
  std::vector<PerfCounters> Want = reference(Spec);
  std::string Injected = std::string(Dir) + "/INJECTED";
  std::string StoreDir =
      std::string(Dir) + "/a b;touch " + Injected + ";'q'/st";

  for (int Run = 0; Run < 2; ++Run) {
    ResultStore Store;
    std::string Diag;
    ASSERT_TRUE(Store.open(StoreDir, &Diag)) << Diag;
    SweepWorkerOptions Opt = baseOptions(SpecPath, 2);
    Opt.Store = &Store;
    std::vector<PerfCounters> Cells;
    SweepRunStats Stats;
    std::string Error;
    OrchestratorReport Report;
    ASSERT_TRUE(orchestrateSweep(Spec, Opt, Cells, Stats, Error, &Report))
        << Error;
    expectCellsEqual(Want, Cells);
    EXPECT_EQ(Run == 0 ? Report.StoreMisses : Report.StoreHits,
              Spec.numCells())
        << "run " << Run;
    EXPECT_NE(0, ::access(Injected.c_str(), F_OK))
        << "the store dir ran in the worker shell";
  }
}

TEST_F(OrchestratorFaultTest, TemplateWithoutStoreFailsWhileAStoreIsOpen) {
  // Its workers would silently run storeless: fail before any spawn.
  SweepSpec Spec = faultForthSpec();
  std::string SpecPath = writeSpec(Spec);
  std::string Log = std::string(Dir) + "/spawned.log";
  ResultStore Store;
  ASSERT_TRUE(Store.open(std::string(Dir) + "/results"));
  SweepWorkerOptions Opt = baseOptions(SpecPath, 2);
  Opt.Store = &Store;
  Opt.CommandTemplate = "echo spawned >> " + Log + "; " + WorkerExec;
  std::vector<PerfCounters> Cells;
  SweepRunStats Stats;
  std::string Error;
  EXPECT_FALSE(orchestrateSweep(Spec, Opt, Cells, Stats, Error));
  EXPECT_NE(Error.find("{store}"), std::string::npos) << Error;
  EXPECT_NE(0, ::access(Log.c_str(), F_OK)) << "a worker was spawned";
}

//===--- kill drills read strict counts -----------------------------------===//

TEST_F(OrchestratorFaultTest, MalformedKillDrillCountsWarnOnceAndStayOff) {
  // "-1" must not arm the orchestrator drill at its first commit, and
  // "1x" must not arm the store drill at its first record: both break
  // the env count rule, so they warn once and leave the drill off.
  SweepSpec Spec = faultForthSpec();
  std::string SpecPath = writeSpec(Spec);
  reference(Spec); // warm the shared trace cache
  auto Count = [](const std::string &Out, const std::string &Needle) {
    size_t Hits = 0;
    for (size_t At = Out.find(Needle); At != std::string::npos;
         At = Out.find(Needle, At + 1))
      ++Hits;
    return Hits;
  };

  int Exit = -1;
  std::string Out =
      runDriver("VMIB_ORCH_KILL_AFTER_COMMITS=-1",
                "--spec=" + SpecPath + " --shards=2 --no-result-store", Exit);
  EXPECT_EQ(Exit, 0) << Out;
  EXPECT_EQ(Count(Out, "warning: ignoring VMIB_ORCH_KILL_AFTER_COMMITS"), 1u)
      << Out;
  EXPECT_EQ(Out.find("raising SIGKILL"), std::string::npos) << Out;

  Out = runDriver("VMIB_STORE_KILL_AFTER=1x",
                  "--spec=" + SpecPath + " --in-process --store-dir=" +
                      std::string(Dir) + "/results",
                  Exit);
  EXPECT_EQ(Exit, 0) << Out;
  EXPECT_EQ(Count(Out, "warning: ignoring VMIB_STORE_KILL_AFTER"), 1u) << Out;
}

//===--- chaos: VMIB_FAULT end to end -------------------------------------===//

TEST_F(OrchestratorFaultTest, ChaosFaultInjectionRecoversBothSuites) {
  // Workers misbehave via the deterministic in-worker fault harness —
  // crash mid-stream, emit rows outside their shard, truncate,
  // duplicate — on a seeded schedule that faults a healthy fraction of
  // first attempts. With retries the sweep must still converge to the
  // exact in-process cells on BOTH suites.
  ASSERT_EQ(0, ::setenv("VMIB_FAULT",
                        "kill=0.2,garble=0.15,trunc=0.1,dup=0.1,seed=11", 1));
  for (bool Java : {false, true}) {
    SweepSpec Spec = Java ? faultJavaSpec() : faultForthSpec();
    std::string SpecPath = writeSpec(Spec);
    std::vector<PerfCounters> Want = reference(Spec);

    SweepWorkerOptions Opt = baseOptions(SpecPath, 4);
    Opt.Retries = 3;
    Opt.JobTimeoutMs = 60000; // only a backstop; no hangs in this plan

    std::vector<PerfCounters> Cells;
    SweepRunStats Stats;
    std::string Error;
    OrchestratorReport Report;
    ASSERT_TRUE(orchestrateSweep(Spec, Opt, Cells, Stats, Error, &Report))
        << (Java ? "java: " : "forth: ") << Error;
    expectCellsEqual(Want, Cells);
    EXPECT_TRUE(Report.complete());
    EXPECT_EQ(Report.cellsCovered(), Spec.numCells());
    if (!Java) {
      // The forth seed is chosen to actually fault first attempts —
      // a chaos test that injects nothing tests nothing.
      EXPECT_GT(Report.WorkerFailures, 0u);
      EXPECT_GT(Report.RetriesScheduled, 0u);
    }
  }
}

//===--- dead-orchestrator pipe: SIGPIPE handling -------------------------===//

TEST_F(OrchestratorFaultTest, WorkerSurvivesSigpipeAndFailsWithDiagnostic) {
  // A worker whose orchestrator died mid-flight writes [result] rows
  // into a pipe nobody reads. The default SIGPIPE disposition would
  // kill it silently (WIFSIGNALED, no diagnostic); the worker instead
  // ignores SIGPIPE, detects the EPIPE on its stdout stream, and exits
  // non-zero with a stderr explanation. Exercised by direct fork/exec —
  // a shell pipeline would mask the worker's exit status.
  SweepSpec Spec = faultForthSpec();
  std::string SpecPath = writeSpec(Spec);
  reference(Spec); // warm the shared trace cache; keeps the worker fast

  std::string Driver = defaultSweepDriverPath();
  std::string SpecArg = "--spec=" + SpecPath;
  int OutPipe[2], ErrPipe[2];
  ASSERT_EQ(0, ::pipe(OutPipe));
  ASSERT_EQ(0, ::pipe(ErrPipe));
  pid_t Pid = ::fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    ::dup2(OutPipe[1], 1);
    ::dup2(ErrPipe[1], 2);
    ::close(OutPipe[0]);
    ::close(OutPipe[1]);
    ::close(ErrPipe[0]);
    ::close(ErrPipe[1]);
    ::execl(Driver.c_str(), Driver.c_str(), "--worker", SpecArg.c_str(),
            "--shards=2", "--job=0", "--threads=1", "--schedule=static",
            "--attempt=0", (char *)nullptr);
    ::_exit(127);
  }
  // The "orchestrator" dies: both ends of the worker's stdout close
  // before it can deliver a single row.
  ::close(OutPipe[1]);
  ::close(OutPipe[0]);
  ::close(ErrPipe[1]);
  std::string Err;
  char Buf[512];
  ssize_t N;
  while ((N = ::read(ErrPipe[0], Buf, sizeof(Buf))) > 0)
    Err.append(Buf, static_cast<size_t>(N));
  ::close(ErrPipe[0]);
  int Status = 0;
  ASSERT_EQ(Pid, ::waitpid(Pid, &Status, 0));
  ASSERT_TRUE(WIFEXITED(Status)) << "worker died on a signal instead of "
                                    "exiting cleanly; status " << Status;
  EXPECT_NE(WEXITSTATUS(Status), 0);
  EXPECT_NE(WEXITSTATUS(Status), 127) << "worker binary failed to exec";
  EXPECT_NE(Err.find("could not write results"), std::string::npos) << Err;
}

//===--- store open failure degrades to a storeless run -------------------===//

TEST_F(OrchestratorFaultTest, UnopenableStoreDegradesToStorelessRun) {
  // The template hands workers a store below a regular file — a
  // directory that can never be created, for every uid (these tests
  // often run as root, where permission-bit read-only dirs do not
  // block). Workers must warn, run storeless, and still converge
  // bit-identically.
  SweepSpec Spec = faultForthSpec();
  std::string SpecPath = writeSpec(Spec);
  std::vector<PerfCounters> Want = reference(Spec);

  std::string Blocker = std::string(Dir) + "/blocker";
  std::FILE *F = std::fopen(Blocker.c_str(), "w");
  ASSERT_NE(nullptr, F);
  std::fputs("not a directory\n", F);
  std::fclose(F);

  SweepWorkerOptions Opt = baseOptions(SpecPath, 2);
  Opt.CommandTemplate =
      std::string(WorkerExec) + " --store-dir=" + Blocker + "/results";
  std::vector<PerfCounters> Cells;
  SweepRunStats Stats;
  std::string Error;
  OrchestratorReport Report;
  ASSERT_TRUE(orchestrateSweep(Spec, Opt, Cells, Stats, Error, &Report))
      << Error;
  expectCellsEqual(Want, Cells);
  EXPECT_TRUE(Report.complete());
  EXPECT_EQ(Report.JobsServedFromStore, 0u);
  EXPECT_EQ(Report.StoreHits, 0u);
  EXPECT_EQ(Report.WorkerFailures, 0u);
}

//===--- VMIB_FAULT grammar -----------------------------------------------===//

TEST(FaultInjection, ParsesFullGrammar) {
  FaultPlan Plan;
  std::string Error;
  ASSERT_TRUE(parseFaultPlan("kill=0.25,hang=0.1,garble=0.1,trunc=0.05,"
                             "dup=0.05,seed=42",
                             Plan, Error))
      << Error;
  EXPECT_DOUBLE_EQ(Plan.Kill, 0.25);
  EXPECT_DOUBLE_EQ(Plan.Hang, 0.1);
  EXPECT_DOUBLE_EQ(Plan.Garble, 0.1);
  EXPECT_DOUBLE_EQ(Plan.Trunc, 0.05);
  EXPECT_DOUBLE_EQ(Plan.Dup, 0.05);
  EXPECT_EQ(Plan.Seed, 42u);
  EXPECT_TRUE(Plan.any());
}

TEST(FaultInjection, NullAndEmptyAreInert) {
  FaultPlan Plan;
  std::string Error;
  ASSERT_TRUE(parseFaultPlan(nullptr, Plan, Error));
  EXPECT_FALSE(Plan.any());
  ASSERT_TRUE(parseFaultPlan("", Plan, Error));
  EXPECT_FALSE(Plan.any());
  EXPECT_EQ(decideFault(Plan, 0, 0), FaultMode::None);
}

TEST(FaultInjection, RejectsMalformedPlans) {
  FaultPlan Plan;
  std::string Error;
  EXPECT_FALSE(parseFaultPlan("explode=0.5", Plan, Error));
  EXPECT_NE(Error.find("unknown fault key"), std::string::npos);
  EXPECT_FALSE(parseFaultPlan("kill=1.5", Plan, Error));
  EXPECT_NE(Error.find("probability"), std::string::npos);
  EXPECT_FALSE(parseFaultPlan("kill=banana", Plan, Error));
  EXPECT_FALSE(parseFaultPlan("kill", Plan, Error));
  EXPECT_NE(Error.find("'='"), std::string::npos);
  EXPECT_FALSE(parseFaultPlan("kill=0.7,hang=0.7", Plan, Error));
  EXPECT_NE(Error.find("sum past 1"), std::string::npos);
  EXPECT_FALSE(parseFaultPlan("seed=notanumber", Plan, Error));
  // Regression: strtoull quietly accepts "-1" (wrapping to 2^64-1) and
  // saturates on overflow — both must reject, not seed silently.
  EXPECT_FALSE(parseFaultPlan("seed=-1", Plan, Error));
  EXPECT_NE(Error.find("seed"), std::string::npos);
  EXPECT_FALSE(parseFaultPlan("seed=99999999999999999999999", Plan, Error));
  EXPECT_NE(Error.find("seed"), std::string::npos);
  EXPECT_FALSE(parseFaultPlan("seed=", Plan, Error));
  EXPECT_FALSE(parseFaultPlan("seed=42x", Plan, Error));
}

TEST(FaultInjection, DrawsAreDeterministicAndAttemptFresh) {
  FaultPlan Plan;
  std::string Error;
  ASSERT_TRUE(parseFaultPlan("kill=0.3,garble=0.3,dup=0.3,seed=7", Plan,
                             Error));
  // Pure function of (seed, job, attempt): same inputs, same mode.
  for (size_t Job = 0; Job < 64; ++Job)
    for (unsigned Attempt = 0; Attempt < 4; ++Attempt)
      EXPECT_EQ(decideFault(Plan, Job, Attempt),
                decideFault(Plan, Job, Attempt));
  // Retries get FRESH draws: across many jobs, attempt 1 must not
  // always repeat attempt 0's mode (that would make retries useless
  // against deterministic faults).
  bool AttemptChangesSomething = false;
  for (size_t Job = 0; Job < 64 && !AttemptChangesSomething; ++Job)
    AttemptChangesSomething =
        decideFault(Plan, Job, 0) != decideFault(Plan, Job, 1);
  EXPECT_TRUE(AttemptChangesSomething);
  // And the configured mass actually faults some jobs.
  unsigned Faulted = 0;
  for (size_t Job = 0; Job < 64; ++Job)
    Faulted += decideFault(Plan, Job, 0) != FaultMode::None;
  EXPECT_GT(Faulted, 0u);
  EXPECT_LT(Faulted, 64u);
}

TEST(FaultInjection, ParsesFlipGrammar) {
  FaultPlan Plan;
  std::string Error;
  ASSERT_TRUE(
      parseFaultPlan("flipcounter=0.25,flipstore=0.5,seed=9", Plan, Error))
      << Error;
  EXPECT_DOUBLE_EQ(Plan.FlipCounter, 0.25);
  EXPECT_DOUBLE_EQ(Plan.FlipStore, 0.5);
  EXPECT_EQ(Plan.Seed, 9u);
  EXPECT_TRUE(Plan.anyFlip());
  // The flip masses are their own independent pair — they join neither
  // the worker-fault nor the filesystem-fault cumulative budget.
  EXPECT_FALSE(Plan.any());
  EXPECT_FALSE(Plan.anyFs());
  ASSERT_TRUE(parseFaultPlan("flipcounter=1.0,flipstore=1.0", Plan, Error))
      << Error;
  EXPECT_FALSE(parseFaultPlan("flipcounter=1.5", Plan, Error));
  EXPECT_NE(Error.find("probability"), std::string::npos) << Error;
  EXPECT_FALSE(parseFaultPlan("flipstore=banana", Plan, Error));
  // The unknown-key diagnostic advertises the flip keys.
  EXPECT_FALSE(parseFaultPlan("flipeverything=0.5", Plan, Error));
  EXPECT_NE(Error.find("flipcounter"), std::string::npos) << Error;
  EXPECT_NE(Error.find("flipstore"), std::string::npos) << Error;
}

TEST(FaultInjection, FlipDrawsAreDeterministicPerCellAndPerKey) {
  FaultPlan Plan;
  std::string Error;
  ASSERT_TRUE(
      parseFaultPlan("flipcounter=0.5,flipstore=0.5,seed=21", Plan, Error));
  // flipcounter: pure per (seed, workload, member) — NOT per attempt,
  // so a retry reproduces the same corruption and cannot wash it out.
  unsigned W1, B1, W2, B2;
  unsigned FiredCells = 0;
  for (size_t W = 0; W < 8; ++W)
    for (size_t M = 0; M < 8; ++M) {
      bool F1 = decideCounterFlip(Plan, W, M, W1, B1);
      bool F2 = decideCounterFlip(Plan, W, M, W2, B2);
      ASSERT_EQ(F1, F2);
      if (F1) {
        EXPECT_EQ(W1, W2);
        EXPECT_EQ(B1, B2);
        EXPECT_LT(W1, PerfCounters::NumWords);
        EXPECT_LT(B1, 64u);
        ++FiredCells;
      }
    }
  EXPECT_GT(FiredCells, 0u);
  EXPECT_LT(FiredCells, 64u);
  // flipstore: pure per 128-bit store key — every serve of the cell is
  // corrupted identically while other keys draw independently.
  unsigned FiredKeys = 0;
  for (uint64_t K = 0; K < 64; ++K) {
    bool F1 = decideStoreFlip(Plan, K * 7919, ~K, W1, B1);
    bool F2 = decideStoreFlip(Plan, K * 7919, ~K, W2, B2);
    ASSERT_EQ(F1, F2);
    if (F1) {
      EXPECT_EQ(W1, W2);
      EXPECT_EQ(B1, B2);
      EXPECT_LT(W1, PerfCounters::NumWords);
      EXPECT_LT(B1, 64u);
      ++FiredKeys;
    }
  }
  EXPECT_GT(FiredKeys, 0u);
  EXPECT_LT(FiredKeys, 64u);
  // An inert plan never fires either draw.
  FaultPlan None;
  EXPECT_FALSE(decideCounterFlip(None, 0, 0, W1, B1));
  EXPECT_FALSE(decideStoreFlip(None, 1, 2, W1, B1));
}
