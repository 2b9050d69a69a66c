//===- tests/AuditTest.cpp - Redundant-execution audit layer --------------===//
///
/// Pins the always-on silent-corruption audit (harness/Auditor):
///
///  - the `--audit=RATE` grammar and the deterministic, shape-free
///    sampling draw (same cells audited no matter how the sweep is
///    shaped or named);
///  - the decorrelation matrix: the audit shape flips decode mode,
///    gang tile size and thread count relative to the primary, and the
///    tiebreak shape is the canonical clean configuration;
///  - PerfCounters fingerprint/flipBit, the audit layer's value
///    identity and the fault injector's corruption primitive;
///  - end to end, with injected `flipcounter` corruption in primary
///    workers and `--audit` sampling at the orchestrator: the
///    orchestrator's in-process Auditor catches every corrupted cell
///    in the committed slices, the tiebreak classifies it as compute
///    divergence, the cell is repaired ("requeued for authoritative
///    recompute"), and the merged tables are bit-identical to a
///    fault-free storeless reference — on BOTH suites, and under a
///    worker template that wraps the worker in `sh -c '...'`;
///  - an orchestrated sweep audits exactly the cells the draw samples,
///    as many as the in-process sweep, never the zero-filled cells of
///    a job lost under --partial-ok, and a worker rejects `--audit`;
///  - with `flipstore` serve-corruption under a populated ResultStore,
///    the auditor classifies store corruption, quarantines the cell
///    (tombstones + quarantine/ evidence, nothing deleted), repairs the
///    slice, and a clean re-run converges with zero mismatches;
///  - a fault-free audited sweep reports zero mismatches while still
///    proving it audited something;
///  - `sweep_driver --verify` is the Auditor at rate 1.0: its four
///    shapes cover decode x tile x threads pairwise, a clean run passes
///    with the stream shapes really streaming, and flipped primary
///    cells fail it with a detail line naming the member.
///
/// Corruption seeds are searched in-test over the PURE draw functions
/// (decideCounterFlip × decideAudit), so every assertion is
/// deterministic — no flaky "hope the sample hits the fault".
///
//===----------------------------------------------------------------------===//

#include "harness/Auditor.h"
#include "harness/FaultInjection.h"
#include "harness/ResultStore.h"
#include "harness/SweepExecutor.h"
#include "harness/SweepOrchestrator.h"
#include "harness/SweepSpec.h"
#include "support/Format.h"
#include "uarch/PerfCounters.h"
#include "vmcore/DispatchTrace.h"
#include "workloads/ForthSuite.h"
#include "workloads/JavaSuite.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <set>
#include <string>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

using namespace vmib;

namespace {

SweepSpec auditForthSpec() {
  SweepSpec S;
  S.Name = "audittest_forth";
  S.Suite = "forth";
  S.Benchmarks = {forthSuite()[0].Name, forthSuite()[1].Name};
  S.Cpus = {"p4northwood"};
  S.Variants = {makeVariant(DispatchStrategy::Threaded),
                makeVariant(DispatchStrategy::DynamicSuper)};
  return S;
}

SweepSpec auditJavaSpec() {
  SweepSpec S;
  S.Name = "audittest_java";
  S.Suite = "java";
  S.Benchmarks = {javaSuite()[0].Name, javaSuite()[1].Name};
  S.Cpus = {"p4northwood"};
  S.Variants = {makeVariant(DispatchStrategy::Threaded),
                makeVariant(DispatchStrategy::DynamicSuper)};
  return S;
}

/// A synthetic many-cell spec for the pure sampling-draw tests: no
/// traces are ever loaded, decideAudit only hashes names and member
/// configuration.
SweepSpec samplingSpec() {
  SweepSpec S;
  S.Name = "sampling";
  S.Suite = "forth";
  for (int I = 0; I < 8; ++I)
    S.Benchmarks.push_back("bench" + std::to_string(I));
  S.Cpus = {"p4northwood", "celeron800"};
  S.Variants = {makeVariant(DispatchStrategy::Threaded),
                makeVariant(DispatchStrategy::StaticRepl),
                makeVariant(DispatchStrategy::DynamicSuper),
                makeVariant(DispatchStrategy::Switch)};
  return S;
}

void expectCellsEqual(const std::vector<PerfCounters> &A,
                      const std::vector<PerfCounters> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_EQ(0, std::memcmp(&A[I], &B[I], sizeof(PerfCounters)))
        << "cell " << I << " diverges";
}

size_t countFiles(const std::string &Dir, const std::string &Suffix) {
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return 0;
  size_t N = 0;
  while (struct dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    if (Name.size() >= Suffix.size() &&
        Name.compare(Name.size() - Suffix.size(), Suffix.size(), Suffix) == 0)
      ++N;
  }
  ::closedir(D);
  return N;
}

/// Finds a VMIB_FAULT seed under which the flipcounter mass corrupts
/// at least one cell of \p Spec AND every corrupted cell is inside the
/// audit sample — the precondition for "the audited sweep repairs
/// everything and converges bit-identically". Both draws are pure, so
/// the search is exact, not probabilistic.
uint64_t findCoveredFlipSeed(const SweepSpec &Spec, double FlipMass,
                             const AuditPlan &Audit) {
  FaultPlan Faults;
  Faults.FlipCounter = FlipMass;
  size_t M = Spec.membersPerWorkload();
  for (uint64_t Seed = 1; Seed < 100000; ++Seed) {
    Faults.Seed = Seed;
    size_t Fired = 0;
    bool AllAudited = true;
    for (size_t W = 0; W < Spec.Benchmarks.size(); ++W)
      for (size_t Mem = 0; Mem < M; ++Mem) {
        unsigned Word, Bit;
        if (decideCounterFlip(Faults, W, Mem, Word, Bit)) {
          ++Fired;
          AllAudited = AllAudited && decideAudit(Audit, Spec, W, Mem);
        }
      }
    if (Fired > 0 && AllAudited)
      return Seed;
  }
  ADD_FAILURE() << "no covered flip seed in 100000 tries";
  return 0;
}

class AuditTest : public ::testing::Test {
protected:
  void SetUp() override {
    std::snprintf(Dir, sizeof(Dir), "/tmp/vmib-audit-test-XXXXXX");
    ASSERT_NE(nullptr, ::mkdtemp(Dir));
    ASSERT_EQ(0, ::setenv("VMIB_TRACE_CACHE", Dir, 1));
    ::unsetenv("VMIB_FAULT");
  }
  void TearDown() override {
    ::unsetenv("VMIB_FAULT");
    ::unsetenv("VMIB_TRACE_CACHE");
    std::system(("rm -rf " + std::string(Dir)).c_str());
  }

  std::string writeSpec(const SweepSpec &Spec) {
    std::string Path = std::string(Dir) + "/" + Spec.Name + ".spec";
    std::FILE *F = std::fopen(Path.c_str(), "w");
    EXPECT_NE(nullptr, F);
    std::string Text = printSweepSpec(Spec);
    std::fwrite(Text.data(), 1, Text.size(), F);
    std::fclose(F);
    return Path;
  }

  /// Fault-free, storeless in-process ground truth (also warms the
  /// trace cache workers share).
  std::vector<PerfCounters> reference(const SweepSpec &Spec) {
    std::vector<PerfCounters> Cells;
    Executor.runAll(Spec, 1, Cells);
    return Cells;
  }

  /// Runs `sibling sweep_driver <Args>` (\p Env prefixed) and
  /// returns its stdout; \p Exit receives the exit status.
  std::string runDriver(const std::string &Env, const std::string &Args,
                        int &Exit) {
    std::string Cmd = Env + " " + defaultSweepDriverPath() + " " + Args;
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

//===--- --audit grammar and the sampling draw ----------------------------===//

TEST(AuditPlan, ParsesRates) {
  AuditPlan P;
  std::string Error;
  ASSERT_TRUE(parseAuditRate("0.25", P, Error)) << Error;
  EXPECT_DOUBLE_EQ(P.Rate, 0.25);
  EXPECT_TRUE(P.enabled());
  ASSERT_TRUE(parseAuditRate("0", P, Error));
  EXPECT_FALSE(P.enabled());
  ASSERT_TRUE(parseAuditRate("1", P, Error));
  EXPECT_DOUBLE_EQ(P.Rate, 1.0);
  EXPECT_FALSE(parseAuditRate("1.5", P, Error));
  EXPECT_NE(Error.find("audit rate"), std::string::npos);
  EXPECT_FALSE(parseAuditRate("-0.1", P, Error));
  EXPECT_FALSE(parseAuditRate("banana", P, Error));
  EXPECT_FALSE(parseAuditRate("", P, Error));
  EXPECT_FALSE(parseAuditRate("0.5x", P, Error));
  // Only plain decimals: strtod's other spellings are typos here, and
  // "nan" would slip past the range check and disable the audit.
  for (const char *Bad : {"nan", "NaN", "inf", " 0.5", "0x1p-1", "1e0"}) {
    EXPECT_FALSE(parseAuditRate(Bad, P, Error)) << Bad;
    EXPECT_NE(Error.find("audit rate"), std::string::npos) << Bad;
  }
  // What CI passes.
  ASSERT_TRUE(parseAuditRate("1.0", P, Error)) << Error;
  EXPECT_DOUBLE_EQ(P.Rate, 1.0);
  ASSERT_TRUE(parseAuditRate("0.25", P, Error)) << Error;
  EXPECT_DOUBLE_EQ(P.Rate, 0.25);
}

TEST(AuditPlan, SamplingIsDeterministicShapeFreeAndSeeded) {
  SweepSpec Spec = samplingSpec();
  size_t W = Spec.Benchmarks.size(), M = Spec.membersPerWorkload();
  AuditPlan P;
  P.Rate = 0.5;

  // The draw is pure, and a reshaped/renamed/rechunked execution of
  // the same logical sweep samples the SAME cells — shard layout,
  // threads, tile size, decode mode, the legacy schedule declaration and
  // display name are not identity.
  SweepSpec Shaped = Spec;
  Shaped.Name = "renamed";
  Shaped.Threads = 8;
  Shaped.Schedule = GangSchedule::Dynamic;
  Shaped.Decode = TraceDecodeMode::Stream;
  Shaped.ChunkEvents = 12345;
  size_t Sampled = 0;
  for (size_t I = 0; I < W; ++I)
    for (size_t J = 0; J < M; ++J) {
      bool D = decideAudit(P, Spec, I, J);
      EXPECT_EQ(D, decideAudit(P, Spec, I, J));
      EXPECT_EQ(D, decideAudit(P, Shaped, I, J));
      Sampled += D;
    }
  // Rate 0.5 over 64 cells actually samples, and actually skips.
  EXPECT_GT(Sampled, 0u);
  EXPECT_LT(Sampled, W * M);

  // Extremes: 0 never samples, 1 always does.
  AuditPlan Off;
  Off.Rate = 0;
  AuditPlan All;
  All.Rate = 1;
  for (size_t I = 0; I < W; ++I)
    for (size_t J = 0; J < M; ++J) {
      EXPECT_FALSE(decideAudit(Off, Spec, I, J));
      EXPECT_TRUE(decideAudit(All, Spec, I, J));
    }

  // A different seed draws a different sample ("--audit-seed").
  AuditPlan Reseeded = P;
  Reseeded.Seed = P.Seed + 1;
  bool AnyDiffers = false;
  for (size_t I = 0; I < W && !AnyDiffers; ++I)
    for (size_t J = 0; J < M && !AnyDiffers; ++J)
      AnyDiffers =
          decideAudit(P, Spec, I, J) != decideAudit(Reseeded, Spec, I, J);
  EXPECT_TRUE(AnyDiffers);
}

TEST(AuditPlan, DecorrelatedShapeFlipsEveryAxis) {
  SweepSpec Spec;
  Spec.Decode = TraceDecodeMode::Materialize;
  Spec.Threads = 1;
  AuditShape D = decorrelatedAuditShape(Spec);
  EXPECT_EQ(D.Decode, TraceDecodeMode::Stream);
  EXPECT_EQ(D.Threads, 2u);
  // The tile size flips away from the primary's effective tile (the
  // default one here) to a size the store key never sees.
  EXPECT_NE(D.ChunkEvents, 0u);
  EXPECT_NE(D.ChunkEvents, DispatchTrace::defaultChunkEvents());

  Spec.Decode = TraceDecodeMode::Stream;
  Spec.Threads = 4;
  Spec.ChunkEvents = D.ChunkEvents; // a primary already on that tile
  AuditShape E = decorrelatedAuditShape(Spec);
  EXPECT_EQ(E.Decode, TraceDecodeMode::Materialize);
  EXPECT_EQ(E.Threads, 1u);
  EXPECT_NE(E.ChunkEvents, 0u);
  EXPECT_NE(E.ChunkEvents, Spec.ChunkEvents);

  // The tiebreak authority is the canonical clean configuration.
  AuditShape C = canonicalAuditShape();
  EXPECT_EQ(C.Decode, TraceDecodeMode::Materialize);
  EXPECT_EQ(C.ChunkEvents, 0u);
  EXPECT_EQ(C.Threads, 1u);
  EXPECT_EQ(auditShapeId(C), "decode:materialize,chunk:default,threads:1");
  EXPECT_EQ(auditShapeId(E), "decode:materialize,chunk:" +
                                 std::to_string(E.ChunkEvents) +
                                 ",threads:1");
}

TEST(AuditPlan, VerifyShapesCoverEveryAxisPair) {
  for (unsigned SpecThreads : {1u, 4u, 0u}) {
    unsigned N = resolveGangThreads(SpecThreads);
    if (N <= 1)
      N = 2;
    std::vector<AuditShape> Shapes = verifyAuditShapes(SpecThreads);
    ASSERT_EQ(Shapes.size(), 4u) << SpecThreads;
    EXPECT_EQ(auditShapeId(Shapes[0]), auditShapeId(canonicalAuditShape()));
    // Each shape is a point on three two-valued axes: decode
    // {materialize, stream}, tile {default, one prime size}, threads
    // {1, N}.
    size_t OtherTile = 0;
    std::set<std::string> Pairs;
    for (const AuditShape &S : Shapes) {
      ASSERT_NE(S.Decode, TraceDecodeMode::Auto);
      ASSERT_TRUE(S.Threads == 1 || S.Threads == N) << S.Threads;
      if (S.ChunkEvents != 0) {
        EXPECT_TRUE(OtherTile == 0 || OtherTile == S.ChunkEvents);
        OtherTile = S.ChunkEvents;
      }
      int Axis[3] = {S.Decode == TraceDecodeMode::Stream, S.ChunkEvents != 0,
                     S.Threads != 1};
      for (int A = 0; A < 3; ++A)
        for (int B = A + 1; B < 3; ++B)
          Pairs.insert(format("%d%d:%d%d", A, B, Axis[A], Axis[B]));
    }
    EXPECT_NE(OtherTile, 0u);
    EXPECT_NE(OtherTile, DispatchTrace::defaultChunkEvents());
    // Three axis pairs x four value pairs: every one occurs, so both
    // thread counts, both decodes and both tiles are covered too.
    EXPECT_EQ(Pairs.size(), 12u) << "spec threads " << SpecThreads;
  }
}

//===--- PerfCounters value identity --------------------------------------===//

TEST(AuditPlan, FingerprintSeesEveryCounterAndFlipBitRoundTrips) {
  PerfCounters C;
  C.Cycles = 1000;
  C.Instructions = 2000;
  C.VMInstructions = 300;
  C.IndirectBranches = 400;
  C.Mispredictions = 50;
  C.ICacheMisses = 7;
  C.MissCycles = 70;
  C.CodeBytes = 4096;
  C.DispatchCount = 500;
  uint64_t F = C.fingerprint();
  for (unsigned W = 0; W < PerfCounters::NumWords; ++W) {
    PerfCounters D = C;
    D.flipBit(W, 17);
    EXPECT_NE(D, C) << "word " << W;
    EXPECT_NE(D.fingerprint(), F) << "word " << W;
    D.flipBit(W, 17); // a second flip of the same bit restores
    EXPECT_EQ(D, C) << "word " << W;
    EXPECT_EQ(D.fingerprint(), F) << "word " << W;
  }
  // Out-of-range (word, bit) wrap instead of corrupting memory, so a
  // seeded draw needs no range bookkeeping.
  PerfCounters A = C, B = C;
  A.flipBit(PerfCounters::NumWords, 64 + 3);
  B.flipBit(0, 3);
  EXPECT_EQ(A, B);
}

//===--- end to end: flipcounter corruption under orchestrated audit ------===//

TEST_F(AuditTest, OrchestratedAuditRepairsFlipcounterCorruptionBothSuites) {
  // The acceptance scenario: primaries run under
  // VMIB_FAULT="flipcounter=P,seed=N" and corrupt some cells; the
  // orchestrator audits a 25% sample of its committed slices through
  // the decorrelated shape, the tiebreak classifies every mismatch as
  // compute divergence (no store is attached, so the store can never
  // be implicated), repairs the cells, and the merged tables are
  // bit-identical to the fault-free reference.
  for (bool Java : {false, true}) {
    SweepSpec Spec = Java ? auditJavaSpec() : auditForthSpec();
    std::string SpecPath = writeSpec(Spec);
    std::vector<PerfCounters> Want = reference(Spec);

    AuditPlan Audit;
    Audit.Rate = 0.25;
    uint64_t Seed = findCoveredFlipSeed(Spec, 0.3, Audit);
    ASSERT_NE(Seed, 0u);
    std::string Fault = "flipcounter=0.3,seed=" + std::to_string(Seed);
    ASSERT_EQ(0, ::setenv("VMIB_FAULT", Fault.c_str(), 1));

    SweepWorkerOptions Opt = baseOptions(SpecPath, 2);
    Opt.Audit = Audit;

    std::vector<PerfCounters> Cells;
    SweepRunStats Stats;
    std::string Error;
    OrchestratorReport Report;
    ASSERT_TRUE(orchestrateSweep(Spec, Opt, Cells, Stats, Error, &Report))
        << (Java ? "java: " : "forth: ") << Error;
    ::unsetenv("VMIB_FAULT");
    expectCellsEqual(Want, Cells);

    EXPECT_GE(Report.Audit.CellsAudited, 1u);
    EXPECT_GE(Report.Audit.Mismatches, 1u);
    // Storeless: every mismatch is a compute divergence, each repaired.
    EXPECT_EQ(Report.Audit.ComputeDivergences, Report.Audit.Mismatches);
    EXPECT_EQ(Report.Audit.CellsRequeued, Report.Audit.Mismatches);
    EXPECT_EQ(Report.Audit.StoreCorruptions, 0u);
    EXPECT_EQ(Report.Audit.Nondeterminism, 0u);
    EXPECT_EQ(Report.Audit.CellsQuarantined, 0u);
    // Audits launch no worker, so they never count as sweep failures
    // or timeouts.
    EXPECT_EQ(Report.WorkerFailures, 0u);
    EXPECT_EQ(Report.Timeouts, 0u);
    EXPECT_TRUE(Report.complete());
  }
}

//===--- the audit shape is a value, not flags on a worker template -------===//

TEST_F(AuditTest, OrchestratedAuditKeepsItsShapeUnderAWrappingTemplate) {
  // A template that wraps the worker in `sh -c '...'` ends in a quote:
  // flags appended to it would become the shell's positional
  // arguments. The audit shape never travels through the template —
  // the orchestrator replays sampled cells in-process on a clean
  // executor — so the flips planted in the primaries are still caught
  // and repaired.
  SweepSpec Spec = auditForthSpec();
  std::string SpecPath = writeSpec(Spec);
  std::vector<PerfCounters> Want = reference(Spec);

  AuditPlan Audit;
  Audit.Rate = 1.0;
  uint64_t Seed = findCoveredFlipSeed(Spec, 0.3, Audit);
  ASSERT_NE(Seed, 0u);
  std::string Fault = "flipcounter=0.3,seed=" + std::to_string(Seed);
  ASSERT_EQ(0, ::setenv("VMIB_FAULT", Fault.c_str(), 1));

  SweepWorkerOptions Opt = baseOptions(SpecPath, 4);
  Opt.CommandTemplate =
      "sh -c 'exec {driver} --worker --spec={spec} --shards={shards} "
      "--job={job} --threads={threads} --attempt={attempt}'";
  Opt.Audit = Audit;

  std::vector<PerfCounters> Cells;
  SweepRunStats Stats;
  std::string Error;
  OrchestratorReport Report;
  ASSERT_TRUE(orchestrateSweep(Spec, Opt, Cells, Stats, Error, &Report))
      << Error;
  ::unsetenv("VMIB_FAULT");
  expectCellsEqual(Want, Cells);
  EXPECT_GE(Report.Audit.Mismatches, 1u);
  EXPECT_EQ(Report.Audit.ComputeDivergences, Report.Audit.Mismatches);
}

//===--- orchestrated and in-process sweeps audit the same sample --------===//

TEST_F(AuditTest, OrchestratedAuditReplaysOnlyTheSampledCells) {
  SweepSpec Spec = auditForthSpec();
  std::string SpecPath = writeSpec(Spec);
  std::vector<PerfCounters> Want = reference(Spec);
  std::vector<ShardJob> Jobs = decomposeSweep(Spec, 2);

  // A seed whose 25% sample is non-empty and leaves a sampled job with
  // an unsampled cell, so counting cells and counting whole jobs
  // disagree. The draw is pure: a fixed property of the seed.
  SweepWorkerOptions Opt = baseOptions(SpecPath, 2);
  Opt.Audit.Rate = 0.25;
  size_t Sampled = 0, InSampledJobs = 0;
  for (unsigned Tries = 0; Tries < 10000; ++Tries, ++Opt.Audit.Seed) {
    Sampled = InSampledJobs = 0;
    for (const ShardJob &J : Jobs) {
      size_t Hits = 0;
      for (size_t M = J.MemberBegin; M < J.MemberEnd; ++M)
        Hits += decideAudit(Opt.Audit, Spec, J.Workload, M);
      Sampled += Hits;
      InSampledJobs += Hits ? J.MemberEnd - J.MemberBegin : 0;
    }
    if (Sampled > 0 && Sampled < InSampledJobs)
      break;
  }
  ASSERT_GT(Sampled, 0u);
  ASSERT_LT(Sampled, InSampledJobs);

  std::vector<PerfCounters> Cells;
  SweepRunStats Stats;
  std::string Error;
  OrchestratorReport Report;
  ASSERT_TRUE(orchestrateSweep(Spec, Opt, Cells, Stats, Error, &Report))
      << Error;
  expectCellsEqual(Want, Cells);
  EXPECT_EQ(Report.Audit.CellsAudited, Sampled);
  EXPECT_EQ(Report.Audit.Mismatches, 0u);

  // The in-process sweep draws the same sample.
  Auditor InProcess(Opt.Audit, Executor);
  Executor.setAuditor(&InProcess);
  Executor.runAll(Spec, 1, Cells);
  Executor.setAuditor(nullptr);
  expectCellsEqual(Want, Cells);
  EXPECT_EQ(InProcess.stats().CellsAudited, Sampled);
}

TEST_F(AuditTest, OrchestratedAuditSkipsJobsLostUnderPartialOk) {
  // A job that exhausts its retries under --partial-ok has no slice:
  // its zero-filled cells are neither audited nor repaired, while the
  // committed jobs on either side of it still are.
  SweepSpec Spec = auditForthSpec();
  std::string SpecPath = writeSpec(Spec);
  std::vector<PerfCounters> Want = reference(Spec);
  std::vector<ShardJob> Jobs = decomposeSweep(Spec, 4);
  ASSERT_EQ(Jobs.size(), 4u);

  SweepWorkerOptions Opt = baseOptions(SpecPath, 4);
  Opt.CommandTemplate =
      "if [ {job} -eq 1 ]; then exit 7; fi; exec {driver} --worker "
      "--spec={spec} --shards={shards} --job={job} --threads={threads} "
      "--attempt={attempt}";
  Opt.PartialOk = true;
  Opt.Audit.Rate = 1.0;

  std::vector<PerfCounters> Cells;
  SweepRunStats Stats;
  std::string Error;
  OrchestratorReport Report;
  ASSERT_TRUE(orchestrateSweep(Spec, Opt, Cells, Stats, Error, &Report))
      << Error;
  ASSERT_EQ(Report.FailedJobs, std::vector<size_t>{1});
  size_t Lost = Jobs[1].MemberEnd - Jobs[1].MemberBegin;
  EXPECT_EQ(Report.Audit.CellsAudited, Spec.numCells() - Lost);
  EXPECT_EQ(Report.Audit.Mismatches, 0u);
  PerfCounters Zero{};
  for (size_t I = 0; I < Cells.size(); ++I) {
    const PerfCounters &Expect = Report.CellCovered[I] ? Want[I] : Zero;
    EXPECT_EQ(0, std::memcmp(&Cells[I], &Expect, sizeof(PerfCounters)))
        << "cell " << I;
  }
}

//===--- workers never audit ----------------------------------------------===//

TEST_F(AuditTest, WorkerRejectsAuditFlag) {
  // The orchestrator audits committed slices, so the worker mode
  // declares no --audit and exits 1 naming it: a template that still
  // asks for a self-audit fails the sweep loudly instead of silently
  // auditing nothing.
  SweepSpec Spec = auditForthSpec();
  std::string SpecPath = writeSpec(Spec);
  const std::string Rejection = "unknown option '--audit'";

  int Exit = -1;
  std::string Out = runDriver(
      "", "--spec=" + SpecPath + " --worker --shards=2 --job=0 --audit=1.0 2>&1",
      Exit);
  EXPECT_EQ(Exit, 1) << Out;
  EXPECT_NE(Out.find(Rejection), std::string::npos) << Out;
  EXPECT_EQ(Out.find("[result]"), std::string::npos) << Out;

  SweepWorkerOptions Opt = baseOptions(SpecPath, 2);
  Opt.CommandTemplate =
      "exec {driver} --worker --spec={spec} --shards={shards} --job={job} "
      "--threads={threads} --attempt={attempt} --audit=1.0";
  std::vector<PerfCounters> Cells;
  SweepRunStats Stats;
  std::string Error;
  OrchestratorReport Report;
  EXPECT_FALSE(orchestrateSweep(Spec, Opt, Cells, Stats, Error, &Report));
  EXPECT_NE(Error.find(Rejection), std::string::npos) << Error;
}

//===--- store corruption: flipstore, quarantine, convergence -------------===//

TEST_F(AuditTest, FlipstoreIsClassifiedQuarantinedAndCleanRerunConverges) {
  SweepSpec Spec = auditForthSpec();
  std::vector<PerfCounters> Want = reference(Spec);
  std::string StoreDir = std::string(Dir) + "/results";

  // Populate the store with clean cells.
  {
    ResultStore St;
    std::string Diag;
    ASSERT_TRUE(St.open(StoreDir, &Diag)) << Diag;
    Executor.setResultStore(&St);
    std::vector<PerfCounters> Cells;
    Executor.runAll(Spec, 1, Cells);
    Executor.setResultStore(nullptr);
    St.close();
    expectCellsEqual(Want, Cells);
  }

  // Serve-corrupt EVERY store lookup (the disk bytes stay clean —
  // silent corruption below the segment checksums). The audited sweep
  // must classify each mismatch as store corruption, quarantine the
  // cell, repair the row, and still produce the exact reference.
  ASSERT_EQ(0, ::setenv("VMIB_FAULT", "flipstore=1.0,seed=9", 1));
  {
    ResultStore St;
    std::string Diag;
    ASSERT_TRUE(St.open(StoreDir, &Diag)) << Diag;
    Executor.setResultStore(&St);
    AuditPlan Plan;
    Plan.Rate = 1.0;
    Auditor Aud(Plan, Executor, &St);
    Executor.setAuditor(&Aud);
    std::vector<PerfCounters> Cells;
    Executor.runAll(Spec, 1, Cells);
    Executor.setAuditor(nullptr);
    Executor.setResultStore(nullptr);
    const AuditStats &S = Aud.stats();
    St.close();
    expectCellsEqual(Want, Cells);

    EXPECT_EQ(S.CellsAudited, Spec.numCells());
    EXPECT_GE(S.Mismatches, 1u);
    EXPECT_EQ(S.StoreCorruptions, S.Mismatches);
    EXPECT_EQ(S.CellsQuarantined, S.Mismatches);
    EXPECT_EQ(S.CellsRequeued, S.Mismatches);
    EXPECT_EQ(S.ComputeDivergences, 0u);
    EXPECT_EQ(S.Nondeterminism, 0u);
  }
  ::unsetenv("VMIB_FAULT");

  // Quarantine preserved the evidence durably: value-fingerprint
  // tombstones plus an evidence record under quarantine/ — and no
  // segment was deleted.
  EXPECT_GE(countFiles(StoreDir, ".vmibtomb"), 1u);
  EXPECT_GE(countFiles(StoreDir + "/quarantine", ".vmibstore"), 1u);
  EXPECT_GE(countFiles(StoreDir, ".vmibstore"), 1u);

  // Fault-free re-run over the repaired store: zero mismatches, exact
  // cells.
  {
    ResultStore St;
    std::string Diag;
    ASSERT_TRUE(St.open(StoreDir, &Diag)) << Diag;
    Executor.setResultStore(&St);
    AuditPlan Plan;
    Plan.Rate = 1.0;
    Auditor Aud(Plan, Executor, &St);
    Executor.setAuditor(&Aud);
    std::vector<PerfCounters> Cells;
    Executor.runAll(Spec, 1, Cells);
    Executor.setAuditor(nullptr);
    Executor.setResultStore(nullptr);
    const AuditStats &S = Aud.stats();
    St.close();
    expectCellsEqual(Want, Cells);
    EXPECT_EQ(S.CellsAudited, Spec.numCells());
    EXPECT_EQ(S.Mismatches, 0u);
    EXPECT_EQ(S.CellsQuarantined, 0u);
    EXPECT_EQ(S.CellsRequeued, 0u);
  }
}

//===--- orchestrated store corruption ------------------------------------===//

TEST_F(AuditTest, OrchestratedAuditQuarantinesServedStoreCorruption) {
  // The sharded flavor of the same scenario: jobs are served whole
  // from the orchestrator's pre-dispatch store probe (no worker ever
  // spawns for them), so only the orchestrator's audit of its
  // committed slices stands between a flip-served store and the final
  // tables.
  SweepSpec Spec = auditForthSpec();
  std::string SpecPath = writeSpec(Spec);
  std::vector<PerfCounters> Want = reference(Spec);
  std::string StoreDir = std::string(Dir) + "/results";

  {
    ResultStore St;
    std::string Diag;
    ASSERT_TRUE(St.open(StoreDir, &Diag)) << Diag;
    Executor.setResultStore(&St);
    std::vector<PerfCounters> Cells;
    Executor.runAll(Spec, 1, Cells);
    Executor.setResultStore(nullptr);
    St.close();
  }

  ASSERT_EQ(0, ::setenv("VMIB_FAULT", "flipstore=1.0,seed=7", 1));
  ResultStore St;
  std::string Diag;
  ASSERT_TRUE(St.open(StoreDir, &Diag)) << Diag; // parses VMIB_FAULT
  SweepWorkerOptions Opt = baseOptions(SpecPath, 2);
  Opt.Store = &St;
  Opt.Audit.Rate = 1.0;

  std::vector<PerfCounters> Cells;
  SweepRunStats Stats;
  std::string Error;
  OrchestratorReport Report;
  ASSERT_TRUE(orchestrateSweep(Spec, Opt, Cells, Stats, Error, &Report))
      << Error;
  ::unsetenv("VMIB_FAULT");
  St.close();
  expectCellsEqual(Want, Cells);

  // Flipstore mass 1 corrupts EVERY served cell, so as long as the
  // store served anything the audit had something real to catch.
  EXPECT_GE(Report.JobsServedFromStore + Report.StoreHits, 1u);
  EXPECT_GE(Report.Audit.Mismatches, 1u);
  EXPECT_GE(Report.Audit.StoreCorruptions, 1u);
  EXPECT_GE(Report.Audit.CellsQuarantined, 1u);
  EXPECT_EQ(Report.Audit.CellsRequeued, Report.Audit.Mismatches);
  EXPECT_TRUE(Report.complete());
  EXPECT_GE(countFiles(StoreDir, ".vmibtomb"), 1u);
}

//===--- the null result: clean runs audit clean --------------------------===//

TEST_F(AuditTest, CleanAuditedSweepReportsZeroMismatches) {
  SweepSpec Spec = auditForthSpec();
  std::string SpecPath = writeSpec(Spec);
  std::vector<PerfCounters> Want = reference(Spec);

  SweepWorkerOptions Opt = baseOptions(SpecPath, 2);
  Opt.Audit.Rate = 0.25;
  // Make sure the 25% sample is non-empty for this spec (a zero-cell
  // audit would vacuously "pass"); the seeded draw is pure, so this is
  // a fixed property, not a retry loop at run time.
  while (true) {
    size_t Sampled = 0;
    for (size_t W = 0; W < Spec.Benchmarks.size(); ++W)
      for (size_t M = 0; M < Spec.membersPerWorkload(); ++M)
        Sampled += decideAudit(Opt.Audit, Spec, W, M);
    if (Sampled > 0)
      break;
    ++Opt.Audit.Seed;
  }

  std::vector<PerfCounters> Cells;
  SweepRunStats Stats;
  std::string Error;
  OrchestratorReport Report;
  ASSERT_TRUE(orchestrateSweep(Spec, Opt, Cells, Stats, Error, &Report))
      << Error;
  expectCellsEqual(Want, Cells);
  EXPECT_GE(Report.Audit.CellsAudited, 1u);
  EXPECT_EQ(Report.Audit.Mismatches, 0u);
  EXPECT_EQ(Report.Audit.StoreCorruptions, 0u);
  EXPECT_EQ(Report.Audit.ComputeDivergences, 0u);
  EXPECT_EQ(Report.Audit.Nondeterminism, 0u);
  EXPECT_EQ(Report.Audit.CellsQuarantined, 0u);
  EXPECT_EQ(Report.Audit.CellsRequeued, 0u);
  EXPECT_TRUE(Report.complete());
}

//===--- --verify: the Auditor at rate 1.0 over four shapes ---------------===//

TEST_F(AuditTest, VerifyAuditsEveryShapeAndFailsOnFlippedCells) {
  SweepSpec Spec = auditForthSpec();
  std::string SpecArg = "--spec=" + writeSpec(Spec) + " --verify --shards=2";

  // Clean: one :verify line per shape, and the stream shapes really
  // streamed from the trace cache the primary's workers filled.
  int Exit = -1;
  std::string Out = runDriver("", SpecArg, Exit);
  EXPECT_EQ(Exit, 0) << Out;
  EXPECT_NE(Out.find("bit-identical across the 2-worker primary and 4 "
                     "in-process shapes"),
            std::string::npos)
      << Out;
  for (const AuditShape &Shape : verifyAuditShapes(Spec.Threads)) {
    std::string Tag = ":verify shape=" + auditShapeId(Shape) + " ";
    size_t At = Out.find(Tag);
    ASSERT_NE(At, std::string::npos) << Tag << "\n" << Out;
    std::string Line = Out.substr(At, Out.find('\n', At) - At);
    bool Streamed = Line.find("peak_ring_bytes=0") == std::string::npos;
    EXPECT_EQ(Streamed, Shape.Decode == TraceDecodeMode::Stream) << Line;
  }

  // Flipped primary cells: the audit names the corrupted member and
  // verify fails.
  AuditPlan Every;
  Every.Rate = 1.0;
  uint64_t Seed = findCoveredFlipSeed(Spec, 0.3, Every);
  ASSERT_NE(Seed, 0u);
  FaultPlan Faults;
  Faults.FlipCounter = 0.3;
  Faults.Seed = Seed;
  std::string Flipped;
  for (size_t W = 0; W < Spec.Benchmarks.size() && Flipped.empty(); ++W)
    for (size_t M = 0; M < Spec.membersPerWorkload() && Flipped.empty(); ++M) {
      unsigned Word, Bit;
      if (decideCounterFlip(Faults, W, M, Word, Bit))
        Flipped = format("[audit] sweep=%s workload=%zu member=%zu verdict=",
                         Spec.Name.c_str(), W, M);
    }
  Out = runDriver("VMIB_FAULT=flipcounter=0.3,seed=" + std::to_string(Seed),
                  SpecArg, Exit);
  EXPECT_NE(Exit, 0) << Out;
  EXPECT_NE(Out.find(Flipped), std::string::npos) << Flipped << "\n" << Out;
  EXPECT_EQ(Out.find("bit-identical"), std::string::npos) << Out;
}
