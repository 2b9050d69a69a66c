//===- tests/SweepSpecTest.cpp - Sweep spec / sharding / trace cache ------===//
///
/// Pins the contracts the distributed-sweep layer rests on:
///  - spec text round-trip is exact (parse(print(S)) == S),
///  - shard decomposition covers every cell exactly once and the merged
///    shard results are bit-identical to a single in-process gang sweep
///    (both suites),
///  - [result] lines round-trip PerfCounters exactly,
///  - corrupt trace-cache files fail to load with a diagnostic and no
///    partial state, and the cache directory is auto-created,
///  - concurrent cache writers (threads and processes) never expose a
///    partial file to readers and leave no temp droppings.
///
//===----------------------------------------------------------------------===//

#include "harness/SweepExecutor.h"
#include "harness/SweepSpec.h"
#include "harness/WorkloadCache.h"
#include "vmcore/DispatchTrace.h"
#include "workloads/ForthSuite.h"
#include "workloads/JavaSuite.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace vmib;

namespace {

PredictorGeometry btbGeometry(uint32_t Entries, bool TwoBit = false) {
  PredictorGeometry G;
  G.PredKind = PredictorGeometry::Kind::Btb;
  G.Btb.Entries = Entries;
  G.Btb.Ways = 4;
  G.Btb.TwoBitCounters = TwoBit;
  return G;
}

/// A spec exercising every serializable dimension (quoted variant
/// names, every predictor kind, several CPUs).
SweepSpec fullSpec() {
  SweepSpec S;
  S.Name = "sweeptest_full";
  S.Suite = "forth";
  S.Benchmarks = {forthSuite()[0].Name, forthSuite()[1].Name};
  S.Cpus = {"p4northwood", "celeron800", "athlon1200"};
  S.Variants = {makeVariant(DispatchStrategy::Threaded),
                makeVariant(DispatchStrategy::StaticBoth),
                makeVariant(DispatchStrategy::WithStaticSuper)};
  S.Variants[1].Config.Policy = ReplicaPolicy::Random;
  S.Variants[2].Config.Parse = ParsePolicy::Optimal;
  S.Variants[2].Config.Seed = 12345;
  PredictorGeometry TwoLevel;
  TwoLevel.PredKind = PredictorGeometry::Kind::TwoLevel;
  TwoLevel.TwoLevel.TableEntries = 1024;
  TwoLevel.TwoLevel.HistoryLength = 8;
  PredictorGeometry CaseBlock;
  CaseBlock.PredKind = PredictorGeometry::Kind::CaseBlock;
  CaseBlock.CaseBlockEntries = 2048;
  S.Predictors = {PredictorGeometry(), btbGeometry(256, true), TwoLevel,
                  CaseBlock};
  S.ChunkEvents = 1 << 14;
  S.Threads = 7;
  return S;
}

/// The small sweep the shard-equivalence tests execute for real.
SweepSpec forthRunSpec() {
  SweepSpec S;
  S.Name = "sweeptest_forth";
  S.Suite = "forth";
  S.Benchmarks = {forthSuite()[0].Name, forthSuite()[1].Name};
  S.Cpus = {"p4northwood"};
  S.Variants = {makeVariant(DispatchStrategy::Threaded),
                makeVariant(DispatchStrategy::StaticRepl),
                makeVariant(DispatchStrategy::AcrossBB)};
  S.Predictors = {PredictorGeometry(), btbGeometry(128)};
  return S;
}

SweepSpec javaRunSpec() {
  SweepSpec S;
  S.Name = "sweeptest_java";
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

/// Runs the spec shard-by-shard through the executor and merges.
std::vector<PerfCounters> runSharded(SweepExecutor &Executor,
                                     const SweepSpec &Spec, unsigned Shards) {
  std::vector<ShardJob> Jobs = decomposeSweep(Spec, Shards);
  std::vector<std::vector<PerfCounters>> Slices;
  for (const ShardJob &J : Jobs)
    Slices.push_back(
        Executor.runSlice(Spec, J.Workload, J.MemberBegin, J.MemberEnd));
  std::vector<PerfCounters> Cells;
  std::string Error;
  EXPECT_TRUE(mergeShardResults(Spec, Jobs, Slices, Cells, Error)) << Error;
  return Cells;
}

} // namespace

//===--- text format ------------------------------------------------------===//

TEST(SweepSpec, PrintParseRoundTrip) {
  SweepSpec S = fullSpec();
  std::string Text = printSweepSpec(S);
  SweepSpec P;
  std::string Error;
  ASSERT_TRUE(parseSweepSpec(Text, P, Error)) << Error;
  // print -> parse -> print is the identity (field-exact round trip).
  EXPECT_EQ(Text, printSweepSpec(P));
  ASSERT_EQ(S.Variants.size(), P.Variants.size());
  for (size_t I = 0; I < S.Variants.size(); ++I) {
    EXPECT_EQ(S.Variants[I].Name, P.Variants[I].Name);
    EXPECT_EQ(S.Variants[I].Config.Kind, P.Variants[I].Config.Kind);
    EXPECT_EQ(S.Variants[I].Config.Seed, P.Variants[I].Config.Seed);
    EXPECT_EQ(S.Variants[I].SuperCount, P.Variants[I].SuperCount);
    EXPECT_EQ(S.Variants[I].ReplicaCount, P.Variants[I].ReplicaCount);
    EXPECT_EQ(S.Variants[I].ReplicateSupers, P.Variants[I].ReplicateSupers);
  }
  ASSERT_EQ(S.Predictors.size(), P.Predictors.size());
  EXPECT_EQ(P.Predictors[1].Btb.Entries, 256u);
  EXPECT_TRUE(P.Predictors[1].Btb.TwoBitCounters);
  EXPECT_EQ(P.Predictors[2].TwoLevel.TableEntries, 1024u);
  EXPECT_EQ(P.Predictors[3].CaseBlockEntries, 2048u);
  EXPECT_EQ(P.ChunkEvents, size_t{1} << 14);
  EXPECT_EQ(P.Threads, 7u);
  EXPECT_EQ(P.Cpus, S.Cpus);
  EXPECT_EQ(P.Benchmarks, S.Benchmarks);
}

TEST(SweepSpec, ThreadsFieldCompatAndValidation) {
  // A PR-3-era spec (no `threads` declaration) must parse as the
  // serial default, not fail.
  std::string Modern = printSweepSpec(forthRunSpec());
  size_t Pos = Modern.find("threads 1\n");
  ASSERT_NE(Pos, std::string::npos);
  std::string Legacy = Modern;
  Legacy.erase(Pos, std::strlen("threads 1\n"));
  SweepSpec P;
  std::string Error;
  ASSERT_TRUE(parseSweepSpec(Legacy, P, Error)) << Error;
  EXPECT_EQ(P.Threads, 1u);

  // Malformed values are rejected with a diagnostic, never clamped.
  for (const char *Bad : {"threads -2\n", "threads x\n",
                          "threads 2000\n", "threads 1 1\n"}) {
    std::string Broken = Modern;
    Broken.replace(Pos, std::strlen("threads 1\n"), Bad);
    EXPECT_FALSE(parseSweepSpec(Broken, P, Error)) << Bad;
    EXPECT_FALSE(Error.empty());
  }

  // threads 0 is the auto-detect request (resolved to the host's core
  // count at executor level), valid in the text and round-tripped.
  std::string Auto = Modern;
  Auto.replace(Pos, std::strlen("threads 1\n"), "threads 0\n");
  ASSERT_TRUE(parseSweepSpec(Auto, P, Error)) << Error;
  EXPECT_EQ(P.Threads, 0u);
  EXPECT_NE(printSweepSpec(P).find("threads 0\n"), std::string::npos);
  EXPECT_GE(resolveGangThreads(0), 1u);
  EXPECT_EQ(resolveGangThreads(7), 7u);

  // validateSweepSpec applies the same bound to programmatic specs.
  SweepSpec Prog = forthRunSpec();
  Prog.Threads = 0;
  EXPECT_TRUE(validateSweepSpec(Prog, Error)) << Error;
  Prog.Threads = 4096;
  EXPECT_FALSE(validateSweepSpec(Prog, Error));
  Prog.Threads = 8;
  EXPECT_TRUE(validateSweepSpec(Prog, Error)) << Error;
}

TEST(SweepSpec, LegacyScheduleFieldParsesAndSelectsNothing) {
  // The printer no longer emits the `schedule` declaration, but spec
  // files that carry one still load — `static` and `dynamic` alike —
  // and run the one pooled scheduler: cells bit-identical to the
  // serial sweep at threads 1 and 3. Malformed values still fail.
  std::string Modern = printSweepSpec(forthRunSpec());
  EXPECT_EQ(Modern.find("schedule"), std::string::npos);
  size_t Pos = Modern.find("decode ");
  ASSERT_NE(Pos, std::string::npos);
  SweepExecutor Executor;
  std::vector<PerfCounters> Reference;
  Executor.runAll(forthRunSpec(), 1, Reference);
  SweepSpec P;
  std::string Error;
  for (const char *Decl : {"schedule static\n", "schedule dynamic\n"}) {
    std::string Legacy = Modern;
    Legacy.insert(Pos, Decl);
    ASSERT_TRUE(parseSweepSpec(Legacy, P, Error)) << Decl << Error;
    EXPECT_EQ(printSweepSpec(P), Modern) << Decl;
    for (unsigned Threads : {1u, 3u}) {
      P.Threads = Threads;
      std::vector<PerfCounters> Cells;
      Executor.runAll(P, 1, Cells);
      expectCellsEqual(Reference, Cells);
    }
  }

  for (const char *Bad : {"schedule bogus\n", "schedule static extra\n",
                          "schedule\n"}) {
    std::string Broken = Modern;
    Broken.insert(Pos, Bad);
    EXPECT_FALSE(parseSweepSpec(Broken, P, Error)) << Bad;
    EXPECT_FALSE(Error.empty());
  }
  GangSchedule S;
  EXPECT_TRUE(gangScheduleFromId("static", S));
  EXPECT_TRUE(gangScheduleFromId("dynamic", S));
  EXPECT_FALSE(gangScheduleFromId("Dynamic", S));
}

TEST(SweepSpec, DecodeFieldCompatAndRoundTrip) {
  // A pre-streaming spec (no `decode` declaration) must parse as Auto,
  // not fail.
  std::string Modern = printSweepSpec(forthRunSpec());
  size_t Pos = Modern.find("decode auto\n");
  ASSERT_NE(Pos, std::string::npos);
  std::string Legacy = Modern;
  Legacy.erase(Pos, std::strlen("decode auto\n"));
  SweepSpec P;
  std::string Error;
  ASSERT_TRUE(parseSweepSpec(Legacy, P, Error)) << Error;
  EXPECT_EQ(P.Decode, TraceDecodeMode::Auto);

  // Both explicit modes round-trip exactly.
  for (const char *Mode : {"materialize", "stream"}) {
    std::string Explicit = Modern;
    Explicit.replace(Pos, std::strlen("decode auto\n"),
                     std::string("decode ") + Mode + "\n");
    ASSERT_TRUE(parseSweepSpec(Explicit, P, Error)) << Error;
    EXPECT_EQ(traceDecodeModeId(P.Decode), std::string(Mode));
    EXPECT_NE(printSweepSpec(P).find(std::string("decode ") + Mode + "\n"),
              std::string::npos);
  }

  // Malformed values are rejected with a diagnostic.
  for (const char *Bad : {"decode bogus\n", "decode stream extra\n",
                          "decode\n"}) {
    std::string Broken = Modern;
    Broken.replace(Pos, std::strlen("decode auto\n"), Bad);
    EXPECT_FALSE(parseSweepSpec(Broken, P, Error)) << Bad;
    EXPECT_FALSE(Error.empty());
  }

  // The id helpers are the stable spec/CLI tokens.
  TraceDecodeMode M;
  EXPECT_TRUE(traceDecodeModeFromId("materialize", M));
  EXPECT_EQ(M, TraceDecodeMode::Materialize);
  EXPECT_TRUE(traceDecodeModeFromId("stream", M));
  EXPECT_EQ(M, TraceDecodeMode::Stream);
  EXPECT_TRUE(traceDecodeModeFromId("auto", M));
  EXPECT_EQ(M, TraceDecodeMode::Auto);
  EXPECT_FALSE(traceDecodeModeFromId("Stream", M));
  EXPECT_FALSE(traceDecodeModeFromId("", M));
}

TEST(SweepSpec, ParseRejectsMalformedSpecs) {
  SweepSpec P;
  std::string Error;
  EXPECT_FALSE(parseSweepSpec("", P, Error));
  EXPECT_FALSE(parseSweepSpec("not-a-spec\n", P, Error));

  std::string Good = printSweepSpec(forthRunSpec());
  // Truncation (no 'end') is a parse error, not a shorter sweep.
  std::string Truncated = Good.substr(0, Good.size() - 4);
  EXPECT_FALSE(parseSweepSpec(Truncated, P, Error));
  EXPECT_NE(Error.find("end"), std::string::npos);

  std::string BadKind = Good;
  size_t Pos = BadKind.find("kind=threaded");
  BadKind.replace(Pos, std::strlen("kind=threaded"), "kind=bogus");
  EXPECT_FALSE(parseSweepSpec(BadKind, P, Error));
  EXPECT_NE(Error.find("bogus"), std::string::npos);

  std::string BadCpu = Good;
  Pos = BadCpu.find("cpu p4northwood");
  BadCpu.replace(Pos, std::strlen("cpu p4northwood"), "cpu pdp11");
  EXPECT_FALSE(parseSweepSpec(BadCpu, P, Error));
  EXPECT_NE(Error.find("pdp11"), std::string::npos);

  // Java sweeps reject non-default predictor geometries, and more than
  // one predictor entry (the java executor assumes one per variant).
  SweepSpec Java = javaRunSpec();
  Java.Predictors = {btbGeometry(256)};
  EXPECT_FALSE(validateSweepSpec(Java, Error));
  Java.Predictors = {PredictorGeometry(), PredictorGeometry()};
  EXPECT_FALSE(validateSweepSpec(Java, Error));
}

TEST(SweepSpec, ResultLineRoundTrip) {
  PerfCounters C;
  C.Cycles = 0xDEADBEEF12345ULL;
  C.Instructions = 987654321;
  C.VMInstructions = 123456789;
  C.IndirectBranches = 42;
  C.Mispredictions = 7;
  C.ICacheMisses = 99;
  C.MissCycles = 2673;
  C.CodeBytes = 4096;
  C.DispatchCount = 41;
  std::string Line = sweepResultLine("mysweep", 3, 17, C);
  std::string Name;
  size_t W = 0, M = 0;
  PerfCounters Parsed;
  ASSERT_TRUE(parseSweepResultLine(Line, Name, W, M, Parsed));
  EXPECT_EQ(Name, "mysweep");
  EXPECT_EQ(W, 3u);
  EXPECT_EQ(M, 17u);
  EXPECT_EQ(0, std::memcmp(&C, &Parsed, sizeof(PerfCounters)));

  EXPECT_FALSE(parseSweepResultLine("[timing] bench=x", Name, W, M, Parsed));
  EXPECT_FALSE(parseSweepResultLine("[result] sweep=x workload=0", Name, W,
                                    M, Parsed));
}

//===--- decomposition ----------------------------------------------------===//

TEST(SweepSpec, DecompositionCoversEveryCellExactlyOnce) {
  SweepSpec S = fullSpec(); // 2 workloads x 36 members
  size_t M = S.membersPerWorkload();
  for (unsigned Shards : {1u, 2u, 3u, 4u, 7u, 16u, 1000u}) {
    std::vector<ShardJob> Jobs = decomposeSweep(S, Shards);
    ASSERT_GE(Jobs.size(), std::min<size_t>(Shards, S.Benchmarks.size()));
    std::vector<int> Covered(S.numCells(), 0);
    for (const ShardJob &J : Jobs) {
      ASSERT_LT(J.Workload, S.Benchmarks.size());
      ASSERT_LE(J.MemberEnd, M);
      ASSERT_LT(J.MemberBegin, J.MemberEnd); // no empty jobs
      for (size_t I = J.MemberBegin; I < J.MemberEnd; ++I)
        ++Covered[S.cellIndex(J.Workload, I)];
    }
    for (size_t Cell = 0; Cell < Covered.size(); ++Cell)
      EXPECT_EQ(1, Covered[Cell]) << "shards=" << Shards;
  }
  // Trace-affine: with fewer shards than workloads, one job per
  // workload.
  EXPECT_EQ(decomposeSweep(S, 1).size(), S.Benchmarks.size());
}

TEST(SweepSpec, MergeRejectsBadCoverage) {
  SweepSpec S = forthRunSpec();
  std::vector<ShardJob> Jobs = decomposeSweep(S, 4);
  std::vector<std::vector<PerfCounters>> Slices;
  for (const ShardJob &J : Jobs)
    Slices.emplace_back(J.MemberEnd - J.MemberBegin);
  std::vector<PerfCounters> Cells;
  std::string Error;
  ASSERT_TRUE(mergeShardResults(S, Jobs, Slices, Cells, Error)) << Error;

  // Wrong slice size.
  Slices[0].pop_back();
  EXPECT_FALSE(mergeShardResults(S, Jobs, Slices, Cells, Error));
  Slices[0].emplace_back();

  // A missing job leaves cells uncovered.
  std::vector<ShardJob> Short(Jobs.begin(), Jobs.end() - 1);
  std::vector<std::vector<PerfCounters>> ShortSlices(Slices.begin(),
                                                     Slices.end() - 1);
  EXPECT_FALSE(mergeShardResults(S, Short, ShortSlices, Cells, Error));

  // Overlapping jobs cover a cell twice.
  std::vector<ShardJob> Dup = Jobs;
  Dup.push_back(Jobs[0]);
  std::vector<std::vector<PerfCounters>> DupSlices = Slices;
  DupSlices.push_back(Slices[0]);
  EXPECT_FALSE(mergeShardResults(S, Dup, DupSlices, Cells, Error));
}

//===--- shard/merge bit-identity -----------------------------------------===//

TEST(SweepSpec, ShardedForthSweepIsBitIdenticalToInProcess) {
  SweepSpec S = forthRunSpec();
  SweepExecutor Executor;
  std::vector<PerfCounters> Full;
  Executor.runAll(S, 1, Full);
  ASSERT_EQ(Full.size(), S.numCells());
  for (unsigned Shards : {3u, 5u})
    expectCellsEqual(Full, runSharded(Executor, S, Shards));
}

TEST(SweepSpec, ShardedJavaSweepIsBitIdenticalToInProcess) {
  SweepSpec S = javaRunSpec();
  SweepExecutor Executor;
  std::vector<PerfCounters> Full;
  Executor.runAll(S, 1, Full);
  ASSERT_EQ(Full.size(), S.numCells());
  for (unsigned Shards : {3u, 4u})
    expectCellsEqual(Full, runSharded(Executor, S, Shards));
}

TEST(SweepSpec, ThreadedExecutionIsBitIdenticalBothSuites) {
  // The spec-level threads knob: runAll and every shard slice replay
  // their gangs on the shared-tile worker pool (work-stealing member
  // replay, overflowing members restarting in place) bit-identical to
  // the serial spec, including the two-level (shards x threads) shape and
  // the auto-detected (threads 0) worker count.
  for (bool Java : {false, true}) {
    SweepSpec Serial = Java ? javaRunSpec() : forthRunSpec();
    SweepExecutor Executor;
    std::vector<PerfCounters> Reference;
    Executor.runAll(Serial, 1, Reference);
    ASSERT_EQ(Reference.size(), Serial.numCells());

    // The pool must not move a single bit, in-process or sharded, and
    // its accounting must cover the work.
    SweepSpec Threaded = Serial;
    Threaded.Threads = 3;
    std::vector<PerfCounters> Cells;
    SweepRunStats Stats = Executor.runAll(Threaded, 1, Cells);
    expectCellsEqual(Reference, Cells);
    EXPECT_FALSE(Stats.Load.Workers.empty());
    uint64_t Events = 0;
    for (const GangReplayer::Stats::Worker &W : Stats.Load.Workers)
      Events += W.EventsReplayed;
    EXPECT_GT(Events, 0u);
    // 2 shards x 3 threads: slices of a threaded spec stay exact.
    expectCellsEqual(Reference, runSharded(Executor, Threaded, 2));

    // threads 0 auto-detects at executor level and stays bit-exact.
    SweepSpec Auto = Threaded;
    Auto.Threads = 0;
    std::vector<PerfCounters> AutoCells;
    Executor.runAll(Auto, 1, AutoCells);
    expectCellsEqual(Reference, AutoCells);
  }
}

//===--- trace-cache hardening --------------------------------------------===//

namespace {

/// A deterministic little trace (with quicken records) for file tests.
DispatchTrace makeTrace() {
  DispatchTrace T;
  for (uint32_t I = 0; I < 1000; ++I)
    T.append(I % 7, (I + 1) % 7);
  VMInstr Q;
  Q.Op = 3;
  Q.A = -1;
  Q.B = 99;
  T.appendQuicken(5, Q);
  return T;
}

class TraceFileTest : public ::testing::Test {
protected:
  void SetUp() override {
    std::snprintf(Dir, sizeof(Dir), "/tmp/vmib-trace-test-XXXXXX");
    ASSERT_NE(nullptr, ::mkdtemp(Dir));
    Path = std::string(Dir) + "/t.vmibtrace";
    Trace = makeTrace();
    ASSERT_TRUE(Trace.save(Path, /*WorkloadHash=*/0x1234));
  }
  void TearDown() override {
    std::remove(Path.c_str());
    ::rmdir(Dir);
  }

  /// Overwrites Bytes at Offset (negative: from the end).
  void corrupt(long Offset, const void *Bytes, size_t N) {
    std::FILE *F = std::fopen(Path.c_str(), "r+b");
    ASSERT_NE(nullptr, F);
    std::fseek(F, Offset, Offset < 0 ? SEEK_END : SEEK_SET);
    std::fwrite(Bytes, 1, N, F);
    std::fclose(F);
  }

  void truncateTo(long Bytes) {
    ASSERT_EQ(0, ::truncate(Path.c_str(), Bytes));
  }

  /// Loads and expects failure; checks the diagnostic mentions
  /// \p Needle and that no partial state leaks.
  void expectLoadFailure(const char *Needle) {
    DispatchTrace T;
    // Pre-fill so a failed load that "forgot" to clear is caught.
    T.append(1, 2);
    std::string Diag;
    EXPECT_FALSE(T.load(Path, 0x1234, &Diag));
    EXPECT_NE(Diag.find(Needle), std::string::npos) << "diag: " << Diag;
    EXPECT_EQ(T.numEvents(), 0u) << "partial state after failed load";
    EXPECT_EQ(T.numQuickens(), 0u);
  }

  char Dir[64];
  std::string Path;
  DispatchTrace Trace;
};

} // namespace

TEST_F(TraceFileTest, RoundTripLoads) {
  DispatchTrace T;
  std::string Diag;
  ASSERT_TRUE(T.load(Path, 0x1234, &Diag)) << Diag;
  EXPECT_EQ(T.numEvents(), Trace.numEvents());
  EXPECT_EQ(T.numQuickens(), Trace.numQuickens());
  EXPECT_EQ(T.contentHash(), Trace.contentHash());
}

TEST_F(TraceFileTest, MissingFileFailsCleanly) {
  DispatchTrace T;
  std::string Diag;
  EXPECT_FALSE(T.load(Path + ".nope", 0x1234, &Diag));
  EXPECT_NE(Diag.find("cannot open"), std::string::npos);
}

TEST_F(TraceFileTest, BadMagicRejected) {
  uint64_t Garbage = 0x4241441142414411ULL;
  corrupt(0, &Garbage, sizeof(Garbage));
  expectLoadFailure("bad magic");
}

TEST_F(TraceFileTest, WrongVersionRejected) {
  uint64_t V = 999;
  corrupt(8, &V, sizeof(V));
  expectLoadFailure("version");
}

TEST_F(TraceFileTest, WorkloadHashMismatchRejected) {
  DispatchTrace T;
  std::string Diag;
  EXPECT_FALSE(T.load(Path, /*ExpectedWorkloadHash=*/0x9999, &Diag));
  EXPECT_NE(Diag.find("workload hash"), std::string::npos);
  EXPECT_EQ(T.numEvents(), 0u);
}

TEST_F(TraceFileTest, TruncationRejected) {
  truncateTo(40); // shorter than the 48-byte header
  expectLoadFailure("truncated");
}

TEST_F(TraceFileTest, SizeMismatchRejected) {
  // Truncating mid-payload is caught by the frame directory's byte
  // claim indexing past EOF — before any payload byte is read.
  truncateTo(48 + 8 * 100); // header + less payload than it claims
  expectLoadFailure("corrupt directory");
}

TEST_F(TraceFileTest, TrailingGarbageRejected) {
  std::FILE *F = std::fopen(Path.c_str(), "ab");
  ASSERT_NE(nullptr, F);
  uint64_t Extra = 7;
  std::fwrite(&Extra, sizeof(Extra), 1, F);
  std::fclose(F);
  expectLoadFailure("size mismatch");
}

TEST_F(TraceFileTest, BitCorruptionRejected) {
  unsigned char Flip = 0xFF;
  corrupt(-5, &Flip, 1); // inside the last quicken record
  // Caught by the quicken block checksum; the diagnostic names bit
  // corruption.
  expectLoadFailure("bit corruption");
}

// Many writers — threads of this process AND forked child processes —
// race DispatchTrace::save on ONE canonical path while readers load it
// continuously. The temp-name + rename discipline must make every load
// observe a complete file (same content hash), and no writer may leave
// a .tmp. file behind. This is the exact shape of a shared
// VMIB_TRACE_CACHE under an orchestrated sweep: N workers warm the same
// cold trace at once.
TEST_F(TraceFileTest, ConcurrentWritersNeverExposePartialFiles) {
  constexpr int WriterThreads = 4;
  constexpr int SavesPerWriter = 20;
  constexpr int WriterProcesses = 3;

  std::atomic<bool> Stop{false};
  std::atomic<int> WriteFailures{0};

  std::vector<std::thread> Writers;
  for (int W = 0; W < WriterThreads; ++W)
    Writers.emplace_back([&] {
      for (int I = 0; I < SavesPerWriter; ++I)
        if (!Trace.save(Path, 0x1234))
          WriteFailures.fetch_add(1);
    });

  std::vector<pid_t> Children;
  for (int P = 0; P < WriterProcesses; ++P) {
    pid_t Pid = ::fork();
    ASSERT_GE(Pid, 0);
    if (Pid == 0) {
      // Child: hammer saves, exit 0 only if every one succeeded.
      // _exit, not exit — don't run gtest atexit handlers twice.
      for (int I = 0; I < SavesPerWriter; ++I)
        if (!Trace.save(Path, 0x1234))
          ::_exit(1);
      ::_exit(0);
    }
    Children.push_back(Pid);
  }

  // Reader: every load during the storm must round-trip a COMPLETE
  // trace — rename atomicity means there is no moment where the
  // canonical path holds a prefix.
  std::thread Reader([&] {
    while (!Stop.load()) {
      DispatchTrace T;
      std::string Diag;
      ASSERT_TRUE(T.load(Path, 0x1234, &Diag)) << Diag;
      ASSERT_EQ(T.contentHash(), Trace.contentHash());
    }
  });

  for (std::thread &T : Writers)
    T.join();
  for (pid_t Pid : Children) {
    int Status = 0;
    ASSERT_EQ(Pid, ::waitpid(Pid, &Status, 0));
    EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0)
        << "writer process failed";
  }
  Stop.store(true);
  Reader.join();
  EXPECT_EQ(WriteFailures.load(), 0);

  // No temp droppings: every writer renamed (or cleaned up) its file.
  DIR *D = ::opendir(Dir);
  ASSERT_NE(nullptr, D);
  while (struct dirent *E = ::readdir(D))
    EXPECT_EQ(nullptr, std::strstr(E->d_name, ".tmp."))
        << "leftover temp file: " << E->d_name;
  ::closedir(D);

  DispatchTrace Final;
  std::string Diag;
  ASSERT_TRUE(Final.load(Path, 0x1234, &Diag)) << Diag;
  EXPECT_EQ(Final.contentHash(), Trace.contentHash());
}

//===--- workload meta / trained-profile sidecars -------------------------===//

namespace {

void expectSameCounters(const PerfCounters &A, const PerfCounters &B,
                        const char *What) {
  EXPECT_EQ(0, std::memcmp(&A, &B, sizeof(PerfCounters))) << What;
}

} // namespace

/// The meta-sidecar protocol on one lab over \p Bench: a cold start
/// persists trace and sidecar, a warm start skips every reference run,
/// a deleted trace recaptures without one, a sidecar bound to another
/// program is rejected, and a stale hash is adopted from the capture.
/// \p Warm populates a lab the way a sweep worker does (\p Cold says
/// whether it is the first lab); \p Program is the compiled program
/// the sidecar is bound to. Replays are one-member plain gangs.
template <typename LabT, typename WarmFn, typename ProgramFn>
void expectSidecarProtocol(const std::string &Suite, const std::string &Bench,
                           uint64_t ColdReferenceRuns, WarmFn Warm,
                           ProgramFn Program) {
  const std::string Key = workloadKey(Suite, Bench);
  SCOPED_TRACE(Key);
  CpuConfig P4 = makePentium4Northwood();
  VariantSpec Threaded = makeVariant(DispatchStrategy::Threaded);
  auto Replay = [&](LabT &Lab) {
    return Lab.replayGang(Bench, {Threaded}, P4)[0];
  };

  // Cold lab: pays the reference interpretations once and persists
  // trace and meta sidecar.
  PerfCounters Baseline;
  {
    LabT Cold;
    Warm(Cold, /*Cold=*/true);
    EXPECT_GE(Cold.referenceRunsPerformed(), ColdReferenceRuns);
    Baseline = Replay(Cold);
  }
  struct stat St;
  ASSERT_EQ(0, ::stat(workloadMetaPath(Key).c_str(), &St));
  ASSERT_EQ(0, ::stat(DispatchTrace::cachePathFor(Key).c_str(), &St));

  // Warm worker: every interpretation is skipped — trace loads from
  // the cache, reference numbers come from the meta sidecars.
  // Counters stay bit-identical.
  {
    LabT WarmLab;
    Warm(WarmLab, /*Cold=*/false);
    EXPECT_EQ(WarmLab.referenceRunsPerformed(), 0u);
    expectSameCounters(Baseline, Replay(WarmLab),
                       "warm replay off cached trace + sidecars");
  }

  // Delete the trace but keep the sidecar: the lab re-captures, and
  // the sidecar hash still stands in for the reference run (the
  // capture verifies against it), so the worker pays ONE
  // interpretation instead of two.
  ASSERT_EQ(0, std::remove(DispatchTrace::cachePathFor(Key).c_str()));
  {
    LabT Recapture;
    (void)Recapture.trace(Bench);
    EXPECT_EQ(Recapture.referenceRunsPerformed(), 0u)
        << "sidecar should have replaced the reference run";
    expectSameCounters(Baseline, Replay(Recapture),
                       "replay off re-captured trace");
  }

  // A *changed workload* (sidecar bound to a different compiled
  // program) must reject the sidecar outright and run the real
  // reference interpretation — the structural guard against a
  // stale-but-mutually-consistent (sidecar, trace) pair.
  uint64_t Binding;
  {
    LabT BindingProbe;
    Binding = programBindingHash(Program(BindingProbe));
  }
  WorkloadMeta Real;
  ASSERT_TRUE(loadWorkloadMeta(Key, Binding, Real));
  EXPECT_FALSE(loadWorkloadMeta(Key, Binding + 1, Real));
  ASSERT_TRUE(saveWorkloadMeta(Key, Binding + 1, Real));
  {
    LabT ChangedWorkload;
    (void)ChangedWorkload.referenceHash(Bench);
    EXPECT_GE(ChangedWorkload.referenceRunsPerformed(), 1u)
        << "wrong-binding sidecar must not replace the reference run";
    expectSameCounters(Baseline, Replay(ChangedWorkload),
                       "replay after wrong-binding sidecar rejection");
  }

  // A *stale* (right binding, wrong hash) sidecar must degrade to a
  // refreshed capture, never to a divergence abort: the capture run is
  // adopted as the authoritative reference and the sidecar rewritten.
  ASSERT_EQ(0, std::remove(DispatchTrace::cachePathFor(Key).c_str()));
  WorkloadMeta Stale;
  Stale.ReferenceHash = 0xdeadbeef;
  Stale.ReferenceSteps = 1;
  ASSERT_TRUE(saveWorkloadMeta(Key, Binding, Stale));
  {
    LabT Refreshed;
    expectSameCounters(Baseline, Replay(Refreshed),
                       "replay after stale-sidecar refresh");
  }
  WorkloadMeta After;
  ASSERT_TRUE(loadWorkloadMeta(Key, Binding, After));
  EXPECT_NE(After.ReferenceHash, 0xdeadbeefull);
}

TEST(WorkloadCacheSidecar, SkipsColdStartAndSurvivesTraceDeletion) {
  char Base[64];
  std::snprintf(Base, sizeof(Base), "/tmp/vmib-sidecar-test-XXXXXX");
  ASSERT_NE(nullptr, ::mkdtemp(Base));
  ASSERT_EQ(0, ::setenv("VMIB_TRACE_CACHE", Base, 1));
  CpuConfig P4 = makePentium4Northwood();

  // Forth warms like a sweep worker: trace plus the training profile,
  // which a warm lab reads from its persisted sidecar.
  expectSidecarProtocol<ForthLab>(
      "forth", "gray", /*gray + brainless*/ 2,
      [&](ForthLab &Lab, bool Cold) {
        Lab.warmup("gray", P4);
        EXPECT_EQ(Lab.trainingRunsPerformed(), Cold ? 1u : 0u);
      },
      [](ForthLab &Lab) -> const VMProgram & {
        return Lab.unit("gray").Program;
      });
  // Java loads only the trace: the plain variant needs no suite
  // profiles, so this half interprets nothing but jess.
  expectSidecarProtocol<JavaLab>(
      "java", "jess", 1, [](JavaLab &Lab, bool) { (void)Lab.trace("jess"); },
      [](JavaLab &Lab) -> const VMProgram & {
        return Lab.program("jess").Program;
      });

  ::unsetenv("VMIB_TRACE_CACHE");
  std::string Cleanup = "rm -rf " + std::string(Base);
  ASSERT_EQ(0, std::system(Cleanup.c_str()));
}

TEST(WorkloadCacheSidecar, CorruptSidecarsAreRejectedNotTrusted) {
  char Base[64];
  std::snprintf(Base, sizeof(Base), "/tmp/vmib-sidecar-test-XXXXXX");
  ASSERT_NE(nullptr, ::mkdtemp(Base));
  ASSERT_EQ(0, ::setenv("VMIB_TRACE_CACHE", Base, 1));

  WorkloadMeta Meta;
  Meta.ReferenceHash = 0x1111;
  Meta.ReferenceSteps = 42;
  ASSERT_TRUE(saveWorkloadMeta("forth-x", /*BindingHash=*/0x99, Meta));
  WorkloadMeta Back;
  ASSERT_TRUE(loadWorkloadMeta("forth-x", 0x99, Back));
  EXPECT_EQ(Back.ReferenceHash, 0x1111u);
  EXPECT_EQ(Back.ReferenceSteps, 42u);
  // Bound to a different compiled program: rejected.
  EXPECT_FALSE(loadWorkloadMeta("forth-x", 0x9A, Back));

  // Any byte flip fails the checksum; the out-param stays untouched.
  std::string Path = workloadMetaPath("forth-x");
  std::FILE *F = std::fopen(Path.c_str(), "r+b");
  ASSERT_NE(nullptr, F);
  std::fseek(F, 25, SEEK_SET);
  unsigned char Junk = 0xA5;
  std::fwrite(&Junk, 1, 1, F);
  std::fclose(F);
  WorkloadMeta Untouched;
  Untouched.ReferenceHash = 7;
  EXPECT_FALSE(loadWorkloadMeta("forth-x", 0x99, Untouched));
  EXPECT_EQ(Untouched.ReferenceHash, 7u);

  // Profiles: round-trip exactly, reject a wrong bound hash and any
  // payload corruption.
  SequenceProfile P;
  P.OpcodeWeight = {5, 0, 9};
  P.SequenceWeight[{1, 2}] = 11;
  P.SequenceWeight[{2, 2, 0}] = 3;
  ASSERT_TRUE(saveTrainedProfile("forth-prof", 0x77, P));
  SequenceProfile Q;
  ASSERT_TRUE(loadTrainedProfile("forth-prof", 0x77, Q));
  EXPECT_EQ(Q.OpcodeWeight, P.OpcodeWeight);
  EXPECT_EQ(Q.SequenceWeight, P.SequenceWeight);
  EXPECT_FALSE(loadTrainedProfile("forth-prof", 0x78, Q));
  std::string ProfPath = std::string(Base) + "/forth-prof.vmibprofile";
  F = std::fopen(ProfPath.c_str(), "r+b");
  ASSERT_NE(nullptr, F);
  std::fseek(F, -3, SEEK_END);
  std::fwrite(&Junk, 1, 1, F);
  std::fclose(F);
  EXPECT_FALSE(loadTrainedProfile("forth-prof", 0x77, Q));

  ::unsetenv("VMIB_TRACE_CACHE");
  std::string Cleanup = "rm -rf " + std::string(Base);
  ASSERT_EQ(0, std::system(Cleanup.c_str()));
}

TEST(TraceCacheDir, AutoCreatedWhenMissing) {
  char Base[64];
  std::snprintf(Base, sizeof(Base), "/tmp/vmib-cache-test-XXXXXX");
  ASSERT_NE(nullptr, ::mkdtemp(Base));
  std::string Nested = std::string(Base) + "/deep/cache";
  ASSERT_EQ(0, ::setenv("VMIB_TRACE_CACHE", Nested.c_str(), 1));
  std::string Path = DispatchTrace::cachePathFor("forth-x");
  ::unsetenv("VMIB_TRACE_CACHE");
  EXPECT_EQ(Path, Nested + "/forth-x.vmibtrace");
  struct stat St;
  EXPECT_EQ(0, ::stat(Nested.c_str(), &St));
  EXPECT_TRUE(S_ISDIR(St.st_mode));
  ::rmdir(Nested.c_str());
  ::rmdir((std::string(Base) + "/deep").c_str());
  ::rmdir(Base);
}

TEST(TraceCacheDir, SaveLoadThroughAutoCreatedCache) {
  char Base[64];
  std::snprintf(Base, sizeof(Base), "/tmp/vmib-cache-test-XXXXXX");
  ASSERT_NE(nullptr, ::mkdtemp(Base));
  std::string Nested = std::string(Base) + "/sub";
  ASSERT_EQ(0, ::setenv("VMIB_TRACE_CACHE", Nested.c_str(), 1));
  DispatchTrace T = makeTrace();
  std::string Path = DispatchTrace::cachePathFor("java-y");
  ASSERT_FALSE(Path.empty());
  EXPECT_TRUE(T.save(Path, 77));
  DispatchTrace Back;
  std::string Diag;
  EXPECT_TRUE(Back.load(Path, 77, &Diag)) << Diag;
  EXPECT_EQ(Back.contentHash(), T.contentHash());
  ::unsetenv("VMIB_TRACE_CACHE");
  std::remove(Path.c_str());
  ::rmdir(Nested.c_str());
  ::rmdir(Base);
}
