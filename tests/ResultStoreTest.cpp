//===- tests/ResultStoreTest.cpp - Durable cell-cache contracts -----------===//
///
/// The crash-safety contracts of harness/ResultStore:
///
///  - key derivation: every configuration axis that can change a cell's
///    counters changes its key; cosmetic/invariant knobs (variant name,
///    chunking, threads, legacy schedule line) do not;
///  - round trip: flushed cells reload bit-identically in a new store;
///  - corruption: a torn segment tail is salvaged record-by-record, a
///    bad header quarantines the whole segment, and nothing is ever
///    deleted — the damaged file survives under quarantine/;
///  - injected fs faults (torn / nospace / renamefail) never corrupt
///    the store: failed flushes keep records buffered and a later
///    flush retries;
///  - kill-anywhere: SIGKILL mid-segment-write (pre-fsync, the worst
///    instant) loses only the uncommitted flush, never a committed one
///    and never a partial record;
///  - the in-use lock makes a live store invisible to --cache-gc;
///  - the executor's warm-store fast path: a fully stored sweep runs no
///    warmup, loads no trace and replays nothing, and a half-stored one
///    replays exactly its missing members, bit-identically.
///
//===----------------------------------------------------------------------===//

#include "harness/CacheGC.h"
#include "harness/ResultStore.h"
#include "harness/SweepExecutor.h"
#include "harness/SweepSpec.h"
#include "harness/WorkloadCache.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <set>
#include <string>
#include <sys/stat.h>
#include <unistd.h>
#include <utime.h>
#include <vector>

using namespace vmib;

namespace {

/// Removes a test directory tree (depth 2: the store root plus its
/// quarantine/ subdirectory); only ever pointed at paths this fixture
/// created under /tmp.
void removeTree(const std::string &Dir) {
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return;
  while (struct dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    if (Name == "." || Name == "..")
      continue;
    std::string Path = Dir + "/" + Name;
    struct stat St;
    if (::stat(Path.c_str(), &St) == 0 && S_ISDIR(St.st_mode))
      removeTree(Path);
    else
      ::unlink(Path.c_str());
  }
  ::closedir(D);
  ::rmdir(Dir.c_str());
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

std::string onlySegmentPath(const std::string &Dir) {
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return std::string();
  std::string Found;
  while (struct dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    const std::string Suffix = ".vmibstore";
    if (Name.size() > Suffix.size() &&
        Name.compare(Name.size() - Suffix.size(), Suffix.size(), Suffix) == 0)
      Found = Dir + "/" + Name;
  }
  ::closedir(D);
  return Found;
}

std::vector<unsigned char> readBytes(const std::string &Path) {
  std::vector<unsigned char> Bytes;
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return Bytes;
  std::fseek(F, 0, SEEK_END);
  Bytes.resize(static_cast<size_t>(std::ftell(F)));
  std::fseek(F, 0, SEEK_SET);
  if (std::fread(Bytes.data(), 1, Bytes.size(), F) != Bytes.size())
    Bytes.clear();
  std::fclose(F);
  return Bytes;
}

bool writeBytes(const std::string &Path, const std::vector<unsigned char> &B) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  bool Ok = std::fwrite(B.data(), 1, B.size(), F) == B.size();
  return std::fclose(F) == 0 && Ok;
}

/// A small two-axis spec exercising every key ingredient: two CPUs,
/// two variants with different strategy parameters, two predictor
/// geometries.
SweepSpec makeSpec() {
  SweepSpec Spec;
  Spec.Name = "store-test";
  Spec.Suite = "forth";
  Spec.Benchmarks = {"alpha", "beta"};
  Spec.Cpus = {"p4northwood", "celeron800"};
  VariantSpec A;
  A.Name = "plain";
  A.Config.Kind = DispatchStrategy::Threaded;
  VariantSpec B;
  B.Name = "static repl";
  B.Config.Kind = DispatchStrategy::StaticRepl;
  B.Config.ReplicaCount = 400;
  B.ReplicaCount = 400;
  Spec.Variants = {A, B};
  PredictorGeometry Pd; // Default
  PredictorGeometry Pb;
  Pb.PredKind = PredictorGeometry::Kind::Btb;
  Pb.Btb.Entries = 512;
  Spec.Predictors = {Pd, Pb};
  return Spec;
}

PerfCounters countersFor(uint64_t I) {
  PerfCounters C;
  C.Cycles = 1000 + I;
  C.Instructions = 2000 + I * 3;
  C.VMInstructions = 300 + I;
  C.IndirectBranches = 400 + I;
  C.Mispredictions = 50 + I;
  C.ICacheMisses = 7 + I;
  C.MissCycles = 70 + I * 10;
  C.CodeBytes = 4096 + I;
  C.DispatchCount = 500 + I;
  return C;
}

bool sameCounters(const PerfCounters &A, const PerfCounters &B) {
  return A.Cycles == B.Cycles && A.Instructions == B.Instructions &&
         A.VMInstructions == B.VMInstructions &&
         A.IndirectBranches == B.IndirectBranches &&
         A.Mispredictions == B.Mispredictions &&
         A.ICacheMisses == B.ICacheMisses && A.MissCycles == B.MissCycles &&
         A.CodeBytes == B.CodeBytes && A.DispatchCount == B.DispatchCount;
}

class ResultStoreTest : public ::testing::Test {
protected:
  void SetUp() override {
    Dir = "/tmp/vmib-store-test-" + std::to_string(::getpid());
    removeTree(Dir);
    // The store consults VMIB_FAULT at open(); tests that want faults
    // set it themselves before opening.
    ::unsetenv("VMIB_FAULT");
    ::unsetenv("VMIB_STORE_KILL_AFTER");
  }
  void TearDown() override {
    ::unsetenv("VMIB_FAULT");
    ::unsetenv("VMIB_STORE_KILL_AFTER");
    removeTree(Dir);
  }

  std::string Dir;
};

} // namespace

TEST_F(ResultStoreTest, KeyCoversEveryConfigurationAxis) {
  SweepSpec Spec = makeSpec();
  // All 8 members x 2 trace hashes must produce 16 distinct keys.
  std::set<StoreKey> Keys;
  for (uint64_t Trace : {0x1111ULL, 0x2222ULL})
    for (size_t M = 0; M < Spec.membersPerWorkload(); ++M)
      Keys.insert(cellStoreKey(Spec, M, Trace));
  EXPECT_EQ(Keys.size(), 2 * Spec.membersPerWorkload());

  // Suite participates (the same member config must not collide across
  // the forth/java key spaces).
  SweepSpec Java = Spec;
  Java.Suite = "java";
  EXPECT_NE(cellStoreKey(Spec, 0, 1), cellStoreKey(Java, 0, 1));

  // Strategy parameters participate.
  SweepSpec Seeded = Spec;
  Seeded.Variants[0].Config.Seed ^= 1;
  EXPECT_NE(cellStoreKey(Spec, 0, 1), cellStoreKey(Seeded, 0, 1));

  // Active predictor geometry participates.
  SweepSpec Wider = Spec;
  Wider.Predictors[1].Btb.Entries = 1024;
  size_t BtbMember = Spec.memberIndex(0, 0, 1);
  EXPECT_NE(cellStoreKey(Spec, BtbMember, 1),
            cellStoreKey(Wider, BtbMember, 1));
}

TEST_F(ResultStoreTest, KeyIgnoresCosmeticAndInvariantKnobs) {
  // The variant display name and the legacy schedule declaration are
  // cosmetic; chunk size and thread count are bit-identity invariants —
  // caching across them is the point of the store. None may shift a key.
  SweepSpec Spec = makeSpec();
  SweepSpec Tweaked = Spec;
  Tweaked.Variants[0].Name = "renamed";
  Tweaked.ChunkEvents = 1 << 14;
  Tweaked.Threads = 8;
  Tweaked.Schedule = GangSchedule::Dynamic;
  for (size_t M = 0; M < Spec.membersPerWorkload(); ++M)
    EXPECT_EQ(cellStoreKey(Spec, M, 42), cellStoreKey(Tweaked, M, 42))
        << "member " << M;
  EXPECT_EQ(memberCostKey(Spec, 0), memberCostKey(Tweaked, 0));
}

TEST_F(ResultStoreTest, FlushedCellsReloadBitIdentically) {
  SweepSpec Spec = makeSpec();
  const size_t N = Spec.membersPerWorkload();
  {
    ResultStore S;
    std::string Diag;
    ASSERT_TRUE(S.open(Dir, &Diag)) << Diag;
    for (size_t M = 0; M < N; ++M)
      S.record(cellStoreKey(Spec, M, 7), countersFor(M));
    EXPECT_EQ(S.pendingRecords(), N);
    ASSERT_TRUE(S.flush());
    EXPECT_EQ(S.pendingRecords(), 0u);
    S.close();
  }
  ResultStore S;
  ASSERT_TRUE(S.open(Dir));
  EXPECT_EQ(S.stats().RecordsLoaded, N);
  EXPECT_EQ(S.stats().Quarantined, 0u);
  for (size_t M = 0; M < N; ++M) {
    PerfCounters C;
    ASSERT_TRUE(S.probe(cellStoreKey(Spec, M, 7), C)) << "member " << M;
    EXPECT_TRUE(sameCounters(C, countersFor(M))) << "member " << M;
  }
  // A key the store has never seen (different trace hash) misses.
  PerfCounters C;
  EXPECT_FALSE(S.probe(cellStoreKey(Spec, 0, 8), C));
}

TEST_F(ResultStoreTest, ProbeIsStatsFreeLookupCounts) {
  SweepSpec Spec = makeSpec();
  ResultStore S;
  ASSERT_TRUE(S.open(Dir));
  S.record(cellStoreKey(Spec, 0, 1), countersFor(0));
  PerfCounters C;
  ASSERT_TRUE(S.probe(cellStoreKey(Spec, 0, 1), C));
  EXPECT_FALSE(S.probe(cellStoreKey(Spec, 1, 1), C));
  EXPECT_EQ(S.stats().Hits, 0u);
  EXPECT_EQ(S.stats().Misses, 0u);
  EXPECT_TRUE(S.lookup(cellStoreKey(Spec, 0, 1), C));
  EXPECT_FALSE(S.lookup(cellStoreKey(Spec, 1, 1), C));
  EXPECT_EQ(S.stats().Hits, 1u);
  EXPECT_EQ(S.stats().Misses, 1u);
}

TEST_F(ResultStoreTest, UnwritableDirFailsOpenAndDegradesToStoreless) {
  // A store directory nested under a regular file can never be
  // created — unwritable for every uid, unlike permission bits, which
  // root (the usual CI test uid) walks straight through. open() must
  // fail with a diagnostic, and the unopened store must behave as a
  // storeless run: probes and lookups miss, close() is a safe no-op —
  // exactly what the driver's "continuing without the result store"
  // degradation relies on.
  ASSERT_EQ(0, ::mkdir(Dir.c_str(), 0755));
  std::string Blocker = Dir + "/blocker";
  ASSERT_TRUE(writeBytes(Blocker, {'n', 'o', 't', ' ', 'a', ' ', 'd', 'i',
                                   'r', '\n'}));

  ResultStore S;
  std::string Diag;
  EXPECT_FALSE(S.open(Blocker + "/results", &Diag));
  EXPECT_FALSE(S.isOpen());
  EXPECT_FALSE(Diag.empty());
  EXPECT_NE(Diag.find("results"), std::string::npos) << Diag;

  SweepSpec Spec = makeSpec();
  PerfCounters C;
  EXPECT_FALSE(S.probe(cellStoreKey(Spec, 0, 1), C));
  EXPECT_FALSE(S.lookup(cellStoreKey(Spec, 0, 1), C));
  EXPECT_EQ(S.size(), 0u);
  S.close(); // must not crash or create anything
  EXPECT_FALSE(S.isOpen());
}

TEST_F(ResultStoreTest, TornTailIsSalvagedAndQuarantined) {
  SweepSpec Spec = makeSpec();
  const size_t N = 6;
  {
    ResultStore S;
    ASSERT_TRUE(S.open(Dir));
    for (size_t M = 0; M < N; ++M)
      S.record(cellStoreKey(Spec, M, 9), countersFor(M));
    ASSERT_TRUE(S.flush());
    S.close();
  }
  // Tear the single segment after 2 whole records plus half a record —
  // what a crash mid-append leaves behind.
  std::string Seg = onlySegmentPath(Dir);
  ASSERT_FALSE(Seg.empty());
  std::vector<unsigned char> Bytes = readBytes(Seg);
  const size_t HeaderBytes = 4 * 8, RecordBytes = 12 * 8;
  ASSERT_EQ(Bytes.size(), HeaderBytes + N * RecordBytes);
  Bytes.resize(HeaderBytes + 2 * RecordBytes + RecordBytes / 2);
  ASSERT_TRUE(writeBytes(Seg, Bytes));

  ResultStore S;
  ASSERT_TRUE(S.open(Dir));
  EXPECT_EQ(S.stats().Recovered, 2u);
  EXPECT_EQ(S.stats().Quarantined, 1u);
  for (size_t M = 0; M < 2; ++M) {
    PerfCounters C;
    ASSERT_TRUE(S.probe(cellStoreKey(Spec, M, 9), C)) << "member " << M;
    EXPECT_TRUE(sameCounters(C, countersFor(M))) << "member " << M;
  }
  PerfCounters C;
  EXPECT_FALSE(S.probe(cellStoreKey(Spec, 2, 9), C));
  // The damaged original survives under quarantine/ — never deleted.
  EXPECT_EQ(countFiles(Dir + "/quarantine", ""), 3u); // ".", "..", file
  S.close();

  // Recovery is idempotent: reopening serves the salvaged records from
  // the fresh segment with nothing further to repair.
  ResultStore S2;
  ASSERT_TRUE(S2.open(Dir));
  EXPECT_EQ(S2.stats().RecordsLoaded, 2u);
  EXPECT_EQ(S2.stats().Recovered, 0u);
  EXPECT_EQ(S2.stats().Quarantined, 0u);
}

TEST_F(ResultStoreTest, BadHeaderQuarantinesWholeSegment) {
  SweepSpec Spec = makeSpec();
  {
    ResultStore S;
    ASSERT_TRUE(S.open(Dir));
    S.record(cellStoreKey(Spec, 0, 3), countersFor(0));
    ASSERT_TRUE(S.flush());
    S.close();
  }
  std::string Seg = onlySegmentPath(Dir);
  std::vector<unsigned char> Bytes = readBytes(Seg);
  ASSERT_FALSE(Bytes.empty());
  Bytes[0] ^= 0xFF; // break the magic
  ASSERT_TRUE(writeBytes(Seg, Bytes));

  ResultStore S;
  ASSERT_TRUE(S.open(Dir));
  EXPECT_EQ(S.stats().RecordsLoaded, 0u);
  EXPECT_EQ(S.stats().Recovered, 0u);
  EXPECT_EQ(S.stats().Quarantined, 1u);
  PerfCounters C;
  EXPECT_FALSE(S.probe(cellStoreKey(Spec, 0, 3), C));
  EXPECT_EQ(countFiles(Dir + "/quarantine", ""), 3u);
  EXPECT_EQ(onlySegmentPath(Dir), ""); // nothing left in the root
}

TEST_F(ResultStoreTest, TrailingGarbageSalvagesDeclaredRecords) {
  SweepSpec Spec = makeSpec();
  const size_t N = 3;
  {
    ResultStore S;
    ASSERT_TRUE(S.open(Dir));
    for (size_t M = 0; M < N; ++M)
      S.record(cellStoreKey(Spec, M, 5), countersFor(M));
    ASSERT_TRUE(S.flush());
    S.close();
  }
  std::string Seg = onlySegmentPath(Dir);
  std::vector<unsigned char> Bytes = readBytes(Seg);
  for (int I = 0; I < 24; ++I)
    Bytes.push_back(0xAB);
  ASSERT_TRUE(writeBytes(Seg, Bytes));

  ResultStore S;
  ASSERT_TRUE(S.open(Dir));
  // Every declared record verifies and is kept; the file is not.
  EXPECT_EQ(S.stats().Recovered, N);
  EXPECT_EQ(S.stats().Quarantined, 1u);
  for (size_t M = 0; M < N; ++M) {
    PerfCounters C;
    ASSERT_TRUE(S.probe(cellStoreKey(Spec, M, 5), C));
    EXPECT_TRUE(sameCounters(C, countersFor(M)));
  }
}

TEST_F(ResultStoreTest, NoSpaceFaultKeepsRecordsBufferedForRetry) {
  SweepSpec Spec = makeSpec();
  // nospace on roughly half the flush draws: the first failing draw
  // must keep the records buffered and a later draw must land them.
  ::setenv("VMIB_FAULT", "nospace=0.5,seed=11", 1);
  ResultStore S;
  ASSERT_TRUE(S.open(Dir));
  S.record(cellStoreKey(Spec, 0, 2), countersFor(0));
  bool Flushed = false;
  for (int Attempt = 0; Attempt < 64 && !Flushed; ++Attempt)
    Flushed = S.flush();
  ASSERT_TRUE(Flushed);
  EXPECT_GT(S.stats().FlushFailures, 0u);
  EXPECT_EQ(S.pendingRecords(), 0u);
  S.close();
  ::unsetenv("VMIB_FAULT");

  ResultStore S2;
  ASSERT_TRUE(S2.open(Dir));
  PerfCounters C;
  ASSERT_TRUE(S2.probe(cellStoreKey(Spec, 0, 2), C));
  EXPECT_TRUE(sameCounters(C, countersFor(0)));
}

TEST_F(ResultStoreTest, RenameFaultLeavesNoSegmentBehind) {
  SweepSpec Spec = makeSpec();
  ::setenv("VMIB_FAULT", "renamefail=1,seed=3", 1);
  ResultStore S;
  ASSERT_TRUE(S.open(Dir));
  S.record(cellStoreKey(Spec, 0, 4), countersFor(0));
  EXPECT_FALSE(S.flush());
  EXPECT_EQ(S.stats().FlushFailures, 1u);
  EXPECT_EQ(S.pendingRecords(), 1u);
  // The aborted commit removed its temp and never renamed: the store
  // directory holds no segment and no temp.
  EXPECT_EQ(onlySegmentPath(Dir), "");
  EXPECT_EQ(countFiles(Dir, ".tmp"), 0u);
  // The record is still served from memory while buffered.
  PerfCounters C;
  ASSERT_TRUE(S.probe(cellStoreKey(Spec, 0, 4), C));
}

TEST_F(ResultStoreTest, TornFaultLosesOnlyTheTail) {
  SweepSpec Spec = makeSpec();
  const size_t N = 4;
  ::setenv("VMIB_FAULT", "torn=1,seed=5", 1);
  {
    ResultStore S;
    ASSERT_TRUE(S.open(Dir));
    for (size_t M = 0; M < N; ++M)
      S.record(cellStoreKey(Spec, M, 6), countersFor(M));
    // A torn flush commits (the crash happens "after" the rename in
    // this model): the segment lands holding only half the records.
    ASSERT_TRUE(S.flush());
    S.close();
  }
  ::unsetenv("VMIB_FAULT");
  ResultStore S;
  ASSERT_TRUE(S.open(Dir));
  EXPECT_EQ(S.stats().Recovered, N / 2);
  EXPECT_EQ(S.stats().Quarantined, 1u);
  for (size_t M = 0; M < N / 2; ++M) {
    PerfCounters C;
    ASSERT_TRUE(S.probe(cellStoreKey(Spec, M, 6), C));
    EXPECT_TRUE(sameCounters(C, countersFor(M)));
  }
}

TEST_F(ResultStoreTest, SigkillMidWriteLosesOnlyTheUncommittedFlush) {
  // The kill-anywhere drill: VMIB_STORE_KILL_AFTER SIGKILLs the child
  // after its 7th record write — mid-temp-segment, before that
  // segment's fsync and rename. The threadsafe death-test style
  // re-execs the binary, so the child reads the env hook fresh.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SweepSpec Spec = makeSpec();
  // Fixed path, NOT pid-derived: the threadsafe death test re-execs the
  // binary, so the child's fixture sees a different pid — parent and
  // child must agree on the drill directory. Both sides start by
  // clearing it; only the parent verifies and removes it.
  const std::string KillDir = "/tmp/vmib-store-kill-drill";
  removeTree(KillDir);
  auto Drill = [&]() {
    ::setenv("VMIB_STORE_KILL_AFTER", "7", 1);
    removeTree(KillDir);
    ResultStore S;
    if (!S.open(KillDir))
      std::exit(97);
    for (size_t M = 0; M < 5; ++M)
      S.record(cellStoreKey(Spec, M, 10), countersFor(M));
    if (!S.flush()) // records 1-5: committed whole
      std::exit(98);
    for (size_t M = 5; M < 10; ++M)
      S.record(cellStoreKey(Spec, M % 8, 11), countersFor(M));
    (void)S.flush(); // dies at the 7th record ever written
    std::exit(99);   // unreachable if the hook fired
  };
  EXPECT_EXIT(Drill(), ::testing::KilledBySignal(SIGKILL), "");
  ::unsetenv("VMIB_STORE_KILL_AFTER");

  {
    ResultStore S;
    ASSERT_TRUE(S.open(KillDir));
    // The committed flush survives bit-identically...
    EXPECT_EQ(S.stats().RecordsLoaded, 5u);
    for (size_t M = 0; M < 5; ++M) {
      PerfCounters C;
      ASSERT_TRUE(S.probe(cellStoreKey(Spec, M, 10), C)) << "member " << M;
      EXPECT_TRUE(sameCounters(C, countersFor(M))) << "member " << M;
    }
    // ...the killed flush vanishes entirely: its temp never renamed, so
    // recovery neither serves nor quarantines anything from it.
    PerfCounters C;
    EXPECT_FALSE(S.probe(cellStoreKey(Spec, 5, 11), C));
    EXPECT_EQ(S.stats().Quarantined, 0u);
    EXPECT_EQ(S.stats().Recovered, 0u);
  }
  removeTree(KillDir);
}

TEST_F(ResultStoreTest, CacheGCRefusesALiveStore) {
  SweepSpec Spec = makeSpec();
  ResultStore S;
  ASSERT_TRUE(S.open(Dir));
  S.record(cellStoreKey(Spec, 0, 1), countersFor(0));
  ASSERT_TRUE(S.flush());
  // The store holds its shared in-use lock: GC must skip the directory
  // wholesale (budget 0 would otherwise evict everything).
  CacheGCReport Rep;
  std::string Error;
  ASSERT_TRUE(runCacheGC("", Dir, 0, Rep, Error)) << Error;
  EXPECT_EQ(Rep.EvictedFiles, 0u);
  EXPECT_EQ(Rep.SkippedLockedDirs, 1u);
  EXPECT_GT(Rep.TotalBytes, 0u);
  EXPECT_NE(onlySegmentPath(Dir), "");
  S.close();

  // Closed store: the same call now evicts.
  ASSERT_TRUE(runCacheGC("", Dir, 0, Rep, Error)) << Error;
  EXPECT_EQ(Rep.SkippedLockedDirs, 0u);
  EXPECT_EQ(Rep.EvictedFiles, 1u);
  EXPECT_EQ(onlySegmentPath(Dir), "");
}

TEST_F(ResultStoreTest, CacheGCEvictsOldestFirstAndClearsTemps) {
  ASSERT_EQ(0, ::mkdir(Dir.c_str(), 0777));
  // Three 80-byte artifacts with stepped mtimes, plus a stale temp.
  std::vector<unsigned char> Blob(80, 0x5A);
  for (int I = 0; I < 3; ++I) {
    std::string Path = Dir + "/seg-" + std::to_string(I) + ".vmibstore";
    ASSERT_TRUE(writeBytes(Path, Blob));
    struct utimbuf Times;
    Times.actime = Times.modtime = 1000000 + I * 1000;
    ASSERT_EQ(0, ::utime(Path.c_str(), &Times));
  }
  ASSERT_TRUE(writeBytes(Dir + "/seg-9.vmibstore.tmp", Blob));

  // Budget for exactly two artifacts: the oldest one goes, the temp
  // goes regardless of budget.
  CacheGCReport Rep;
  std::string Error;
  ASSERT_TRUE(runCacheGC("", Dir, 160, Rep, Error)) << Error;
  EXPECT_EQ(Rep.TotalBytes, 240u);
  EXPECT_EQ(Rep.EvictedFiles, 1u);
  EXPECT_EQ(Rep.EvictedBytes, 80u);
  EXPECT_EQ(Rep.RemovedTemps, 1u);
  struct stat St;
  EXPECT_NE(0, ::stat((Dir + "/seg-0.vmibstore").c_str(), &St));
  EXPECT_EQ(0, ::stat((Dir + "/seg-1.vmibstore").c_str(), &St));
  EXPECT_EQ(0, ::stat((Dir + "/seg-2.vmibstore").c_str(), &St));
}

//===--- SweepExecutor: the warm-store fast path ---------------------------===//

namespace {

/// A real two-workload sweep over \p Variants on one CPU.
SweepSpec executorSpec(const std::string &Suite,
                       std::vector<VariantSpec> Variants) {
  SweepSpec Spec;
  Spec.Name = "store-exec-" + Suite;
  Spec.Suite = Suite;
  if (Suite == "java")
    Spec.Benchmarks = {javaSuite()[0].Name, javaSuite()[1].Name};
  else
    Spec.Benchmarks = {forthSuite()[0].Name, forthSuite()[1].Name};
  Spec.Cpus = {"p4northwood"};
  Spec.Variants = std::move(Variants);
  return Spec;
}

/// runAll over \p Spec with a store at \p StoreDir (none when empty).
SweepRunStats runWithStore(SweepExecutor &Executor, const SweepSpec &Spec,
                           const std::string &StoreDir,
                           std::vector<PerfCounters> &Cells,
                           ResultStoreStats *StoreStats = nullptr) {
  ResultStore Store;
  if (!StoreDir.empty()) {
    std::string Diag;
    EXPECT_TRUE(Store.open(StoreDir, &Diag)) << Diag;
    Executor.setResultStore(&Store);
  }
  SweepRunStats Stats = Executor.runAll(Spec, 1, Cells);
  Executor.setResultStore(nullptr);
  if (StoreStats)
    *StoreStats = Store.stats();
  return Stats;
}

void expectSameCells(const std::vector<PerfCounters> &A,
                     const std::vector<PerfCounters> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_TRUE(sameCounters(A[I], B[I])) << "cell " << I;
}

class ExecutorStoreTest : public ResultStoreTest {
protected:
  void SetUp() override {
    ResultStoreTest::SetUp();
    ASSERT_EQ(0, ::mkdir(Dir.c_str(), 0777));
    ASSERT_EQ(0, ::setenv("VMIB_TRACE_CACHE", (Dir + "/cache").c_str(), 1));
  }
  void TearDown() override {
    ::unsetenv("VMIB_TRACE_CACHE");
    ResultStoreTest::TearDown();
  }
};

} // namespace

TEST_F(ExecutorStoreTest, FullyStoredSweepLoadsAndReplaysNothing) {
  for (const char *Suite : {"forth", "java"}) {
    SweepSpec Spec =
        executorSpec(Suite, {makeVariant(DispatchStrategy::Threaded),
                             makeVariant(DispatchStrategy::DynamicSuper)});
    std::string StoreDir = Dir + "/results-" + Suite;
    std::vector<PerfCounters> Want, Filled, Cells;
    {
      SweepExecutor Storeless; // captures the traces into the cache
      runWithStore(Storeless, Spec, "", Want);
      SweepExecutor Filler;
      runWithStore(Filler, Spec, StoreDir, Filled);
    }
    expectSameCells(Want, Filled);

    // Leave each workload only what the fast path may read: the trace
    // file header (its declared content hash). A warmup would now have
    // to re-run the reference interpretation (the meta sidecar is
    // gone), and a trace load would reject the header-only file and
    // re-capture over it.
    for (const std::string &B : Spec.Benchmarks) {
      std::string Key = std::string(Suite) + "-" + B;
      removeWorkloadMeta(Key);
      ASSERT_EQ(0, ::truncate(DispatchTrace::cachePathFor(Key).c_str(), 48));
    }
    ForthLab Forth;
    JavaLab Java;
    SweepExecutor Warm(&Forth, &Java);
    ResultStoreStats StoreStats;
    SweepRunStats Stats = runWithStore(Warm, Spec, StoreDir, Cells,
                                       &StoreStats);
    expectSameCells(Want, Cells);
    EXPECT_EQ(Stats.CaptureSeconds, 0.0) << Suite;
    EXPECT_EQ(Stats.ReplayedEvents, 0u) << Suite;
    EXPECT_EQ(Stats.Load.SourceEvents, 0u) << Suite;
    EXPECT_EQ(Forth.referenceRunsPerformed() + Java.referenceRunsPerformed(),
              0u)
        << Suite;
    EXPECT_EQ(StoreStats.Hits, Spec.numCells()) << Suite;
    EXPECT_EQ(StoreStats.Misses, 0u) << Suite;
    for (const std::string &B : Spec.Benchmarks) {
      struct stat St;
      ASSERT_EQ(0, ::stat(DispatchTrace::cachePathFor(std::string(Suite) +
                                                      "-" + B)
                              .c_str(),
                          &St));
      EXPECT_EQ(St.st_size, 48) << Suite << "-" << B << " was reloaded";
    }
  }
}

TEST_F(ExecutorStoreTest, HalfStoredSweepReplaysOnlyMissingMembers) {
  SweepSpec Full = executorSpec("forth",
                                {makeVariant(DispatchStrategy::Threaded),
                                 makeVariant(DispatchStrategy::StaticRepl)});
  SweepSpec Half = Full;
  Half.Variants.resize(1); // stores member 0 of every workload
  std::string StoreDir = Dir + "/results";
  SweepExecutor Executor;
  std::vector<PerfCounters> Want, Cells;
  runWithStore(Executor, Full, "", Want);
  runWithStore(Executor, Half, StoreDir, Cells);

  ResultStoreStats StoreStats;
  SweepRunStats Stats =
      runWithStore(Executor, Full, StoreDir, Cells, &StoreStats);
  expectSameCells(Want, Cells);
  uint64_t Events = 0;
  for (const std::string &B : Full.Benchmarks)
    Events += Executor.forth().referenceSteps(B);
  EXPECT_EQ(Stats.ReplayedEvents, Events) << "one missing member per workload";
  EXPECT_EQ(StoreStats.Hits, Full.Benchmarks.size());
  EXPECT_EQ(StoreStats.Misses, Full.Benchmarks.size());
}
