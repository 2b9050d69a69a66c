//===- tests/GangReplayTest.cpp - gang replay equivalence -----------------===//
///
/// The contract of the gang replay engine: counters produced by one
/// chunk-tiled GangReplayer pass — SoA group decode, first-touch fetch
/// streams, baseline-linked predictor-only members, in-place restarts
/// on the exact tiers — must be *bit-identical* to direct
/// interpretation (Lab.run / ForthLab::runWithPredictor) over whole
/// workloads, and to a test-local exact oracle (sim::step over the
/// events on the exact-LRU models) over prefix traces, across both
/// suites, all variants, BTB capacity sweeps (including overflow
/// restarts), the quickening tier and any thread count. Also covers the
/// trace chunk cursor, binary trace serialization (save → load → replay
/// round trip, hash rejection), the labs' serialized trace cache
/// (VMIB_TRACE_CACHE) and the capture/replay pipeline stage.
///
//===----------------------------------------------------------------------===//

#include "harness/ForthLab.h"
#include "harness/JavaLab.h"
#include "harness/SweepRunner.h"
#include "uarch/CaseBlockTable.h"
#include "uarch/TwoLevelPredictor.h"
#include "vmcore/GangReplayer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <utility>
#include <sys/stat.h>
#include <unistd.h>

using namespace vmib;

namespace {

/// Shared labs: construction compiles and reference-runs both suites,
/// so do it once per test binary.
ForthLab &forthLab() {
  static ForthLab Lab;
  return Lab;
}
JavaLab &javaLab() {
  static JavaLab Lab;
  return Lab;
}

void expectEqualCounters(const PerfCounters &Expected,
                         const PerfCounters &Gang, const std::string &What) {
  EXPECT_EQ(Expected.Cycles, Gang.Cycles) << What;
  EXPECT_EQ(Expected.Instructions, Gang.Instructions) << What;
  EXPECT_EQ(Expected.VMInstructions, Gang.VMInstructions) << What;
  EXPECT_EQ(Expected.IndirectBranches, Gang.IndirectBranches) << What;
  EXPECT_EQ(Expected.Mispredictions, Gang.Mispredictions) << What;
  EXPECT_EQ(Expected.ICacheMisses, Gang.ICacheMisses) << What;
  EXPECT_EQ(Expected.MissCycles, Gang.MissCycles) << What;
  EXPECT_EQ(Expected.CodeBytes, Gang.CodeBytes) << What;
  EXPECT_EQ(Expected.DispatchCount, Gang.DispatchCount) << What;
}

/// The first \p MaxEvents events of \p Full — plus the quicken records
/// landing inside them, at their exact positions — as a standalone
/// trace. A prefix of a dispatch trace is itself a valid trace, which
/// bounds the cost of the tiny-chunk cells of the thread-invariance
/// matrix without leaving the real suite workloads.
DispatchTrace prefixTrace(const DispatchTrace &Full, size_t MaxEvents) {
  DispatchTrace T;
  size_t N = std::min(MaxEvents, Full.numEvents());
  T.reserve(N);
  const std::vector<DispatchTrace::QuickenRecord> &Quickens =
      Full.quickens();
  size_t Q = 0;
  while (Q < Quickens.size() && Quickens[Q].AfterEvents == 0)
    ++Q; // cannot precede the first event
  for (size_t I = 0; I < N; ++I) {
    T.append(DispatchTrace::cur(Full.events()[I]),
             DispatchTrace::next(Full.events()[I]));
    while (Q < Quickens.size() && Quickens[Q].AfterEvents == I + 1) {
      T.appendQuicken(Quickens[Q].Index, Quickens[Q].NewInstr);
      ++Q;
    }
  }
  return T;
}

/// The exact oracle for traces with no interpretation behind them (a
/// prefix): what a direct DispatchSim run computes — sim::step over
/// every event on the exact-LRU I-cache and \p Pred, the recorded
/// quickenings applied to \p Program (the one \p Layout was built
/// over; null for quicken-free traces) at their positions — with none
/// of the gang's optimistic tiers, decoding or tiling.
template <class PredictorT>
PerfCounters exactOracle(const DispatchTrace &Trace, DispatchProgram &Layout,
                         VMProgram *Program, const CpuConfig &Cpu,
                         PredictorT Pred) {
  sim::DispatchState S(Cpu.ICache);
  sim::NullObserver Obs;
  const std::vector<DispatchTrace::QuickenRecord> &Quickens =
      Trace.quickens();
  size_t Q = 0;
  for (size_t I = 0; I < Trace.numEvents(); ++I) {
    DispatchTrace::Event E = Trace.events()[I];
    sim::step(Layout, S, Pred, Obs, DispatchTrace::cur(E),
              DispatchTrace::next(E));
    for (; Q < Quickens.size() && Quickens[Q].AfterEvents == I + 1; ++Q) {
      Program->Code[Quickens[Q].Index] = Quickens[Q].NewInstr;
      Layout.onQuicken(Quickens[Q].Index);
    }
  }
  EXPECT_EQ(Q, Quickens.size()) << "unconsumed quicken records";
  return sim::finalize(S.Counters, Layout, Cpu);
}

/// The oracle over a fresh Forth layout of (\p Benchmark, \p Variant).
template <class PredictorT>
PerfCounters exactOracle(const DispatchTrace &Trace,
                         const std::string &Benchmark,
                         const VariantSpec &Variant, const CpuConfig &Cpu,
                         PredictorT Pred) {
  auto Layout = forthLab().buildLayout(Benchmark, Variant);
  return exactOracle(Trace, *Layout, nullptr, Cpu, std::move(Pred));
}

/// A fresh mkdtemp directory, removed with its contents at scope exit,
/// so concurrent runs of the suite share no path.
struct ScratchDir {
  ScratchDir() {
    std::snprintf(Path, sizeof(Path), "/tmp/vmib-gang-test-XXXXXX");
    EXPECT_NE(nullptr, ::mkdtemp(Path));
  }
  ~ScratchDir() { std::system(("rm -rf " + std::string(Path)).c_str()); }
  std::string operator/(const std::string &Name) const {
    return std::string(Path) + "/" + Name;
  }
  char Path[64];
};

} // namespace

TEST(ChunkCursor, TilesTheStreamExactly) {
  DispatchTrace T;
  for (uint32_t I = 0; I < 1000; ++I)
    T.append(I, I + 1);

  DispatchTrace::ChunkCursor C(T, 256);
  size_t Expected[] = {0, 256, 512, 768};
  size_t N = 0;
  size_t Covered = 0;
  while (C.next()) {
    ASSERT_LT(N, 4u);
    EXPECT_EQ(C.begin(), Expected[N]);
    EXPECT_EQ(C.end(), N == 3 ? 1000u : Expected[N] + 256);
    Covered += C.end() - C.begin();
    ++N;
  }
  EXPECT_EQ(N, 4u);
  EXPECT_EQ(Covered, 1000u);

  // Empty trace: no tiles.
  DispatchTrace Empty;
  DispatchTrace::ChunkCursor E(Empty, 256);
  EXPECT_FALSE(E.next());

  // ChunkEvents == 0 falls back to the (env-overridable) default.
  DispatchTrace::ChunkCursor D(T, 0);
  EXPECT_TRUE(D.next());
  EXPECT_EQ(D.end(), 1000u);
}

TEST(GangReplay, MixedPredictorGangSharedLayouts) {
  // The ablation_predictors shape: threaded and switch members share
  // their layouts (SoA group decode), predictor-only members take the
  // fetch baseline from the full member of the same layout, plus the
  // oracle/null policy baselines riding the same gang.
  ForthLab &Lab = forthLab();
  CpuConfig P4 = makePentium4Northwood();
  VariantSpec Threaded = makeVariant(DispatchStrategy::Threaded);
  VariantSpec Switch = makeVariant(DispatchStrategy::Switch);
  BTBConfig TwoBit = P4.Btb;
  TwoBit.TwoBitCounters = true;
  TwoLevelConfig TL;

  GangReplayer Gang(Lab.trace("gray"));
  std::shared_ptr<DispatchProgram> LThreaded =
      Lab.buildLayout("gray", Threaded);
  std::shared_ptr<DispatchProgram> LSwitch = Lab.buildLayout("gray", Switch);
  size_t TB = Gang.addBtb(LThreaded, P4, P4.Btb);
  Gang.addBtbPredictorOnly(LThreaded, P4, TwoBit, TB);
  Gang.addPredictorOnly(LThreaded, P4, TwoLevelPredictor(TL), TB);
  Gang.addPredictorOnly(LThreaded, P4, PerfectPredictor(), TB);
  Gang.addPredictorOnly(LThreaded, P4, NullPredictor(), TB);
  size_t SB = Gang.addBtb(LSwitch, P4, P4.Btb);
  Gang.addPredictorOnly(LSwitch, P4, CaseBlockTable(4096), SB);
  EXPECT_GT(Gang.stateBytes(), 0u);
  std::vector<PerfCounters> R = Gang.run();
  ASSERT_EQ(R.size(), 7u);

  const DispatchTrace &Trace = Lab.trace("gray");
  expectEqualCounters(Lab.run("gray", Threaded, P4), R[0],
                      "full btb threaded");
  expectEqualCounters(Lab.runWithPredictor("gray", Threaded, P4,
                                           std::make_unique<BTB>(TwoBit)),
                      R[1], "two-bit predictor-only");
  expectEqualCounters(
      Lab.runWithPredictor("gray", Threaded, P4,
                           std::make_unique<TwoLevelPredictor>(TL)),
      R[2], "two-level predictor-only");
  // The policy baselines have no virtual form for a direct run; the
  // exact oracle steps them through the same templated kernel.
  expectEqualCounters(
      exactOracle(Trace, "gray", Threaded, P4, PerfectPredictor()), R[3],
      "oracle predictor-only");
  EXPECT_EQ(R[3].Mispredictions, 0u);
  expectEqualCounters(exactOracle(Trace, "gray", Threaded, P4,
                                  NullPredictor()),
                      R[4], "null predictor-only");
  EXPECT_EQ(R[4].Mispredictions, R[4].DispatchCount);
  expectEqualCounters(Lab.run("gray", Switch, P4), R[5], "full btb switch");
  expectEqualCounters(
      Lab.runWithPredictor("gray", Switch, P4,
                           std::make_unique<CaseBlockTable>(4096)),
      R[6], "case-block predictor-only");
}

TEST(GangReplay, BtbCapacitySweepWithOverflowFallback) {
  // The ablation_btb_sweep shape, with capacities small enough that
  // the no-evict members overflow and restart in place on the exact
  // BTB (both the full and the predictor-only tiers).
  ForthLab &Lab = forthLab();
  CpuConfig P4 = makePentium4Northwood();
  VariantSpec Threaded = makeVariant(DispatchStrategy::Threaded);

  GangReplayer Gang(Lab.trace("gray"));
  std::shared_ptr<DispatchProgram> Layout = Lab.buildLayout("gray", Threaded);
  size_t Base = Gang.addDefault(Layout, P4);
  std::vector<BTBConfig> Configs;
  for (uint32_t Entries : {64u, 256u, 4096u, 0u}) {
    BTBConfig Cfg;
    Cfg.Entries = Entries; // 0 = idealised (exact member from the start)
    Cfg.Ways = Entries == 0 ? 4 : Cfg.Ways;
    Configs.push_back(Cfg);
    Gang.addBtbPredictorOnly(Layout, P4, Cfg, Base);
  }
  BTBConfig Tiny;
  Tiny.Entries = 64;
  Tiny.Ways = 4;
  size_t TinyFull = Gang.addBtb(Layout, P4, Tiny);

  std::vector<PerfCounters> R = Gang.run();
  auto Direct = [&](const BTBConfig &Cfg) {
    return Lab.runWithPredictor("gray", Threaded, P4,
                                std::make_unique<BTB>(Cfg));
  };
  expectEqualCounters(Lab.run("gray", Threaded, P4), R[Base],
                      "default baseline");
  for (size_t I = 0; I < Configs.size(); ++I)
    expectEqualCounters(Direct(Configs[I]), R[Base + 1 + I],
                        "capacity " + std::to_string(Configs[I].Entries));
  expectEqualCounters(Direct(Tiny), R[TinyFull],
                      "tiny full member (overflow restart)");
}

TEST(GangReplay, ICacheOverflowFallbackBitIdentical) {
  // Celeron: small I-cache plus code growth overflows the no-evict
  // fast path on a replicating variant; the gang member restarts on
  // the exact-LRU I-cache.
  ForthLab &Lab = forthLab();
  CpuConfig Cel = makeCeleron800();
  std::vector<VariantSpec> Variants = {
      makeVariant(DispatchStrategy::Threaded),
      makeVariant(DispatchStrategy::DynamicBoth)};
  std::vector<PerfCounters> Gang = Lab.replayGang("bench-gc", Variants, Cel);
  for (size_t I = 0; I < Variants.size(); ++I)
    expectEqualCounters(Lab.run("bench-gc", Variants[I], Cel), Gang[I],
                        "celeron/" + Variants[I].Name);
}

TEST(GangReplay, ChunkSizeInvariance) {
  // Tiling must never leak into counters: a 1000-event tile and one
  // giant tile produce the same results as the default.
  ForthLab &Lab = forthLab();
  CpuConfig P4 = makePentium4Northwood();
  VariantSpec Threaded = makeVariant(DispatchStrategy::Threaded);
  PerfCounters Expected = Lab.run("gray", Threaded, P4);

  for (size_t Chunk : {size_t{1000}, size_t{1} << 30}) {
    GangReplayer Gang(Lab.trace("gray"), Chunk);
    std::shared_ptr<DispatchProgram> Layout =
        Lab.buildLayout("gray", Threaded);
    Gang.addDefault(Layout, P4);
    Gang.addDefault(Layout, P4); // grouped: SoA decode path
    std::vector<PerfCounters> R = Gang.run();
    expectEqualCounters(Expected, R[0], "chunked full (decoded)");
    expectEqualCounters(Expected, R[1], "chunked full (decoded, second)");
    GangReplayer Single(Lab.trace("gray"), Chunk);
    Single.addDefault(Lab.buildLayout("gray", Threaded), P4);
    expectEqualCounters(Expected, Single.run()[0],
                        "chunked full (group of one)");
  }
}

TEST(TraceSerialization, SaveLoadRoundTrip) {
  DispatchTrace T;
  for (uint32_t I = 0; I < 5000; ++I)
    T.append(I % 97, (I + 1) % 97);
  T.appendQuicken(42, VMInstr{7, -3, 123456789});
  T.append(1, 2);
  T.appendQuicken(9, VMInstr{1, 2, 3});
  uint64_t Hash = T.contentHash();

  ScratchDir Scratch;
  std::string Path = Scratch / "roundtrip.vmibtrace";
  ASSERT_TRUE(T.save(Path, /*WorkloadHash=*/0xabcdefull));

  DispatchTrace L;
  ASSERT_TRUE(L.load(Path, 0xabcdefull));
  EXPECT_EQ(L.numEvents(), T.numEvents());
  EXPECT_EQ(L.numQuickens(), T.numQuickens());
  EXPECT_EQ(L.contentHash(), Hash);
  EXPECT_EQ(L.events(), T.events());
  for (size_t I = 0; I < T.numQuickens(); ++I) {
    EXPECT_EQ(L.quickens()[I].AfterEvents, T.quickens()[I].AfterEvents);
    EXPECT_EQ(L.quickens()[I].Index, T.quickens()[I].Index);
    EXPECT_EQ(L.quickens()[I].NewInstr.Op, T.quickens()[I].NewInstr.Op);
    EXPECT_EQ(L.quickens()[I].NewInstr.A, T.quickens()[I].NewInstr.A);
    EXPECT_EQ(L.quickens()[I].NewInstr.B, T.quickens()[I].NewInstr.B);
  }

  // Wrong workload identity: stale cache entries must not load.
  DispatchTrace Wrong;
  EXPECT_FALSE(Wrong.load(Path, 0x12345ull));
  EXPECT_TRUE(Wrong.empty());

  // Truncation: the content hash rejects a cut-off file.
  {
    std::FILE *F = std::fopen(Path.c_str(), "rb+");
    ASSERT_NE(F, nullptr);
    std::fseek(F, 0, SEEK_END);
    long Size = std::ftell(F);
    ASSERT_EQ(std::fclose(F), 0);
    ASSERT_EQ(truncate(Path.c_str(), Size - 16), 0);
  }
  DispatchTrace Cut;
  EXPECT_FALSE(Cut.load(Path, 0xabcdefull));

  // Missing file.
  DispatchTrace Missing;
  EXPECT_FALSE(Missing.load(Scratch / "no-such-trace.vmibtrace", 1));
}

TEST(TraceSerialization, CachePathRespectsEnvironment) {
  unsetenv("VMIB_TRACE_CACHE");
  EXPECT_EQ(DispatchTrace::cacheDir(), "");
  EXPECT_EQ(DispatchTrace::cachePathFor("forth-gray"), "");
  ScratchDir Scratch; // cacheDir() creates the configured directory
  std::string Cache = Scratch / "cache";
  setenv("VMIB_TRACE_CACHE", Cache.c_str(), 1);
  EXPECT_EQ(DispatchTrace::cachePathFor("forth-gray"),
            Cache + "/forth-gray.vmibtrace");
  setenv("VMIB_TRACE_CACHE", (Cache + "/").c_str(), 1);
  EXPECT_EQ(DispatchTrace::cachePathFor("forth-gray"),
            Cache + "/forth-gray.vmibtrace");
  unsetenv("VMIB_TRACE_CACHE");
}

TEST(TraceSerialization, LabTraceCacheRoundTrip) {
  // End to end: capture saves into VMIB_TRACE_CACHE, a later lab
  // consult loads the file instead of re-interpreting, and replays
  // off the loaded trace are bit-identical.
  ScratchDir Scratch;
  setenv("VMIB_TRACE_CACHE", Scratch.Path, 1);

  ForthLab &Lab = forthLab();
  CpuConfig P4 = makePentium4Northwood();
  VariantSpec Threaded = makeVariant(DispatchStrategy::Threaded);

  Lab.dropTrace("vmgen");
  (void)Lab.trace("vmgen"); // capture + save
  std::string Path = DispatchTrace::cachePathFor("forth-vmgen");
  struct stat St;
  ASSERT_EQ(::stat(Path.c_str(), &St), 0) << "capture did not save " << Path;
  auto Replay = [&] { return Lab.replayGang("vmgen", {Threaded}, P4)[0]; };
  PerfCounters Captured = Replay();

  Lab.dropTrace("vmgen");
  (void)Lab.trace("vmgen"); // loads from the cache file
  expectEqualCounters(Captured, Replay(), "replay off cache-loaded trace");

  // A stale file for a different workload is rejected, not trusted:
  // loading under the wrong reference hash fails, and the lab
  // re-captures (same counters again).
  DispatchTrace Stale;
  EXPECT_FALSE(Stale.load(Path, /*ExpectedWorkloadHash=*/1));
  unsetenv("VMIB_TRACE_CACHE");
  Lab.dropTrace("vmgen");
  expectEqualCounters(Captured, Replay(), "replay off re-captured trace");
}

TEST(TraceSerialization, DecodeModeSelectsTheRequestedPath) {
  // The decode ladder must honor EXPLICIT modes: Materialize may never
  // silently stream (regression: it once fell through to the
  // openStreaming block when the arena was not yet cached), Stream
  // must stream when a cache file exists, and replays through both
  // sources stay bit-identical.
  ScratchDir Scratch;
  setenv("VMIB_TRACE_CACHE", Scratch.Path, 1);

  ForthLab &Lab = forthLab();
  CpuConfig P4 = makePentium4Northwood();
  VariantSpec Threaded = makeVariant(DispatchStrategy::Threaded);

  Lab.dropTrace("vmgen");
  (void)Lab.trace("vmgen"); // capture + save the streamable file
  std::string Path = DispatchTrace::cachePathFor("forth-vmgen");
  PerfCounters Ref = Lab.replayGang("vmgen", {Threaded}, P4)[0];

  Lab.dropTrace("vmgen"); // nothing materialized from here on
  TraceSource Streamed =
      Lab.traceSource("vmgen", TraceDecodeMode::Stream);
  EXPECT_TRUE(Streamed.streaming());

  Lab.dropTrace("vmgen");
  TraceSource Materialized =
      Lab.traceSource("vmgen", TraceDecodeMode::Materialize);
  EXPECT_FALSE(Materialized.streaming());
  EXPECT_EQ(Streamed.contentHash(), Materialized.contentHash());
  EXPECT_EQ(Streamed.numEvents(), Materialized.numEvents());

  // Both sources drive a gang to the same counters.
  for (TraceSource *Src : {&Streamed, &Materialized}) {
    GangReplayer Gang(*Src);
    Gang.addBtb(Lab.buildLayout("vmgen", Threaded), P4, P4.Btb);
    std::vector<PerfCounters> R = Gang.run();
    ASSERT_EQ(R.size(), 1u);
    expectEqualCounters(Ref, R[0],
                        Src->streaming() ? "streamed gang"
                                         : "materialized gang");
  }

  unsetenv("VMIB_TRACE_CACHE");
  Lab.dropTrace("vmgen");
}

TEST(PipelineSweep, OverlapsCaptureWithReplayInOrder) {
  constexpr size_t N = 17;
  std::vector<std::atomic<int>> Captured(N);
  std::vector<std::atomic<int>> Replayed(N);
  pipelineSweep(
      N, 4,
      [&](size_t I) {
        // Captures run in order on one producer thread.
        for (size_t J = 0; J < I; ++J)
          EXPECT_EQ(Captured[J].load(), 1) << "capture order violated";
        Captured[I].store(1);
      },
      [&](size_t I) {
        // A replay only runs after its own capture completed.
        EXPECT_EQ(Captured[I].load(), 1) << "replay before capture";
        Replayed[I].fetch_add(1);
      });
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Replayed[I].load(), 1) << "index " << I;

  // Degenerate cases.
  pipelineSweep(0, 4, [](size_t) { FAIL(); }, [](size_t) { FAIL(); });
  std::atomic<int> Solo{0};
  pipelineSweep(3, 1, [](size_t) {}, [&](size_t) { Solo.fetch_add(1); });
  EXPECT_EQ(Solo.load(), 3);
}

TEST(PipelineSweep, PropagatesExceptionsAndSkipsUncaptured) {
  // Replay exception.
  EXPECT_THROW(pipelineSweep(4, 2, [](size_t) {},
                             [](size_t I) {
                               if (I == 2)
                                 throw std::runtime_error("replay failed");
                             }),
               std::runtime_error);

  // Capture exception: replays of never-captured workloads are skipped.
  std::atomic<int> Ran{0};
  EXPECT_THROW(pipelineSweep(
                   6, 2,
                   [](size_t I) {
                     if (I == 1)
                       throw std::runtime_error("capture failed");
                   },
                   [&](size_t I) {
                     EXPECT_EQ(I, 0u) << "replayed an uncaptured workload";
                     Ran.fetch_add(1);
                   }),
               std::runtime_error);
  EXPECT_EQ(Ran.load(), 1);
}

TEST(GangReplay, DecodeFingerprintGroupsStructurallyEqualLayouts) {
  // Two layouts built independently for the same (benchmark, variant)
  // must fingerprint equal (they decode identically, so members built
  // once per CPU share one GroupDecoder); different variants must not.
  ForthLab &Lab = forthLab();
  VariantSpec Threaded = makeVariant(DispatchStrategy::Threaded);
  VariantSpec Switch = makeVariant(DispatchStrategy::Switch);
  auto A = Lab.buildLayout("gray", Threaded);
  auto B = Lab.buildLayout("gray", Threaded);
  auto C = Lab.buildLayout("gray", Switch);
  EXPECT_NE(A.get(), B.get());
  EXPECT_EQ(gang::decodeFingerprint(*A), gang::decodeFingerprint(*B));
  EXPECT_NE(gang::decodeFingerprint(*A), gang::decodeFingerprint(*C));
}

TEST(GangReplay, CrossCpuMembersShareDecodedStreamBitIdentical) {
  // Members that differ only in CPU I-cache geometry — with layout
  // objects built independently per CPU, as a per-CPU bench would —
  // group by fingerprint and share one decoded stream; counters still
  // match the exact oracle on every CPU.
  ForthLab &Lab = forthLab();
  CpuConfig P4 = makePentium4Northwood();
  CpuConfig Cel = makeCeleron800();
  CpuConfig Athlon = makeAthlon1200();
  VariantSpec Threaded = makeVariant(DispatchStrategy::Threaded);

  GangReplayer Gang(Lab.trace("gray"));
  Gang.addDefault(Lab.buildLayout("gray", Threaded), P4);
  Gang.addDefault(Lab.buildLayout("gray", Threaded), Cel);
  Gang.addDefault(Lab.buildLayout("gray", Threaded), Athlon);
  std::vector<PerfCounters> R = Gang.run();
  ASSERT_EQ(R.size(), 3u);
  const DispatchTrace &Trace = Lab.trace("gray");
  const std::pair<const char *, const CpuConfig *> Cpus[] = {
      {"p4", &P4}, {"celeron", &Cel}, {"athlon", &Athlon}};
  for (size_t I = 0; I < std::size(Cpus); ++I) {
    const CpuConfig &Cpu = *Cpus[I].second;
    expectEqualCounters(exactOracle(Trace, "gray", Threaded, Cpu, BTB(Cpu.Btb)),
                        R[I], Cpus[I].first);
  }
}

namespace {

/// Builds the mixed-tier Forth gang of the thread-invariance matrix
/// over \p Trace and runs it: full members on two CPUs (separately
/// built layouts — fingerprint-grouped), a tiny-BTB member that
/// overflows and restarts on the exact BTB, baseline-linked
/// predictor-only members, and a group of one decoded on its worker.
std::vector<PerfCounters>
runForthMatrixGang(const DispatchTrace &Trace, size_t Chunk, unsigned Threads,
                   GangReplayer::Stats *StatsOut = nullptr) {
  ForthLab &Lab = forthLab();
  CpuConfig P4 = makePentium4Northwood();
  CpuConfig Cel = makeCeleron800();
  VariantSpec Threaded = makeVariant(DispatchStrategy::Threaded);
  VariantSpec Switch = makeVariant(DispatchStrategy::Switch);

  GangReplayer Gang(Trace, Chunk);
  std::shared_ptr<DispatchProgram> L = Lab.buildLayout("gray", Threaded);
  size_t Base = Gang.addBtb(L, P4, P4.Btb);
  Gang.addDefault(Lab.buildLayout("gray", Threaded), Cel); // fingerprint
  BTBConfig Tiny;
  Tiny.Entries = 16;
  Tiny.Ways = 2;
  Gang.addBtb(L, P4, Tiny); // overflows -> restarts on the exact BTB
  BTBConfig TwoBit = P4.Btb;
  TwoBit.TwoBitCounters = true;
  Gang.addBtbPredictorOnly(L, P4, TwoBit, Base);
  TwoLevelConfig TL;
  Gang.addPredictorOnly(L, P4, TwoLevelPredictor(TL), Base);
  Gang.addPredictor(Lab.buildLayout("gray", Switch), P4,
                    CaseBlockTable(1024)); // group of one
  return Gang.run(Threads, StatsOut);
}

/// The layout factory of a JVM member: (\p Benchmark, \p V) built over
/// the member's program copy.
gang::LayoutFactory javaLayouts(const std::string &Benchmark,
                                const VariantSpec &V) {
  return [Benchmark, V](const VMProgram &Over) {
    return javaLab().buildLayout(Benchmark, V, Over);
  };
}

/// The JVM quickening gang of the matrix: every member re-applies the
/// recorded rewrites to its own program copy, decoding the stretches
/// between them on the optimistic tier into its worker's scratch.
const std::vector<VariantSpec> &javaMatrixVariants() {
  static const std::vector<VariantSpec> Variants = {
      makeVariant(DispatchStrategy::Threaded),
      makeVariant(DispatchStrategy::DynamicSuper),
      makeVariant(DispatchStrategy::Switch)};
  return Variants;
}

std::vector<PerfCounters>
runJavaMatrixGang(const DispatchTrace &Trace, size_t Chunk, unsigned Threads) {
  JavaLab &Lab = javaLab();
  CpuConfig P4 = makePentium4Northwood();
  GangReplayer Gang(Trace, Chunk);
  for (const VariantSpec &V : javaMatrixVariants())
    Gang.addQuickening(Lab.program("jess").Program, javaLayouts("jess", V),
                       P4);
  return Gang.run(Threads);
}

} // namespace

TEST(GangReplay, ForthThreadCountInvarianceMatrix) {
  // The parallel-replay contract: any (threads, chunk) combination is
  // bit-identical to the serial gang — including the member that
  // restarts on the exact BTB and the fingerprint-shared cross-CPU
  // group.
  // Chunk=1 over a 60K-event prefix gives the scheduler tens of
  // thousands of tiny tiles, so the claim/steal machinery is exercised
  // under maximal contention (a forced-steal schedule, not a lucky
  // one).
  ForthLab &Lab = forthLab();
  DispatchTrace Prefix = prefixTrace(Lab.trace("gray"), 60000);
  ASSERT_GT(Prefix.numEvents(), 0u);
  std::vector<PerfCounters> Serial =
      runForthMatrixGang(Prefix, /*Chunk=*/4096, /*Threads=*/1);
  for (size_t Chunk : {size_t{1}, size_t{4096}, size_t{65536}})
    for (unsigned Threads : {1u, 2u, 3u, 8u}) {
      std::vector<PerfCounters> R = runForthMatrixGang(Prefix, Chunk, Threads);
      ASSERT_EQ(R.size(), Serial.size());
      for (size_t I = 0; I < R.size(); ++I)
        expectEqualCounters(Serial[I], R[I],
                            "member " + std::to_string(I) + " chunk " +
                                std::to_string(Chunk) + " threads " +
                                std::to_string(Threads));
    }
}

TEST(GangReplay, JavaThreadCountInvarianceMatrix) {
  // Same matrix over quickening members: each owns a mutating program
  // copy and decodes its stretches between rewrites on the optimistic
  // tier, and must stay bit-identical for any thread count and tile
  // size (1-event tiles split nowhere; 4K tiles split at records).
  JavaLab &Lab = javaLab();
  DispatchTrace Prefix = prefixTrace(Lab.trace("jess"), 60000);
  ASSERT_GT(Prefix.numEvents(), 0u);
  ASSERT_GT(Prefix.numQuickens(), 0u)
      << "prefix must cover quickening rewrites to exercise the tier";
  std::vector<PerfCounters> Serial =
      runJavaMatrixGang(Prefix, /*Chunk=*/4096, /*Threads=*/1);
  // The serial gang itself equals the exact oracle, each member over
  // its own fresh program copy with the rewrites applied in place.
  CpuConfig P4 = makePentium4Northwood();
  ASSERT_EQ(Serial.size(), javaMatrixVariants().size());
  for (size_t I = 0; I < Serial.size(); ++I) {
    VMProgram Copy = Lab.program("jess").Program;
    auto Layout = Lab.buildLayout("jess", javaMatrixVariants()[I], Copy);
    expectEqualCounters(exactOracle(Prefix, *Layout, &Copy, P4, BTB(P4.Btb)),
                        Serial[I],
                        "oracle/" + javaMatrixVariants()[I].Name);
  }
  for (size_t Chunk : {size_t{1}, size_t{4096}, size_t{65536}})
    for (unsigned Threads : {1u, 2u, 3u, 8u}) {
      std::vector<PerfCounters> R = runJavaMatrixGang(Prefix, Chunk, Threads);
      ASSERT_EQ(R.size(), Serial.size());
      for (size_t I = 0; I < R.size(); ++I)
        expectEqualCounters(Serial[I], R[I],
                            "member " + std::to_string(I) + " chunk " +
                                std::to_string(Chunk) + " threads " +
                                std::to_string(Threads));
    }
}

namespace {

/// Where the optimistic models of one configuration first overflow:
/// the 1-based count of events replayed when the flag rose, 0 if it
/// never does. Found by stepping the fused kernel event by event (the
/// recorded quickenings applied to \p Program, as exactOracle does;
/// null for quicken-free traces), so the restart matrices can pin
/// which tile each restart lands in.
struct OverflowAt {
  size_t Btb = 0;
  size_t ICache = 0;
};

OverflowAt firstOverflows(const DispatchTrace &Trace, DispatchProgram &Layout,
                          VMProgram *Program, const CpuConfig &Cpu,
                          const BTBConfig &Btb) {
  sim::DispatchStateT<NoEvictICache> S(Cpu.ICache);
  NoEvictBTB Pred(Btb);
  sim::NullObserver Obs;
  const std::vector<DispatchTrace::QuickenRecord> &Quickens =
      Trace.quickens();
  size_t Q = 0;
  OverflowAt At;
  for (size_t I = 0; I < Trace.numEvents(); ++I) {
    sim::step(Layout, S, Pred, Obs, DispatchTrace::cur(Trace.events()[I]),
              DispatchTrace::next(Trace.events()[I]));
    for (; Q < Quickens.size() && Quickens[Q].AfterEvents == I + 1; ++Q) {
      Program->Code[Quickens[Q].Index] = Quickens[Q].NewInstr;
      Layout.onQuicken(Quickens[Q].Index);
    }
    if (At.Btb == 0 && Pred.overflowed())
      At.Btb = I + 1;
    if (At.ICache == 0 && S.ICache.overflowed())
      At.ICache = I + 1;
  }
  return At;
}

/// The tile (of \p Chunk events) holding the \p At-th event.
size_t tileOf(size_t At, size_t Chunk) { return (At - 1) / Chunk; }

} // namespace

TEST(GangReplay, RestartMatrixBitIdenticalToExactOracle) {
  // Every optimistic member type overflows, once inside tile 0 (64K
  // tiles) and once at a later tile (1K tiles), and restarts in place
  // on its exact tier: the counters equal the exact oracle for every
  // thread count, on materialized and streaming sources, and the stats
  // count each restarted member once.
  ForthLab &Lab = forthLab();
  CpuConfig Cel = makeCeleron800();
  DispatchTrace Prefix = prefixTrace(Lab.trace("gray"), 150000);
  ASSERT_EQ(Prefix.numEvents(), 150000u);
  std::shared_ptr<DispatchProgram> LPlain =
      Lab.buildLayout("gray", makeVariant(DispatchStrategy::Threaded));
  std::shared_ptr<DispatchProgram> LRepl =
      Lab.buildLayout("gray", makeVariant(DispatchStrategy::StaticRepl));
  VariantSpec RandomRepl = makeVariant(DispatchStrategy::StaticRepl, 400, 1200);
  RandomRepl.Config.Policy = ReplicaPolicy::Random;
  std::shared_ptr<DispatchProgram> LRandom =
      Lab.buildLayout("gray", RandomRepl);
  BTBConfig Tiny;
  Tiny.Entries = 128;
  Tiny.Ways = 2;
  BTBConfig Ideal;
  Ideal.Entries = 0; // the exact BTB from the start
  Ideal.Ways = 4;
  TwoLevelConfig TL;

  // Pin where each restart lands: inside tile 0 of 64K tiles, and at
  // least two tiles in with 1K tiles.
  constexpr size_t Big = 65536, Small = 1024;
  auto ExpectRestartTiles = [&](size_t At, const char *What) {
    ASSERT_NE(At, 0u) << What << " never overflows";
    EXPECT_EQ(tileOf(At, Big), 0u) << What;
    EXPECT_GE(tileOf(At, Small), 2u) << What;
  };
  OverflowAt PlainTiny = firstOverflows(Prefix, *LPlain, nullptr, Cel, Tiny);
  ExpectRestartTiles(PlainTiny.Btb, "plain/tiny BTB");
  EXPECT_EQ(PlainTiny.ICache, 0u);
  OverflowAt ReplDefault =
      firstOverflows(Prefix, *LRepl, nullptr, Cel, Cel.Btb);
  ExpectRestartTiles(ReplDefault.Btb, "static repl/default BTB");
  ExpectRestartTiles(ReplDefault.ICache, "static repl/Celeron I-cache");
  // BTB first, I-cache later: two restarts with 1K tiles.
  EXPECT_LT(tileOf(ReplDefault.Btb, Small), tileOf(ReplDefault.ICache, Small));
  ExpectRestartTiles(
      firstOverflows(Prefix, *LRandom, nullptr, Cel, Cel.Btb).ICache,
      "random repl/Celeron I-cache");

  // Exact-oracle references (predictor-only members equal the full
  // exact replay under their predictor).
  std::vector<PerfCounters> Ref = {
      exactOracle(Prefix, *LPlain, nullptr, Cel, BTB(Tiny)),
      exactOracle(Prefix, *LRepl, nullptr, Cel, BTB(Cel.Btb)),
      exactOracle(Prefix, *LRepl, nullptr, Cel, BTB(Ideal)),
      exactOracle(Prefix, *LRepl, nullptr, Cel, BTB(Cel.Btb)),
      exactOracle(Prefix, *LRepl, nullptr, Cel, TwoLevelPredictor(TL)),
      exactOracle(Prefix, *LRandom, nullptr, Cel, CaseBlockTable(4096))};
  const char *Names[] = {"tiny BTB (BTB restart, group of one)",
                         "default BTB (BTB then I-cache restart)",
                         "idealised BTB (I-cache restart)",
                         "BTB predictor-only (restarted baseline)",
                         "two-level predictor-only (restarted baseline)",
                         "case-block (I-cache restart, group of one)"};
  constexpr uint64_t Restarted = 5; // all but the two-level member

  ScratchDir Scratch;
  const std::string Path = Scratch / "restart-matrix.vmibtrace";
  constexpr uint64_t WorkloadHash = 0x5eed5eedULL;
  ASSERT_TRUE(Prefix.save(Path, WorkloadHash));
  TraceSource Streamed;
  std::string Diag;
  ASSERT_TRUE(TraceSource::openStreaming(Path, WorkloadHash, Streamed, &Diag))
      << Diag;
  TraceSource Materialized(Prefix);

  for (const TraceSource *Src : {&Materialized, &Streamed})
    for (size_t Chunk : {Big, Small})
      for (unsigned Threads : {1u, 2u, 3u, 8u}) {
        GangReplayer Gang(*Src, Chunk);
        Gang.addBtb(LPlain, Cel, Tiny);
        size_t Base = Gang.addDefault(LRepl, Cel);
        Gang.addBtb(LRepl, Cel, Ideal);
        Gang.addBtbPredictorOnly(LRepl, Cel, Cel.Btb, Base);
        Gang.addPredictorOnly(LRepl, Cel, TwoLevelPredictor(TL), Base);
        Gang.addPredictor(LRandom, Cel, CaseBlockTable(4096));
        GangReplayer::Stats St;
        std::vector<PerfCounters> R = Gang.run(Threads, &St);
        std::string Shape =
            std::string(Src->streaming() ? "streamed" : "materialized") +
            " chunk " + std::to_string(Chunk) + " threads " +
            std::to_string(Threads);
        ASSERT_EQ(R.size(), Ref.size()) << Shape;
        for (size_t I = 0; I < R.size(); ++I)
          expectEqualCounters(Ref[I], R[I],
                              std::string(Names[I]) + ", " + Shape);
        EXPECT_EQ(St.DeferredFinishes, Restarted) << Shape;
      }
}

TEST(GangReplay, JavaRestartMatrixBitIdenticalToExactOracle) {
  // Quickening members restart in place like Forth members — on the
  // exact BTB, on the exact I-cache, or both — while quicken records
  // still lie ahead of the overflow. The catch-up replays a second
  // fresh program copy with the records re-applied, and the member
  // goes on splitting its tiles at the records after it: the counters
  // equal the exact oracle for every thread count, tile size and
  // source, and the stats count each restarted member once.
  JavaLab &Lab = javaLab();
  CpuConfig Cel = makeCeleron800();
  const std::string Bench = "jack";
  DispatchTrace Prefix = prefixTrace(Lab.trace(Bench), 150000);
  ASSERT_EQ(Prefix.numEvents(), 150000u);
  const size_t LastRecord = Prefix.quickens().back().AfterEvents;
  const VMProgram &Pristine = Lab.program(Bench).Program;
  VariantSpec Plain = makeVariant(DispatchStrategy::Threaded);
  VariantSpec Super = makeVariant(DispatchStrategy::StaticSuper);
  VariantSpec Repl = makeVariant(DispatchStrategy::StaticRepl);
  BTBConfig Tiny;
  Tiny.Entries = 128;
  Tiny.Ways = 2;
  BTBConfig Ideal;
  Ideal.Entries = 0; // the exact BTB from the start
  Ideal.Ways = 4;

  // Pin where each restart lands: inside tile 0 of 64K tiles, at least
  // two tiles in with 1K tiles, and before a later quicken record.
  constexpr size_t Big = 65536, Small = 1024;
  auto Overflows = [&](const VariantSpec &V, const BTBConfig &Btb) {
    VMProgram Copy = Pristine;
    auto Layout = Lab.buildLayout(Bench, V, Copy);
    return firstOverflows(Prefix, *Layout, &Copy, Cel, Btb);
  };
  auto ExpectRestartTiles = [&](size_t At, const char *What) {
    ASSERT_NE(At, 0u) << What << " never overflows";
    EXPECT_EQ(tileOf(At, Big), 0u) << What;
    EXPECT_GE(tileOf(At, Small), 2u) << What;
    EXPECT_LT(At, LastRecord) << What << ": no quicken record after it";
  };
  OverflowAt SuperTiny = Overflows(Super, Tiny);
  ExpectRestartTiles(SuperTiny.Btb, "static super/tiny BTB");
  EXPECT_EQ(SuperTiny.ICache, 0u);
  OverflowAt ReplDefault = Overflows(Repl, Cel.Btb);
  ExpectRestartTiles(ReplDefault.Btb, "static repl/default BTB");
  ExpectRestartTiles(ReplDefault.ICache, "static repl/Celeron I-cache");
  // BTB first, I-cache later: two restarts with 1K tiles.
  EXPECT_LT(tileOf(ReplDefault.Btb, Small), tileOf(ReplDefault.ICache, Small));
  OverflowAt PlainDefault = Overflows(Plain, Cel.Btb);
  EXPECT_EQ(PlainDefault.Btb, 0u);
  EXPECT_EQ(PlainDefault.ICache, 0u);

  struct Member {
    const char *Name;
    VariantSpec V;
    BTBConfig Btb;
  };
  const std::vector<Member> Members = {
      {"static super, tiny BTB (BTB restart)", Super, Tiny},
      {"static repl, idealised BTB (I-cache restart)", Repl, Ideal},
      {"static repl, default BTB (BTB then I-cache restart)", Repl, Cel.Btb},
      {"plain, default BTB (no restart)", Plain, Cel.Btb}};
  constexpr uint64_t Restarted = 3;
  std::vector<PerfCounters> Ref;
  for (const Member &M : Members) {
    VMProgram Copy = Pristine;
    auto Layout = Lab.buildLayout(Bench, M.V, Copy);
    Ref.push_back(exactOracle(Prefix, *Layout, &Copy, Cel, BTB(M.Btb)));
  }

  ScratchDir Scratch;
  const std::string Path = Scratch / "java-restart-matrix.vmibtrace";
  constexpr uint64_t WorkloadHash = 0x7a7a5eedULL;
  ASSERT_TRUE(Prefix.save(Path, WorkloadHash));
  TraceSource Streamed;
  std::string Diag;
  ASSERT_TRUE(TraceSource::openStreaming(Path, WorkloadHash, Streamed, &Diag))
      << Diag;
  ASSERT_EQ(Streamed.numQuickens(), Prefix.numQuickens());
  TraceSource Materialized(Prefix);

  for (const TraceSource *Src : {&Materialized, &Streamed})
    for (size_t Chunk : {Big, Small})
      for (unsigned Threads : {1u, 2u, 3u, 8u}) {
        GangReplayer Gang(*Src, Chunk);
        for (const Member &M : Members)
          Gang.addQuickening(Pristine, javaLayouts(Bench, M.V), Cel, M.Btb);
        GangReplayer::Stats St;
        std::vector<PerfCounters> R = Gang.run(Threads, &St);
        std::string Shape =
            std::string(Src->streaming() ? "streamed" : "materialized") +
            " chunk " + std::to_string(Chunk) + " threads " +
            std::to_string(Threads);
        ASSERT_EQ(R.size(), Ref.size()) << Shape;
        for (size_t I = 0; I < R.size(); ++I)
          expectEqualCounters(Ref[I], R[I],
                              std::string(Members[I].Name) + ", " + Shape);
        EXPECT_EQ(St.DeferredFinishes, Restarted) << Shape;
      }
}

TEST(GangReplay, SchedulerStatsAccountGangWork) {
  // The imbalance-reporting contract: the pool stats must add up — on
  // a no-dropout gang every worker row is populated and the events
  // replayed, plan and steals together, sum to members × trace events.
  ForthLab &Lab = forthLab();
  CpuConfig P4 = makePentium4Northwood();
  VariantSpec Threaded = makeVariant(DispatchStrategy::Threaded);
  DispatchTrace Prefix = prefixTrace(Lab.trace("gray"), 60000);
  std::shared_ptr<DispatchProgram> L = Lab.buildLayout("gray", Threaded);
  constexpr size_t NumMembers = 5;

  GangReplayer Pooled(Prefix, /*Chunk=*/4096);
  for (size_t I = 0; I < NumMembers; ++I)
    Pooled.addDefault(L, P4);
  GangReplayer::Stats St;
  std::vector<PerfCounters> R = Pooled.run(3, &St);
  ASSERT_EQ(R.size(), NumMembers);
  ASSERT_EQ(St.Workers.size(), 3u);
  uint64_t Events = 0;
  double Busy = 0;
  for (const GangReplayer::Stats::Worker &W : St.Workers) {
    Events += W.EventsReplayed;
    Busy += W.BusySeconds;
  }
  EXPECT_EQ(Events, Prefix.numEvents() * NumMembers);
  EXPECT_EQ(St.MemberEvents, Prefix.numEvents() * NumMembers);
  EXPECT_GT(Busy, 0.0);
  EXPECT_EQ(St.DeferredFinishes, 0u);
  EXPECT_GE(St.FinishSeconds, 0.0);

  // Serial runs have no pool to account, but still report their work.
  GangReplayer Serial(Prefix, 4096);
  Serial.addDefault(L, P4);
  GangReplayer::Stats SerialSt;
  (void)Serial.run(1, &SerialSt);
  EXPECT_TRUE(SerialSt.Workers.empty());
  EXPECT_EQ(SerialSt.MemberEvents, Prefix.numEvents());
}

TEST(GangReplay, ThreadedFullTraceMatchesDirectRun) {
  // End to end on the full traces: the threaded lab gang equals direct
  // interpretation on both suites (not just the serial gang).
  ForthLab &FLab = forthLab();
  CpuConfig P4 = makePentium4Northwood();
  std::vector<VariantSpec> FVariants = {
      makeVariant(DispatchStrategy::Threaded),
      makeVariant(DispatchStrategy::StaticRepl),
      makeVariant(DispatchStrategy::DynamicBoth)};
  std::vector<PerfCounters> FGang =
      FLab.replayGang("gray", FVariants, P4, /*Threads=*/4);
  ASSERT_EQ(FGang.size(), FVariants.size());
  for (size_t I = 0; I < FVariants.size(); ++I)
    expectEqualCounters(FLab.run("gray", FVariants[I], P4), FGang[I],
                        "forth threaded gang/" + FVariants[I].Name);

  JavaLab &JLab = javaLab();
  std::vector<VariantSpec> JVariants = {
      makeVariant(DispatchStrategy::Threaded),
      makeVariant(DispatchStrategy::DynamicSuper)};
  std::vector<PerfCounters> JGang =
      JLab.replayGang("jess", JVariants, P4, /*Threads=*/4);
  ASSERT_EQ(JGang.size(), JVariants.size());
  for (size_t I = 0; I < JVariants.size(); ++I)
    expectEqualCounters(JLab.run("jess", JVariants[I], P4), JGang[I],
                        "java threaded gang/" + JVariants[I].Name);
}

TEST(GangReplay, StateBytesAuditCoversModels) {
  // The packing audit: model state must be accounted (non-zero, and
  // scaling with the table geometry) so gang sizing decisions have
  // real numbers to work with.
  BTBConfig Big;
  Big.Entries = 4096;
  BTBConfig Small;
  Small.Entries = 64;
  EXPECT_GT(BTB(Big).stateBytes(), BTB(Small).stateBytes());
  EXPECT_GT(NoEvictBTB(Big).stateBytes(), NoEvictBTB(Small).stateBytes());
  TwoLevelConfig TL;
  EXPECT_GT(TwoLevelPredictor(TL).stateBytes(), 0u);
  EXPECT_GT(CaseBlockTable(4096).stateBytes(), 0u);
  ICacheConfig IC;
  EXPECT_GT(InstructionCache(IC).stateBytes(), 0u);
  // The no-evict model carries tags only — the dense-packing audit
  // point: strictly smaller than the exact model it shadows.
  EXPECT_LT(NoEvictICache(IC).stateBytes(),
            InstructionCache(IC).stateBytes());

  NoEvictICache Cache(IC);
  (void)Cache.access(0x1000, 64);
  Cache.reset();
  EXPECT_FALSE(Cache.overflowed());
}
