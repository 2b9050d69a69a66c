//===- tests/ReplayTest.cpp - replay vs direct interpretation -------------===//
///
/// The contract of capture-once replay: counters produced by replaying
/// a captured DispatchTrace through GangReplayer must be *bit-identical*
/// to the counters of a direct interpretation-driven DispatchSim run
/// (Lab.run / ForthLab::runWithPredictor, the oracle) — for every
/// variant (including the Fig. 6 side-entry fallback of "w/static
/// super across" and the quickening-driven layout patching of the
/// JVM), every benchmark of both suites, every predictor tier, the
/// optimistic models' overflow restarts, and more than one CPU model.
/// Also covers the trace container itself. The engine's own contracts
/// (tile and thread invariance, restarts at pinned tiles, streaming
/// sources) live in tests/GangReplayTest.cpp; this suite runs beside
/// it.
///
//===----------------------------------------------------------------------===//

#include "harness/ForthLab.h"
#include "harness/JavaLab.h"
#include "uarch/CaseBlockTable.h"
#include "uarch/TwoLevelPredictor.h"
#include "vmcore/GangReplayer.h"

#include <gtest/gtest.h>

#include <iterator>
#include <utility>

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

void expectEqualCounters(const PerfCounters &Direct,
                         const PerfCounters &Replayed,
                         const std::string &What) {
  EXPECT_EQ(Direct.Cycles, Replayed.Cycles) << What;
  EXPECT_EQ(Direct.Instructions, Replayed.Instructions) << What;
  EXPECT_EQ(Direct.VMInstructions, Replayed.VMInstructions) << What;
  EXPECT_EQ(Direct.IndirectBranches, Replayed.IndirectBranches) << What;
  EXPECT_EQ(Direct.Mispredictions, Replayed.Mispredictions) << What;
  EXPECT_EQ(Direct.ICacheMisses, Replayed.ICacheMisses) << What;
  EXPECT_EQ(Direct.MissCycles, Replayed.MissCycles) << What;
  EXPECT_EQ(Direct.CodeBytes, Replayed.CodeBytes) << What;
  EXPECT_EQ(Direct.DispatchCount, Replayed.DispatchCount) << What;
}

} // namespace

TEST(DispatchTrace, PackRoundTrip) {
  EXPECT_EQ(DispatchTrace::cur(DispatchTrace::pack(7, 12)), 7u);
  EXPECT_EQ(DispatchTrace::next(DispatchTrace::pack(7, 12)), 12u);
  EXPECT_EQ(DispatchTrace::next(DispatchTrace::pack(1, 0xffffffffu)),
            0xffffffffu);
  EXPECT_EQ(DispatchTrace::cur(DispatchTrace::pack(0xfffffffeu, 3)),
            0xfffffffeu);
}

TEST(DispatchTrace, ArenaClearKeepsCapacity) {
  DispatchTrace T;
  for (uint32_t I = 0; I < 1000; ++I)
    T.append(I, I + 1);
  T.appendQuicken(5, VMInstr{1, 2, 3});
  EXPECT_EQ(T.numEvents(), 1000u);
  EXPECT_EQ(T.numQuickens(), 1u);
  EXPECT_EQ(T.quickens()[0].AfterEvents, 1000u);
  uint64_t Bytes = T.memoryBytes();
  EXPECT_GE(Bytes, 8000u);
  T.clear();
  EXPECT_TRUE(T.empty());
  EXPECT_EQ(T.numQuickens(), 0u);
  // clear() is an arena reset: capacity survives for the next capture.
  EXPECT_EQ(T.memoryBytes(), Bytes);
}

TEST(ReplayEquivalence, ForthAllVariantsBitIdentical) {
  // One gang per benchmark covering the full variant matrix (fig07/08
  // shape, plus switch dispatch).
  ForthLab &Lab = forthLab();
  CpuConfig P4 = makePentium4Northwood();
  std::vector<VariantSpec> Variants = gforthVariants();
  Variants.push_back(makeVariant(DispatchStrategy::Switch));
  for (const std::string &Bench : {std::string("gray"),
                                   std::string("vmgen")}) {
    std::vector<PerfCounters> Gang = Lab.replayGang(Bench, Variants, P4);
    ASSERT_EQ(Gang.size(), Variants.size());
    for (size_t I = 0; I < Variants.size(); ++I)
      expectEqualCounters(Lab.run(Bench, Variants[I], P4), Gang[I],
                          Bench + "/" + Variants[I].Name + "/P4");
  }
}

TEST(ReplayEquivalence, ForthCeleronBitIdentical) {
  // A second CPU model: different BTB/I-cache geometry and penalties.
  ForthLab &Lab = forthLab();
  CpuConfig Cel = makeCeleron800();
  std::vector<VariantSpec> Variants = {
      makeVariant(DispatchStrategy::Threaded),
      makeVariant(DispatchStrategy::DynamicSuper),
      makeVariant(DispatchStrategy::WithStaticSuper)};
  std::vector<PerfCounters> Gang = Lab.replayGang("cross", Variants, Cel);
  ASSERT_EQ(Gang.size(), Variants.size());
  for (size_t I = 0; I < Variants.size(); ++I)
    expectEqualCounters(Lab.run("cross", Variants[I], Cel), Gang[I],
                        "cross/" + Variants[I].Name + "/celeron");
}

TEST(ReplayEquivalence, JavaAllVariantsBitIdentical) {
  // Quickening members: every variant re-applies the recorded rewrites
  // to its own program copy; includes the Fig. 6 side-entry fallback
  // variant ("w/static super across").
  JavaLab &Lab = javaLab();
  CpuConfig P4 = makePentium4Northwood();
  std::vector<VariantSpec> Variants = jvmVariants();
  for (const std::string &Bench : {std::string("jess"),
                                   std::string("javac")}) {
    std::vector<PerfCounters> Gang = Lab.replayGang(Bench, Variants, P4);
    ASSERT_EQ(Gang.size(), Variants.size());
    for (size_t I = 0; I < Variants.size(); ++I)
      expectEqualCounters(Lab.run(Bench, Variants[I], P4), Gang[I],
                          Bench + "/" + Variants[I].Name);
  }
}

TEST(ReplayEquivalence, FullSuitesBitIdentical) {
  // Every other benchmark of both suites, plain threaded plus a
  // replicating variant, one gang per benchmark (the all-variant
  // matrices above cover gray, vmgen, jess and javac; this closes the
  // per-benchmark gap). Java members re-apply the quickenings and
  // include the runtime overhead, like run().
  CpuConfig P4 = makePentium4Northwood();
  std::vector<VariantSpec> Variants = {
      makeVariant(DispatchStrategy::Threaded),
      makeVariant(DispatchStrategy::DynamicBoth)};
  auto CoveredAbove = [](const std::string &Name) {
    return Name == "gray" || Name == "vmgen" || Name == "jess" ||
           Name == "javac";
  };

  ForthLab &FLab = forthLab();
  for (const ForthBenchmark &B : forthSuite()) {
    if (CoveredAbove(B.Name))
      continue;
    std::vector<PerfCounters> Gang = FLab.replayGang(B.Name, Variants, P4);
    for (size_t I = 0; I < Variants.size(); ++I)
      expectEqualCounters(FLab.run(B.Name, Variants[I], P4), Gang[I],
                          "forth-suite/" + B.Name + "/" + Variants[I].Name);
  }

  JavaLab &JLab = javaLab();
  for (const JavaBenchmark &B : javaSuite()) {
    if (CoveredAbove(B.Name))
      continue;
    std::vector<PerfCounters> Gang = JLab.replayGang(B.Name, Variants, P4);
    for (size_t I = 0; I < Variants.size(); ++I)
      expectEqualCounters(JLab.run(B.Name, Variants[I], P4), Gang[I],
                          "java-suite/" + B.Name + "/" + Variants[I].Name);
  }
}

TEST(ReplayEquivalence, JavaTraceRecordsQuickenings) {
  JavaLab &Lab = javaLab();
  const DispatchTrace &T = Lab.trace("jess");
  EXPECT_GT(T.numEvents(), 0u);
  // Table VII: jess quickens 35 instructions.
  EXPECT_EQ(T.numQuickens(), 35u);
  // Quicken positions are monotonically non-decreasing event indices.
  uint64_t Last = 0;
  for (const DispatchTrace::QuickenRecord &Q : T.quickens()) {
    EXPECT_GE(Q.AfterEvents, Last);
    Last = Q.AfterEvents;
  }
}

TEST(ReplayEquivalence, DevirtualizedPredictorsMatchVirtualPath) {
  // Full gang members with concrete predictor types (predict/update
  // inlined into the tile loop) vs the direct run's virtual calls.
  ForthLab &Lab = forthLab();
  CpuConfig P4 = makePentium4Northwood();
  VariantSpec Threaded = makeVariant(DispatchStrategy::Threaded);
  VariantSpec Switch = makeVariant(DispatchStrategy::Switch);
  TwoLevelConfig TL;

  GangReplayer Gang(Lab.trace("gray"));
  Gang.addPredictor(Lab.buildLayout("gray", Threaded), P4,
                    TwoLevelPredictor(TL));
  // Case block table under switch dispatch (hint-indexed).
  Gang.addPredictor(Lab.buildLayout("gray", Switch), P4,
                    CaseBlockTable(4096));
  std::vector<PerfCounters> R = Gang.run();
  ASSERT_EQ(R.size(), 2u);
  expectEqualCounters(
      Lab.runWithPredictor("gray", Threaded, P4,
                           std::make_unique<TwoLevelPredictor>(TL)),
      R[0], "two-level devirtualized");
  expectEqualCounters(
      Lab.runWithPredictor("gray", Switch, P4,
                           std::make_unique<CaseBlockTable>(4096)),
      R[1], "case-block devirtualized");
}

TEST(ReplayEquivalence, BtbFastPathAndOverflowFallbackBitIdentical) {
  ForthLab &Lab = forthLab();
  CpuConfig P4 = makePentium4Northwood();
  VariantSpec Threaded = makeVariant(DispatchStrategy::Threaded);

  // Default-size BTB: the no-evict fast path never overflows here.
  // Tiny BTB: sets overflow, forcing a restart on the exact-LRU BTB.
  // Two-bit counters ride the no-evict fast path too.
  BTBConfig Tiny;
  Tiny.Entries = 64;
  Tiny.Ways = 4;
  BTBConfig TwoBit = P4.Btb;
  TwoBit.TwoBitCounters = true;
  const std::pair<const char *, BTBConfig> Configs[] = {
      {"default", P4.Btb}, {"tiny/overflow restart", Tiny},
      {"two-bit", TwoBit}};
  GangReplayer Gang(Lab.trace("gray"));
  std::shared_ptr<DispatchProgram> Layout = Lab.buildLayout("gray", Threaded);
  for (const auto &[Name, Config] : Configs)
    Gang.addBtb(Layout, P4, Config);
  std::vector<PerfCounters> R = Gang.run();
  for (size_t I = 0; I < std::size(Configs); ++I)
    expectEqualCounters(
        Lab.runWithPredictor("gray", Threaded, P4,
                             std::make_unique<BTB>(Configs[I].second)),
        R[I], std::string("btb ") + Configs[I].first);

  // Celeron: small I-cache plus code growth overflows the no-evict
  // I-cache on a replicating variant; the member restarts on the exact
  // LRU cache.
  CpuConfig Cel = makeCeleron800();
  VariantSpec DynBoth = makeVariant(DispatchStrategy::DynamicBoth);
  expectEqualCounters(Lab.run("bench-gc", DynBoth, Cel),
                      Lab.replayGang("bench-gc", {DynBoth}, Cel)[0],
                      "celeron icache overflow restart");
}

TEST(ReplayEquivalence, PredictorOnlyReplayBitIdentical) {
  // Branch-stream-only members taking their fetch counters from a full
  // member of the same layout equal a full direct run.
  ForthLab &Lab = forthLab();
  CpuConfig P4 = makePentium4Northwood();
  VariantSpec Threaded = makeVariant(DispatchStrategy::Threaded);
  VariantSpec Switch = makeVariant(DispatchStrategy::Switch);
  TwoLevelConfig TL;

  GangReplayer Gang(Lab.trace("gray"));
  std::shared_ptr<DispatchProgram> LThreaded =
      Lab.buildLayout("gray", Threaded);
  std::shared_ptr<DispatchProgram> LSwitch = Lab.buildLayout("gray", Switch);
  size_t Base = Gang.addDefault(LThreaded, P4);
  size_t TwoLevel =
      Gang.addPredictorOnly(LThreaded, P4, TwoLevelPredictor(TL), Base);
  size_t SwitchBase = Gang.addDefault(LSwitch, P4);
  size_t Cbt =
      Gang.addPredictorOnly(LSwitch, P4, CaseBlockTable(4096), SwitchBase);
  std::vector<PerfCounters> R = Gang.run();
  expectEqualCounters(
      Lab.runWithPredictor("gray", Threaded, P4,
                           std::make_unique<TwoLevelPredictor>(TL)),
      R[TwoLevel], "predictor-only two-level");
  expectEqualCounters(
      Lab.runWithPredictor("gray", Switch, P4,
                           std::make_unique<CaseBlockTable>(4096)),
      R[Cbt], "predictor-only case-block");
}

TEST(ReplayEquivalence, OracleAndNullBaselinesBound) {
  ForthLab &Lab = forthLab();
  CpuConfig P4 = makePentium4Northwood();
  std::shared_ptr<DispatchProgram> Layout =
      Lab.buildLayout("gray", makeVariant(DispatchStrategy::Threaded));

  GangReplayer Gang(Lab.trace("gray"));
  Gang.addDefault(Layout, P4);
  Gang.addPredictor(Layout, P4, PerfectPredictor());
  Gang.addPredictor(Layout, P4, NullPredictor());
  std::vector<PerfCounters> R = Gang.run();
  const PerfCounters &Btb = R[0], &Best = R[1], &Worst = R[2];
  EXPECT_EQ(Best.Mispredictions, 0u);
  EXPECT_EQ(Worst.Mispredictions, Worst.DispatchCount);

  // Same event stream, only prediction outcomes differ.
  EXPECT_EQ(Best.DispatchCount, Btb.DispatchCount);
  EXPECT_EQ(Worst.DispatchCount, Btb.DispatchCount);
  EXPECT_EQ(Best.Instructions, Btb.Instructions);
  EXPECT_EQ(Worst.ICacheMisses, Btb.ICacheMisses);
  EXPECT_LE(Best.Cycles, Btb.Cycles);
  EXPECT_GE(Worst.Cycles, Btb.Cycles);
  EXPECT_GE(Btb.Mispredictions, Best.Mispredictions);
  EXPECT_LE(Btb.Mispredictions, Worst.Mispredictions);
}
