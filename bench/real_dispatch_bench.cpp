//===- bench/real_dispatch_bench.cpp - §2/§3 on real hardware -------------===//
///
/// Measures the genuine cost of interpreter dispatch on the host CPU
/// with google-benchmark: switch dispatch vs threaded code
/// (labels-as-values) vs threaded code with static superinstructions,
/// over loop bodies of varying size (working-set pressure on the
/// host's indirect branch predictor).
///
/// On 2003 BTB hardware the paper measured threaded >> switch; modern
/// two-level predictors (anticipated in §8) narrow the misprediction
/// gap, but the instruction-count savings of superinstructions remain
/// visible.
///
/// The *Replay* benchmarks regression-track *simulator* throughput
/// (events/sec, items_per_second): a one-member gang (a per-config
/// replay) and a five-member gang (per member-event), so a kernel
/// regression shows up here, not just in the [timing] lines of the
/// sweep benches. BM_GangReplayMixedThreaded additionally tracks
/// the threaded pool on a mixed-cost gang and surfaces
/// GangReplayer::Stats — per-worker events replayed, tiles
/// waited, steals, busy time — as a `[timing]` histogram line, so
/// worker-slice imbalance is a number in the artifact, not a guess.
/// BM_TraceDecode tracks raw trace-file load bandwidth.
///
//===----------------------------------------------------------------------===//

#include "harness/ForthLab.h"
#include "realdispatch/RealDispatch.h"
#include "uarch/TwoLevelPredictor.h"
#include "vmcore/GangReplayer.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <unistd.h>

using namespace vmib;
using namespace vmib::realdispatch;

namespace {

constexpr uint64_t IterationsPerRun = 64;

void BM_SwitchDispatch(benchmark::State &State) {
  RealProgram P = makeRealWorkload(
      static_cast<uint32_t>(State.range(0)), 42);
  int64_t Result = 0;
  for (auto _ : State)
    benchmark::DoNotOptimize(Result = runSwitchInterp(P, IterationsPerRun));
  State.SetItemsProcessed(State.iterations() * IterationsPerRun *
                          P.BodyOps);
  State.counters["result"] = static_cast<double>(Result & 0xffff);
}

void BM_ThreadedDispatch(benchmark::State &State) {
  RealProgram P = makeRealWorkload(
      static_cast<uint32_t>(State.range(0)), 42);
  int64_t Result = 0;
  for (auto _ : State)
    benchmark::DoNotOptimize(Result =
                                 runThreadedInterp(P, IterationsPerRun));
  State.SetItemsProcessed(State.iterations() * IterationsPerRun *
                          P.BodyOps);
  State.counters["result"] = static_cast<double>(Result & 0xffff);
}

void BM_SuperDispatch(benchmark::State &State) {
  RealProgram P = makeRealWorkload(
      static_cast<uint32_t>(State.range(0)), 42);
  int64_t Result = 0;
  for (auto _ : State)
    benchmark::DoNotOptimize(Result = runSuperInterp(P, IterationsPerRun));
  State.SetItemsProcessed(State.iterations() * IterationsPerRun *
                          P.BodyOps);
  State.counters["result"] = static_cast<double>(Result & 0xffff);
}

//===--- simulator-throughput tracking (replay kernels) -------------------===//

/// Shared lab: construction compiles and reference-runs the suite, so
/// amortize it across all replay benchmarks in the binary.
ForthLab &lab() {
  static ForthLab Lab;
  return Lab;
}

/// The workload all replay benchmarks stream ("gray": mid-size trace,
/// captured once and cached by the lab).
constexpr const char *ReplayBench = "gray";

void BM_ReplayFull(benchmark::State &State) {
  ForthLab &Lab = lab();
  CpuConfig Cpu = makePentium4Northwood();
  const DispatchTrace &Trace = Lab.trace(ReplayBench);
  std::shared_ptr<DispatchProgram> Layout =
      Lab.buildLayout(ReplayBench, makeVariant(DispatchStrategy::Threaded));
  for (auto _ : State) {
    GangReplayer Gang(Trace);
    Gang.addDefault(Layout, Cpu);
    PerfCounters C = Gang.run()[0];
    benchmark::DoNotOptimize(C.Cycles);
  }
  State.SetItemsProcessed(State.iterations() * Trace.numEvents());
}

void BM_GangReplay5(benchmark::State &State) {
  // Five default-BTB members over one shared layout: throughput is
  // counted per member-event, so a perfect gang shows the same
  // events/sec as BM_ReplayFull times the bandwidth reuse factor.
  ForthLab &Lab = lab();
  CpuConfig Cpu = makePentium4Northwood();
  const DispatchTrace &Trace = Lab.trace(ReplayBench);
  std::shared_ptr<DispatchProgram> Layout =
      Lab.buildLayout(ReplayBench, makeVariant(DispatchStrategy::Threaded));
  constexpr size_t GangSize = 5;
  for (auto _ : State) {
    GangReplayer Gang(Trace);
    for (size_t I = 0; I < GangSize; ++I)
      Gang.addDefault(Layout, Cpu);
    std::vector<PerfCounters> R = Gang.run();
    benchmark::DoNotOptimize(R.data());
  }
  State.SetItemsProcessed(State.iterations() * Trace.numEvents() * GangSize);
}

/// One [timing] line: the per-worker histogram of the last completed
/// gang pass. Printed once (google-benchmark re-enters the function
/// while calibrating).
void emitGangLoadLine(unsigned Threads, const GangReplayer::Stats &St) {
  std::string Events, Waits, Busy;
  uint64_t Steals = 0;
  for (size_t W = 0; W < St.Workers.size(); ++W) {
    const char *Sep = W == 0 ? "" : ",";
    Events += Sep + std::to_string(St.Workers[W].EventsReplayed);
    Waits += Sep + std::to_string(St.Workers[W].TilesWaited);
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%s%.4f", Sep,
                  St.Workers[W].BusySeconds);
    Busy += Buf;
    Steals += St.Workers[W].MembersStolen;
  }
  std::printf("[timing] bench=real_dispatch:gangload threads=%u "
              "steals=%llu restarts=%llu finish_s=%.4f worker_events=%s "
              "worker_waits=%s worker_busy_s=%s\n",
              Threads, (unsigned long long)Steals,
              (unsigned long long)St.DeferredFinishes, St.FinishSeconds,
              Events.c_str(), Waits.c_str(), Busy.c_str());
}

void BM_GangReplayMixedThreaded(benchmark::State &State) {
  // A deliberately mixed-cost gang — full members on two layouts (the
  // switch one a group of one, decoded by the worker that replays it),
  // a tiny-BTB member that overflows and restarts in place on the
  // exact BTB, and four cheap-to-moderate predictor-only members — on
  // a 4-worker pool, where the cost-aware scheduler has to balance it.
  constexpr unsigned Threads = 4;
  ForthLab &Lab = lab();
  CpuConfig Cpu = makePentium4Northwood();
  const DispatchTrace &Trace = Lab.trace(ReplayBench);
  VariantSpec Threaded = makeVariant(DispatchStrategy::Threaded);
  std::shared_ptr<DispatchProgram> LThreaded =
      Lab.buildLayout(ReplayBench, Threaded);
  std::shared_ptr<DispatchProgram> LSwitch =
      Lab.buildLayout(ReplayBench, makeVariant(DispatchStrategy::Switch));
  BTBConfig Tiny;
  Tiny.Entries = 64;
  Tiny.Ways = 4;
  BTBConfig TwoBit = Cpu.Btb;
  TwoBit.TwoBitCounters = true;
  constexpr size_t GangSize = 7;

  GangReplayer::Stats St;
  for (auto _ : State) {
    GangReplayer Gang(Trace);
    size_t Base = Gang.addDefault(LThreaded, Cpu);
    Gang.addDefault(LSwitch, Cpu);
    Gang.addBtb(LThreaded, Cpu, Tiny); // overflows -> restarts in place
    Gang.addBtbPredictorOnly(LThreaded, Cpu, TwoBit, Base);
    Gang.addPredictorOnly(LThreaded, Cpu, PerfectPredictor(), Base);
    Gang.addPredictorOnly(LThreaded, Cpu, NullPredictor(), Base);
    Gang.addPredictorOnly(LThreaded, Cpu,
                          TwoLevelPredictor((TwoLevelConfig())), Base);
    std::vector<PerfCounters> R = Gang.run(Threads, &St);
    benchmark::DoNotOptimize(R.data());
  }
  State.SetItemsProcessed(State.iterations() * Trace.numEvents() * GangSize);
  uint64_t Steals = 0;
  for (const GangReplayer::Stats::Worker &W : St.Workers)
    Steals += W.MembersStolen;
  State.counters["steals"] = static_cast<double>(Steals);
  static bool Printed = false;
  if (!Printed) {
    Printed = true;
    emitGangLoadLine(Threads, St);
  }
}

void BM_TraceDecode(benchmark::State &State) {
  // Raw trace-load bandwidth: fread plus per-frame checksum plus varint
  // decode. items_per_second is events through DispatchTrace::load; the
  // bytes/ratio counters pin what the encoding buys on a real captured
  // trace.
  ForthLab &Lab = lab();
  const DispatchTrace &Trace = Lab.trace(ReplayBench);
  constexpr uint64_t Hash = 0x6265636863646563ULL;
  std::string Path = "/tmp/vmib-bench-decode-" +
                     std::to_string(::getpid()) + ".vmibtrace";
  if (!Trace.save(Path, Hash)) {
    State.SkipWithError("cannot write temp trace");
    return;
  }
  for (auto _ : State) {
    DispatchTrace T;
    if (!T.load(Path, Hash, nullptr)) {
      State.SkipWithError("reload failed");
      break;
    }
    benchmark::DoNotOptimize(T.numEvents());
  }
  State.SetItemsProcessed(State.iterations() * Trace.numEvents());
  DispatchTrace::FileInfo Info;
  if (DispatchTrace::peekFileInfo(Path, Info)) {
    State.counters["file_bytes"] = static_cast<double>(Info.FileBytes);
    State.counters["ratio"] = Info.ratio();
  }
  std::remove(Path.c_str());
}

} // namespace

BENCHMARK(BM_SwitchDispatch)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_ThreadedDispatch)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_SuperDispatch)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_ReplayFull)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GangReplay5)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GangReplayMixedThreaded)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TraceDecode)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
