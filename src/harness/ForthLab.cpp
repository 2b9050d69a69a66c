//===- harness/ForthLab.cpp -----------------------------------------------===//

#include "harness/ForthLab.h"

#include "harness/WorkloadCache.h"
#include "support/Format.h"
#include "vmcore/DispatchSim.h"
#include "workloads/SynthSuite.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

using namespace vmib;

ForthLab::ForthLab() : WorkloadLab("forth") {} // state is populated lazily

namespace {

/// The parameters a synthetic workload's name encodes; fatal when
/// unparseable.
SynthWorkloadParams synthParams(const std::string &Benchmark) {
  SynthWorkloadParams Params;
  std::string Err;
  if (!parseSynthBenchmarkName(Benchmark, Params, &Err)) {
    std::fprintf(stderr, "fatal: %s\n", Err.c_str());
    std::abort();
  }
  return Params;
}

} // namespace

const ForthUnit &ForthLab::unit(const std::string &Benchmark) {
  std::lock_guard<std::mutex> Lock(UnitMutex);
  auto It = Units.find(Benchmark);
  if (It != Units.end())
    return It->second;
  if (isSynthBenchmarkName(Benchmark)) {
    ForthUnit Unit = buildSynthUnit(synthParams(Benchmark));
    std::string Invalid = Unit.Program.validate(forth::opcodeSet());
    if (!Invalid.empty()) {
      std::fprintf(stderr, "fatal: synthetic program %s: %s\n",
                   Benchmark.c_str(), Invalid.c_str());
      std::abort();
    }
    return Units.emplace(Benchmark, std::move(Unit)).first->second;
  }
  const ForthBenchmark *Bench = nullptr;
  for (const ForthBenchmark &B : forthSuite())
    if (B.Name == Benchmark)
      Bench = &B;
  if (!Bench) {
    std::fprintf(stderr, "fatal: unknown forth benchmark %s\n",
                 Benchmark.c_str());
    std::abort();
  }
  ForthUnit Unit = compileForth(Bench->Source, Bench->Name);
  if (!Unit.ok()) {
    std::fprintf(stderr, "fatal: benchmark %s: %s\n", Benchmark.c_str(),
                 Unit.Error.c_str());
    std::abort();
  }
  return Units.emplace(Benchmark, std::move(Unit)).first->second;
}

WorkloadBinding ForthLab::identify(const std::string &Benchmark) {
  const ForthUnit &Unit = unit(Benchmark);
  WorkloadBinding B;
  if (isSynthBenchmarkName(Benchmark)) {
    // The name IS the workload: no reference run exists or is needed.
    // The identity hash is a pure function of the parameters and the
    // step count is the requested event count.
    SynthWorkloadParams Params = synthParams(Benchmark);
    B.Exact = WorkloadMeta{synthWorkloadHash(Params), Params.NumEvents};
  } else {
    B.ProgramHash = programBindingHash(Unit.Program);
  }
  return B;
}

bool ForthLab::interpret(const std::string &Benchmark, DispatchTrace *Capture,
                         WorkloadMeta &Out, std::string &Error) {
  const ForthUnit &Unit = unit(Benchmark);
  if (isSynthBenchmarkName(Benchmark)) {
    // Synthetic workloads are generated, never interpreted: O(events)
    // with no VM state, so a multi-hundred-million-event trace costs
    // about as much as reading one, and round-trips the same file
    // cache as captured ones.
    SynthWorkloadParams Params = synthParams(Benchmark);
    if (Capture)
      generateSynthTrace(Params, Unit.Program, *Capture);
    Out = {synthWorkloadHash(Params), Params.NumEvents};
    return true;
  }
  ForthVM VM;
  ForthVM::Result R = VM.run(Unit, nullptr, 1ull << 33, nullptr, Capture);
  Out = {R.OutputHash, R.Steps};
  Error = R.Error;
  return R.ok();
}

void ForthLab::retireDerived(const std::string &Benchmark) {
  if (Benchmark == forthTrainingBenchmark()) {
    Training.reset();
    ResourceCache.clear();
  }
}

const SequenceProfile &ForthLab::trainingProfileLocked() {
  if (Training)
    return *Training;
  const std::string Train = forthTrainingBenchmark();
  const ForthUnit &Unit = unit(Train);
  // A persisted training profile (bound to the training benchmark's
  // reference hash, so it can never outlive the workload it was
  // trained on) replaces the whole training interpretation.
  SequenceProfile Persisted;
  if (loadTrainedProfile("forth-training", referenceHashLocked(Train),
                         Persisted)) {
    Training = std::make_unique<SequenceProfile>(std::move(Persisted));
    return *Training;
  }
  std::vector<uint64_t> Counts;
  ForthVM VM;
  ForthVM::Result R = VM.run(Unit, nullptr, 1ull << 33, &Counts);
  TrainingRuns.fetch_add(1, std::memory_order_relaxed);
  assert(R.ok() && "training run failed");
  // The training run doubles as hash confirmation.
  if (R.ok())
    adoptLocked(Train, {R.OutputHash, R.Steps});
  Training = std::make_unique<SequenceProfile>(
      buildProfile(Unit.Program, forth::opcodeSet(), Counts));
  (void)saveTrainedProfile("forth-training", referenceHashLocked(Train),
                           *Training); // best-effort
  return *Training;
}

const SequenceProfile &ForthLab::trainingProfile() {
  std::lock_guard<std::mutex> Lock(CacheMutex);
  return trainingProfileLocked();
}

const StaticResources &ForthLab::resourcesLocked(uint32_t SuperCount,
                                                 uint32_t ReplicaCount,
                                                 bool ReplicateSupers) {
  std::string Key = format("%u/%u/%d", SuperCount, ReplicaCount,
                           ReplicateSupers ? 1 : 0);
  auto It = ResourceCache.find(Key);
  if (It != ResourceCache.end())
    return It->second;
  StaticResources Res = selectStaticResources(
      trainingProfileLocked(), forth::opcodeSet(), SuperCount, ReplicaCount,
      SuperWeighting::DynamicFrequency, ReplicateSupers);
  return ResourceCache.emplace(Key, std::move(Res)).first->second;
}

const StaticResources &ForthLab::resources(uint32_t SuperCount,
                                           uint32_t ReplicaCount,
                                           bool ReplicateSupers) {
  std::lock_guard<std::mutex> Lock(CacheMutex);
  return resourcesLocked(SuperCount, ReplicaCount, ReplicateSupers);
}

std::unique_ptr<DispatchProgram>
ForthLab::buildLayout(const std::string &Benchmark,
                      const VariantSpec &Variant) {
  const ForthUnit &Unit = unit(Benchmark);
  const StaticResources *Static = nullptr;
  if (usesStaticSupers(Variant.Config.Kind) ||
      usesReplicas(Variant.Config.Kind))
    Static = &resources(Variant.SuperCount, Variant.ReplicaCount,
                        Variant.ReplicateSupers);
  return DispatchBuilder::build(Unit.Program, forth::opcodeSet(),
                                Variant.Config, Static);
}

PerfCounters ForthLab::run(const std::string &Benchmark,
                           const VariantSpec &Variant,
                           const CpuConfig &Cpu) {
  return runWithPredictor(Benchmark, Variant, Cpu, nullptr);
}

PerfCounters ForthLab::runWithPredictor(
    const std::string &Benchmark, const VariantSpec &Variant,
    const CpuConfig &Cpu,
    std::unique_ptr<IndirectBranchPredictor> Predictor) {
  if (isSynthBenchmarkName(Benchmark)) {
    // The generated program is dispatch-shaped, not value-correct:
    // interpreting it would underflow stacks immediately. Every sweep
    // path replays; only explicit direct-simulation requests land
    // here, and those must fail loudly.
    std::fprintf(stderr,
                 "fatal: %s is replay-only (synthetic workloads have no "
                 "reference interpretation)\n",
                 Benchmark.c_str());
    std::abort();
  }
  const ForthUnit &Unit = unit(Benchmark);
  auto Layout = buildLayout(Benchmark, Variant);
  DispatchSim Sim(*Layout, Cpu);
  if (Predictor)
    Sim.setPredictor(std::move(Predictor));
  ForthVM VM;
  ForthVM::Result R = VM.run(Unit, &Sim);
  Sim.finish();
  // A mismatch against a provisional (sidecar-sourced) hash gets one
  // authoritative re-check before being declared a divergence.
  if (!R.ok() ||
      (R.OutputHash != referenceHash(Benchmark) &&
       R.OutputHash != confirmedReferenceHash(Benchmark))) {
    std::fprintf(stderr, "fatal: %s under %s diverged (%s)\n",
                 Benchmark.c_str(), Variant.Name.c_str(), R.Error.c_str());
    std::abort();
  }
  return Sim.counters();
}

std::vector<PerfCounters>
ForthLab::replayGang(const std::string &Benchmark,
                     const std::vector<VariantSpec> &Variants,
                     const CpuConfig &Cpu, unsigned Threads,
                     GangReplayer::Stats *StatsOut, TraceDecodeMode Decode) {
  GangReplayer Gang(traceSource(Benchmark, Decode));
  for (const VariantSpec &V : Variants)
    Gang.addDefault(buildLayout(Benchmark, V), Cpu);
  return Gang.run(Threads, StatsOut);
}
