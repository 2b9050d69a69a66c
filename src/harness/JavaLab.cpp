//===- harness/JavaLab.cpp ------------------------------------------------===//

#include "harness/JavaLab.h"

#include "harness/WorkloadCache.h"
#include "support/Format.h"
#include "vmcore/DispatchSim.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

using namespace vmib;

JavaLab::JavaLab() : WorkloadLab("java") {} // state is populated lazily

const JavaProgram &JavaLab::program(const std::string &Benchmark) {
  std::lock_guard<std::mutex> Lock(ProgramMutex);
  auto It = Programs.find(Benchmark);
  if (It != Programs.end())
    return It->second;
  const JavaBenchmark *Bench = nullptr;
  for (const JavaBenchmark &B : javaSuite())
    if (B.Name == Benchmark)
      Bench = &B;
  if (!Bench) {
    std::fprintf(stderr, "fatal: unknown java benchmark %s\n",
                 Benchmark.c_str());
    std::abort();
  }
  JavaProgram P = assembleJava(Bench->Source, Bench->Name);
  if (!P.ok()) {
    std::fprintf(stderr, "fatal: benchmark %s: %s\n", Benchmark.c_str(),
                 P.Error.c_str());
    std::abort();
  }
  return Programs.emplace(Benchmark, std::move(P)).first->second;
}

WorkloadBinding JavaLab::identify(const std::string &Benchmark) {
  WorkloadBinding B;
  B.ProgramHash = programBindingHash(program(Benchmark).Program);
  return B;
}

bool JavaLab::interpret(const std::string &Benchmark, DispatchTrace *Capture,
                        WorkloadMeta &Out, std::string &Error) {
  JavaProgram Copy = program(Benchmark);
  JavaVM VM;
  JavaVM::Result R =
      VM.run(Copy, nullptr, nullptr, 1ull << 33, nullptr, Capture);
  Out = {R.OutputHash, R.Steps};
  Error = R.Error;
  return R.ok();
}

void JavaLab::warmSelection() {
  for (const JavaBenchmark &B : javaSuite()) {
    std::lock_guard<std::mutex> Lock(CacheMutex);
    (void)profileOfLocked(B.Name);
  }
}

void JavaLab::retireDerived(const std::string &Benchmark) {
  Profiles.erase(Benchmark);
  ResourceCache.clear();
}

const SequenceProfile &
JavaLab::profileOfLocked(const std::string &Benchmark) {
  auto It = Profiles.find(Benchmark);
  if (It != Profiles.end())
    return It->second;
  // A persisted post-quickening profile (bound to the benchmark's
  // reference hash) replaces the interpretation below — this is the
  // bulk of a Java worker's cold start, since every leave-one-out
  // resource selection needs the profiles of the whole suite.
  SequenceProfile Persisted;
  if (loadTrainedProfile("java-profile-" + Benchmark,
                         referenceHashLocked(Benchmark), Persisted))
    return Profiles.emplace(Benchmark, std::move(Persisted)).first->second;
  // Run once to quicken everything, then take the *static* profile of
  // the post-quickening code: static selection must see quick forms
  // (§5.4), and the JVM scheme counts static occurrences (§7.1).
  JavaProgram Copy = program(Benchmark);
  JavaVM VM;
  JavaVM::Result R = VM.run(Copy);
  ProfileRuns.fetch_add(1, std::memory_order_relaxed);
  assert(R.ok() && "profile run failed");
  // The profile run doubles as hash confirmation.
  if (R.ok())
    adoptLocked(Benchmark, {R.OutputHash, R.Steps});
  SequenceProfile Prof =
      buildProfile(Copy.Program, java::opcodeSet(), /*ExecCounts=*/{});
  (void)saveTrainedProfile("java-profile-" + Benchmark,
                           referenceHashLocked(Benchmark),
                           Prof); // best-effort
  return Profiles.emplace(Benchmark, std::move(Prof)).first->second;
}

const StaticResources &JavaLab::resources(const std::string &Benchmark,
                                          uint32_t SuperCount,
                                          uint32_t ReplicaCount) {
  std::lock_guard<std::mutex> Lock(CacheMutex);
  return resourcesLocked(Benchmark, SuperCount, ReplicaCount);
}

const StaticResources &JavaLab::resourcesLocked(const std::string &Benchmark,
                                                uint32_t SuperCount,
                                                uint32_t ReplicaCount) {
  std::string Key =
      Benchmark + format("/%u/%u", SuperCount, ReplicaCount);
  auto It = ResourceCache.find(Key);
  if (It != ResourceCache.end())
    return It->second;
  // Leave-one-out: merge the static profiles of every other benchmark.
  SequenceProfile Merged;
  for (const JavaBenchmark &B : javaSuite()) {
    if (B.Name == Benchmark)
      continue;
    Merged.merge(profileOfLocked(B.Name));
  }
  StaticResources Res = selectStaticResources(
      Merged, java::opcodeSet(), SuperCount, ReplicaCount,
      SuperWeighting::StaticShortBiased);
  return ResourceCache.emplace(Key, std::move(Res)).first->second;
}

namespace {

/// Fraction of plain-interpreter cycles each benchmark spends in the
/// runtime system (§7.2.2), calibrated against SPECjvm98's published
/// behaviour: compress/mpeg are compute-bound, jack/javac/mtrt spend
/// most of their time in allocation, GC and string handling.
double runtimeShareOf(const std::string &Benchmark) {
  if (Benchmark == "compress")
    return 0.15;
  if (Benchmark == "mpeg")
    return 0.30;
  if (Benchmark == "jess")
    return 1.20;
  if (Benchmark == "db")
    return 1.20;
  if (Benchmark == "javac")
    return 3.00;
  if (Benchmark == "mtrt")
    return 3.00;
  if (Benchmark == "jack")
    return 4.00;
  return 1.0;
}

/// The runtime-overhead cycles of \p Benchmark given the plain
/// interpreter's cycles (its basis).
uint64_t overheadFrom(const std::string &Benchmark,
                      uint64_t PlainInterpCycles) {
  return static_cast<uint64_t>(runtimeShareOf(Benchmark) *
                               static_cast<double>(PlainInterpCycles));
}

/// The key of the (benchmark, CPU) overhead basis.
std::string basisKey(const std::string &Benchmark, const CpuConfig &Cpu) {
  return Benchmark + "@" + Cpu.Name;
}

/// The variant whose interpreter cycles are the overhead basis.
VariantSpec plainVariant() { return makeVariant(DispatchStrategy::Threaded); }

/// Whether \p V builds the plain layout: every field but the name
/// equals plainVariant()'s. The name is only a label (fig15 calls its
/// plain cell "total 0, 0% super").
bool buildsPlainLayout(const VariantSpec &V) {
  const VariantSpec P = plainVariant();
  const StrategyConfig &A = V.Config, &B = P.Config;
  return A.Kind == B.Kind && A.ReplicaCount == B.ReplicaCount &&
         A.SuperCount == B.SuperCount && A.Policy == B.Policy &&
         A.Parse == B.Parse && A.Seed == B.Seed &&
         V.SuperCount == P.SuperCount && V.ReplicaCount == P.ReplicaCount &&
         V.ReplicateSupers == P.ReplicateSupers;
}

} // namespace

uint64_t JavaLab::runtimeOverhead(const std::string &Benchmark,
                                  const CpuConfig &Cpu) {
  {
    std::lock_guard<std::mutex> Lock(CacheMutex);
    auto It = PlainCycles.find(basisKey(Benchmark, Cpu));
    if (It != PlainCycles.end())
      return overheadFrom(Benchmark, It->second);
  }
  // No gang of this (benchmark, CPU) replayed in this lab yet — the
  // direct-run oracle, or a bench reading overheads after an
  // orchestrated sweep: a one-member plain gang supplies the basis.
  // Replayed outside the lock, like every gang; concurrent first calls
  // just compute the same value twice.
  uint64_t Basis =
      replayGangNoOverhead(Benchmark, {plainVariant()}, Cpu)[0].Cycles;
  recordBasis(Benchmark, Cpu, Basis);
  return overheadFrom(Benchmark, Basis);
}

void JavaLab::recordBasis(const std::string &Benchmark, const CpuConfig &Cpu,
                          uint64_t PlainInterpCycles) {
  std::lock_guard<std::mutex> Lock(CacheMutex);
  PlainCycles.emplace(basisKey(Benchmark, Cpu), PlainInterpCycles);
}

PerfCounters JavaLab::run(const std::string &Benchmark,
                          const VariantSpec &Variant,
                          const CpuConfig &Cpu) {
  PerfCounters C = runNoOverhead(Benchmark, Variant, Cpu);
  C.Cycles += runtimeOverhead(Benchmark, Cpu);
  return C;
}

std::unique_ptr<DispatchProgram>
JavaLab::buildLayout(const std::string &Benchmark, const VariantSpec &Variant,
                     const VMProgram &Over) {
  const StaticResources *Static = nullptr;
  if (usesStaticSupers(Variant.Config.Kind) ||
      usesReplicas(Variant.Config.Kind))
    Static = &resources(Benchmark, Variant.SuperCount,
                        Variant.ReplicaCount);
  return DispatchBuilder::build(Over, java::opcodeSet(), Variant.Config,
                                Static);
}

PerfCounters JavaLab::runNoOverhead(const std::string &Benchmark,
                                    const VariantSpec &Variant,
                                    const CpuConfig &Cpu) {
  JavaProgram Copy = program(Benchmark);
  auto Layout = buildLayout(Benchmark, Variant, Copy.Program);
  DispatchSim Sim(*Layout, Cpu);
  JavaVM VM;
  JavaVM::Result R = VM.run(Copy, &Sim, Layout.get());
  Sim.finish();
  // A mismatch against a provisional (sidecar-sourced) hash gets one
  // authoritative re-check before being declared a divergence.
  if (!R.ok() ||
      (R.OutputHash != referenceHash(Benchmark) &&
       R.OutputHash != confirmedReferenceHash(Benchmark))) {
    std::fprintf(stderr, "fatal: %s under %s diverged (%s)\n",
                 Benchmark.c_str(), Variant.Name.c_str(),
                 R.Error.c_str());
    std::abort();
  }
  return Sim.counters();
}

std::vector<PerfCounters>
JavaLab::replayGang(const std::string &Benchmark,
                    const std::vector<VariantSpec> &Variants,
                    const CpuConfig &Cpu, unsigned Threads,
                    GangReplayer::Stats *StatsOut, TraceDecodeMode Decode) {
  // The overhead basis is the plain member's interpreter cycles. A
  // variant list without plain carries a hidden plain member at its
  // end, whose row is dropped below.
  std::vector<VariantSpec> Members = Variants;
  size_t Plain = static_cast<size_t>(
      std::find_if(Members.begin(), Members.end(), buildsPlainLayout) -
      Members.begin());
  if (Plain == Members.size())
    Members.push_back(plainVariant());
  std::vector<PerfCounters> Results = replayGangNoOverhead(
      Benchmark, Members, Cpu, Threads, StatsOut, Decode);
  uint64_t Basis = Results[Plain].Cycles;
  recordBasis(Benchmark, Cpu, Basis);
  Results.resize(Variants.size());
  uint64_t Overhead = overheadFrom(Benchmark, Basis);
  for (PerfCounters &C : Results)
    C.Cycles += Overhead;
  return Results;
}

std::vector<PerfCounters>
JavaLab::replayGangNoOverhead(const std::string &Benchmark,
                              const std::vector<VariantSpec> &Variants,
                              const CpuConfig &Cpu, unsigned Threads,
                              GangReplayer::Stats *StatsOut,
                              TraceDecodeMode Decode) {
  GangReplayer Gang(traceSource(Benchmark, Decode));
  const VMProgram &Pristine = program(Benchmark).Program;
  for (const VariantSpec &V : Variants)
    // Each member builds its layout over its own fresh copy of the
    // pristine program, so the recorded quickenings patch it; a
    // restart builds another one on the pool worker replaying it.
    Gang.addQuickening(
        Pristine,
        [this, Benchmark, V](const VMProgram &Over) {
          return buildLayout(Benchmark, V, Over);
        },
        Cpu);
  return Gang.run(Threads, StatsOut);
}
