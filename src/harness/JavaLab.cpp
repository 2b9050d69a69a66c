//===- harness/JavaLab.cpp ------------------------------------------------===//

#include "harness/JavaLab.h"

#include "harness/WorkloadCache.h"
#include "support/Format.h"
#include "vmcore/DispatchSim.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

using namespace vmib;

JavaLab::JavaLab() = default; // all state is populated lazily

const JavaProgram &JavaLab::programLocked(const std::string &Benchmark) {
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
  // The reference run exists to produce the output hash and step count;
  // a valid meta sidecar in the trace cache stands in for it. The
  // sidecar is bound to the pristine program we just assembled, so a
  // changed workload rejects its stale sidecar structurally; on top of
  // that a sidecar-sourced hash stays provisional — any interpretation
  // that disagrees refreshes it instead of aborting.
  uint64_t Binding = programBindingHash(P.Program);
  BindingHash[Benchmark] = Binding;
  WorkloadMeta Meta;
  if (loadWorkloadMeta("java-" + Benchmark, Binding, Meta)) {
    ReferenceHash[Benchmark] = Meta.ReferenceHash;
    ReferenceSteps[Benchmark] = Meta.ReferenceSteps;
    HashFromSidecar[Benchmark] = true;
  } else {
    // Reference run on a scratch copy (quickening mutates it).
    JavaProgram Copy = P;
    JavaVM VM;
    JavaVM::Result Ref = VM.run(Copy);
    ReferenceRuns.fetch_add(1, std::memory_order_relaxed);
    if (!Ref.ok()) {
      std::fprintf(stderr, "fatal: benchmark %s reference run: %s\n",
                   Benchmark.c_str(), Ref.Error.c_str());
      std::abort();
    }
    ReferenceHash[Benchmark] = Ref.OutputHash;
    ReferenceSteps[Benchmark] = Ref.Steps;
    HashFromSidecar[Benchmark] = false;
    (void)saveWorkloadMeta("java-" + Benchmark, Binding,
                           {Ref.OutputHash, Ref.Steps}); // best-effort
  }
  return Programs.emplace(Benchmark, std::move(P)).first->second;
}

uint64_t JavaLab::confirmedReferenceHash(const std::string &Benchmark) {
  std::lock_guard<std::mutex> Lock(CacheMutex);
  JavaProgram Copy = programLocked(Benchmark);
  if (!HashFromSidecar[Benchmark])
    return ReferenceHash[Benchmark];
  JavaVM VM;
  JavaVM::Result Ref = VM.run(Copy);
  ReferenceRuns.fetch_add(1, std::memory_order_relaxed);
  if (!Ref.ok()) {
    std::fprintf(stderr, "fatal: benchmark %s reference run: %s\n",
                 Benchmark.c_str(), Ref.Error.c_str());
    std::abort();
  }
  if (Ref.OutputHash != ReferenceHash[Benchmark]) {
    std::fprintf(stderr,
                 "warning: stale workload meta sidecar for %s; refreshed\n",
                 Benchmark.c_str());
    // Profiles (and the leave-one-out selections merging them) derived
    // from the stale hash are derived from the wrong workload.
    Profiles.erase(Benchmark);
    ResourceCache.clear();
  }
  ReferenceHash[Benchmark] = Ref.OutputHash;
  ReferenceSteps[Benchmark] = Ref.Steps;
  HashFromSidecar[Benchmark] = false;
  (void)saveWorkloadMeta("java-" + Benchmark, BindingHash[Benchmark],
                         {Ref.OutputHash, Ref.Steps});
  return Ref.OutputHash;
}

const JavaProgram &JavaLab::program(const std::string &Benchmark) {
  std::lock_guard<std::mutex> Lock(CacheMutex);
  return programLocked(Benchmark);
}

const SequenceProfile &JavaLab::profileOf(const std::string &Benchmark) {
  std::lock_guard<std::mutex> Lock(CacheMutex);
  return profileOfLocked(Benchmark);
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
  (void)programLocked(Benchmark); // ensures the reference hash exists
  SequenceProfile Persisted;
  if (loadTrainedProfile("java-profile-" + Benchmark,
                         ReferenceHash[Benchmark], Persisted))
    return Profiles.emplace(Benchmark, std::move(Persisted)).first->second;
  // Run once to quicken everything, then take the *static* profile of
  // the post-quickening code: static selection must see quick forms
  // (§5.4), and the JVM scheme counts static occurrences (§7.1).
  JavaProgram Copy = programLocked(Benchmark);
  JavaVM VM;
  JavaVM::Result R = VM.run(Copy);
  ProfileRuns.fetch_add(1, std::memory_order_relaxed);
  assert(R.ok() && "profile run failed");
  // The profile run doubles as hash confirmation: adopt its output if
  // the provisional sidecar value disagreed (stale sidecar).
  if (R.ok() && HashFromSidecar[Benchmark]) {
    if (R.OutputHash != ReferenceHash[Benchmark]) {
      std::fprintf(stderr,
                   "warning: stale workload meta sidecar for %s; "
                   "refreshed\n",
                   Benchmark.c_str());
      ResourceCache.clear(); // selections merged a stale-hash profile set
    }
    ReferenceHash[Benchmark] = R.OutputHash;
    ReferenceSteps[Benchmark] = R.Steps;
    HashFromSidecar[Benchmark] = false;
    (void)saveWorkloadMeta("java-" + Benchmark, BindingHash[Benchmark],
                           {R.OutputHash, R.Steps});
  }
  SequenceProfile Prof =
      buildProfile(Copy.Program, java::opcodeSet(), /*ExecCounts=*/{});
  (void)saveTrainedProfile("java-profile-" + Benchmark,
                           ReferenceHash[Benchmark], Prof); // best-effort
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

} // namespace

uint64_t JavaLab::plainInterpCycles(const std::string &Benchmark,
                                    const CpuConfig &Cpu) {
  std::string Key = Benchmark + "@" + Cpu.Name;
  {
    std::lock_guard<std::mutex> Lock(CacheMutex);
    auto It = PlainCycleCache.find(Key);
    if (It != PlainCycleCache.end())
      return It->second;
  }
  // A one-member gang: the plain-threaded counters are bit-identical
  // to a direct run and reuse the cached trace. Computed outside the
  // lock — this is a full trace replay, and holding the cache mutex
  // through it would serialize every sweep worker behind the first
  // one. Concurrent first calls just compute the same value twice.
  PerfCounters C = replayGangNoOverhead(
      Benchmark, {makeVariant(DispatchStrategy::Threaded)}, Cpu)[0];
  std::lock_guard<std::mutex> Lock(CacheMutex);
  return PlainCycleCache.emplace(Key, C.Cycles).first->second;
}

uint64_t JavaLab::runtimeOverhead(const std::string &Benchmark,
                                  const CpuConfig &Cpu) {
  return static_cast<uint64_t>(runtimeShareOf(Benchmark) *
                               static_cast<double>(
                                   plainInterpCycles(Benchmark, Cpu)));
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

uint64_t JavaLab::referenceHash(const std::string &Benchmark) {
  std::lock_guard<std::mutex> Lock(CacheMutex);
  (void)programLocked(Benchmark);
  return ReferenceHash[Benchmark];
}

uint64_t JavaLab::referenceSteps(const std::string &Benchmark) {
  std::lock_guard<std::mutex> Lock(CacheMutex);
  (void)programLocked(Benchmark);
  return ReferenceSteps[Benchmark];
}

const DispatchTrace &JavaLab::trace(const std::string &Benchmark) {
  {
    std::lock_guard<std::mutex> Lock(CacheMutex);
    auto It = Traces.find(Benchmark);
    if (It != Traces.end())
      return It->second;
  }

  // Serialized-trace cache: a hash-verified file (events + quicken
  // records) replaces the whole interpretation. A file that exists but
  // fails verification is surfaced (then re-captured).
  uint64_t WorkloadHash = referenceHash(Benchmark);
  std::string CachePath = DispatchTrace::cachePathFor("java-" + Benchmark);
  if (!CachePath.empty()) {
    DispatchTrace Cached;
    std::string Diag;
    if (Cached.load(CachePath, WorkloadHash, &Diag)) {
      std::lock_guard<std::mutex> Lock(CacheMutex);
      return Traces.emplace(Benchmark, std::move(Cached)).first->second;
    }
    if (Diag.find("cannot open") == std::string::npos)
      std::fprintf(stderr, "warning: ignoring trace cache entry: %s\n",
                   Diag.c_str());
  }

  // Capture on a scratch copy: quickening mutates the program, and the
  // rewrites are recorded in the trace for replays to re-apply. Runs
  // outside the lock (a whole-workload interpretation); concurrent
  // first captures race to the emplace and the loser is discarded.
  JavaProgram Copy = program(Benchmark);
  DispatchTrace T;
  // One event per step: the reference run already told us the size.
  T.reserve(referenceSteps(Benchmark));
  JavaVM VM;
  JavaVM::Result R = VM.run(Copy, nullptr, nullptr, 1ull << 33, nullptr, &T);
  if (!R.ok()) {
    std::fprintf(stderr, "fatal: %s capture run failed (%s)\n",
                 Benchmark.c_str(), R.Error.c_str());
    std::abort();
  }
  if (R.OutputHash != WorkloadHash) {
    // The capture interpretation IS an authoritative reference run: if
    // the expected hash was provisional (meta sidecar), the sidecar
    // was stale — adopt the real numbers and refresh it. A mismatch
    // against a confirmed hash is a genuine divergence.
    bool Provisional;
    {
      std::lock_guard<std::mutex> Lock(CacheMutex);
      Provisional = HashFromSidecar[Benchmark];
    }
    if (!Provisional) {
      std::fprintf(stderr, "fatal: %s capture run diverged (%s)\n",
                   Benchmark.c_str(), R.Error.c_str());
      std::abort();
    }
    std::fprintf(stderr,
                 "warning: stale workload meta sidecar for %s; refreshed\n",
                 Benchmark.c_str());
    uint64_t Binding;
    {
      std::lock_guard<std::mutex> Lock(CacheMutex);
      ReferenceHash[Benchmark] = R.OutputHash;
      ReferenceSteps[Benchmark] = R.Steps;
      HashFromSidecar[Benchmark] = false;
      Binding = BindingHash[Benchmark];
      // Profile state derived from the stale hash dies with it.
      Profiles.erase(Benchmark);
      ResourceCache.clear();
    }
    (void)saveWorkloadMeta("java-" + Benchmark, Binding,
                           {R.OutputHash, R.Steps});
    WorkloadHash = R.OutputHash;
  } else {
    std::lock_guard<std::mutex> Lock(CacheMutex);
    HashFromSidecar[Benchmark] = false; // capture confirmed the sidecar
  }
  T.seal(); // hashed once here, O(1) for every later store/cost key
  if (!CachePath.empty())
    (void)T.save(CachePath, WorkloadHash); // best-effort
  std::lock_guard<std::mutex> Lock(CacheMutex);
  return Traces.emplace(Benchmark, std::move(T)).first->second;
}

void JavaLab::dropTrace(const std::string &Benchmark) {
  std::lock_guard<std::mutex> Lock(CacheMutex);
  Traces.erase(Benchmark);
}

TraceSource JavaLab::traceSource(const std::string &Benchmark,
                                 TraceDecodeMode Mode) {
  if (Mode != TraceDecodeMode::Stream) {
    // Already materialized? Borrowing it is free, so streaming only to
    // save memory that is already spent would be pure loss.
    std::lock_guard<std::mutex> Lock(CacheMutex);
    auto It = Traces.find(Benchmark);
    if (It != Traces.end())
      return TraceSource(It->second);
  }
  // Materialize (explicit, or Auto within the decode budget) pins the
  // whole event arena.
  if (Mode == TraceDecodeMode::Materialize ||
      (Mode == TraceDecodeMode::Auto &&
       referenceSteps(Benchmark) * sizeof(DispatchTrace::Event) <=
           AutoDecodeBudgetBytes))
    return TraceSource(trace(Benchmark));
  // Stream from the cache file, capturing it first if absent: trace()
  // saves to the same path, so one capture makes the file streamable
  // for every later call.
  std::string CachePath = DispatchTrace::cachePathFor("java-" + Benchmark);
  if (!CachePath.empty()) {
    TraceSource S;
    std::string Diag;
    if (TraceSource::openStreaming(CachePath, referenceHash(Benchmark), S,
                                   &Diag))
      return S;
    if (Diag.find("cannot open") == std::string::npos)
      std::fprintf(stderr, "warning: ignoring trace cache entry: %s\n",
                   Diag.c_str());
  }
  const DispatchTrace &T = trace(Benchmark);
  if (Mode == TraceDecodeMode::Stream)
    std::fprintf(stderr,
                 "warning: %s: no streamable trace cache file "
                 "(VMIB_TRACE_CACHE unset or save failed); replaying "
                 "materialized\n",
                 Benchmark.c_str());
  return TraceSource(T);
}

std::vector<PerfCounters>
JavaLab::replayGang(const std::string &Benchmark,
                    const std::vector<VariantSpec> &Variants,
                    const CpuConfig &Cpu, unsigned Threads,
                    GangReplayer::Stats *StatsOut,
                    const std::vector<uint64_t> *SeedCostNs,
                    std::vector<uint64_t> *FinalCostNs,
                    TraceDecodeMode Decode) {
  std::vector<PerfCounters> Results =
      replayGangNoOverhead(Benchmark, Variants, Cpu, Threads, StatsOut,
                           SeedCostNs, FinalCostNs, Decode);
  uint64_t Overhead = runtimeOverhead(Benchmark, Cpu);
  for (PerfCounters &C : Results)
    C.Cycles += Overhead;
  return Results;
}

std::vector<PerfCounters>
JavaLab::replayGangNoOverhead(const std::string &Benchmark,
                              const std::vector<VariantSpec> &Variants,
                              const CpuConfig &Cpu, unsigned Threads,
                              GangReplayer::Stats *StatsOut,
                              const std::vector<uint64_t> *SeedCostNs,
                              std::vector<uint64_t> *FinalCostNs,
                              TraceDecodeMode Decode) {
  GangReplayer Gang(traceSource(Benchmark, Decode));
  for (const VariantSpec &V : Variants) {
    // Each member owns its fresh program copy; the layout is built
    // over exactly that copy so the recorded quickenings patch it.
    auto Copy = std::make_shared<VMProgram>(program(Benchmark).Program);
    auto Layout = buildLayout(Benchmark, V, *Copy);
    size_t Member = Gang.addQuickening(std::move(Layout), std::move(Copy),
                                       Cpu);
    if (SeedCostNs && Member < SeedCostNs->size() &&
        (*SeedCostNs)[Member] != 0)
      Gang.seedMemberCost(Member, (*SeedCostNs)[Member]);
  }
  std::vector<PerfCounters> Results = Gang.run(Threads, StatsOut);
  if (FinalCostNs)
    *FinalCostNs = Gang.finalCosts();
  return Results;
}
