//===- harness/SweepExecutor.cpp ------------------------------------------===//

#include "harness/SweepExecutor.h"

#include "harness/Auditor.h"
#include "harness/SweepRunner.h"
#include "harness/WorkloadCache.h"
#include "support/Statistics.h"
#include "uarch/CaseBlockTable.h"
#include "uarch/CpuModel.h"
#include "uarch/TwoLevelPredictor.h"

#include <cassert>
#include <map>
#include <mutex>
#include <thread>

using namespace vmib;

namespace {

/// Loads the persisted cost table of \p TraceKey into a by-key map.
std::map<uint64_t, uint64_t> loadCostMap(const std::string &TraceKey,
                                         uint64_t TraceHash) {
  std::map<uint64_t, uint64_t> Map;
  std::vector<MemberCost> Persisted;
  if (loadMemberCosts(TraceKey, TraceHash, Persisted))
    for (const MemberCost &C : Persisted)
      Map[C.MemberKey] = C.CostNs;
  return Map;
}

/// Folds \p Final (per gang-member measured EWMAs; 0 = unmeasured)
/// back into \p Map under each member's config key and persists the
/// merged table (best-effort, like every sidecar write).
void saveCostMap(const SweepSpec &Spec, const std::vector<size_t> &Members,
                 const std::vector<uint64_t> &Final,
                 std::map<uint64_t, uint64_t> &Map,
                 const std::string &TraceKey, uint64_t TraceHash) {
  bool Changed = false;
  for (size_t K = 0; K < Members.size() && K < Final.size(); ++K) {
    if (Final[K] == 0)
      continue;
    Map[memberCostKey(Spec, Members[K])] = Final[K];
    Changed = true;
  }
  if (!Changed)
    return;
  std::vector<MemberCost> ToSave;
  ToSave.reserve(Map.size());
  for (const auto &[Key, Ns] : Map)
    ToSave.push_back({Key, Ns});
  (void)saveMemberCosts(TraceKey, TraceHash, ToSave);
}

} // namespace

StoredSlice vmib::probeStoredSlice(ResultStore &Store, const SweepSpec &Spec,
                                   size_t Workload, size_t MemberBegin,
                                   size_t MemberEnd, bool Counted,
                                   const uint64_t *TraceHash) {
  StoredSlice S;
  S.Keyed = TraceHash != nullptr;
  if (S.Keyed)
    S.TraceHash = *TraceHash;
  else
    S.Keyed = DispatchTrace::peekContentHash(
        DispatchTrace::cachePathFor(Spec.Suite + "-" +
                                    Spec.Benchmarks[Workload]),
        S.TraceHash);
  S.Cells.resize(MemberEnd - MemberBegin);
  for (size_t M = MemberBegin; M < MemberEnd; ++M) {
    bool Hit = false;
    if (S.Keyed) {
      StoreKey Key = cellStoreKey(Spec, M, S.TraceHash);
      PerfCounters &C = S.Cells[M - MemberBegin];
      Hit = Counted ? Store.lookup(Key, C) : Store.probe(Key, C);
    }
    if (!Hit)
      S.Missing.push_back(M);
  }
  return S;
}

unsigned vmib::resolveGangThreads(unsigned SpecThreads) {
  if (SpecThreads != 0)
    return SpecThreads;
  unsigned H = std::thread::hardware_concurrency();
  return H != 0 ? H : 1;
}

ForthLab &SweepExecutor::forth() {
  if (ForthRef)
    return *ForthRef;
  if (!OwnedForth)
    OwnedForth = std::make_unique<ForthLab>();
  return *OwnedForth;
}

JavaLab &SweepExecutor::java() {
  if (JavaRef)
    return *JavaRef;
  if (!OwnedJava)
    OwnedJava = std::make_unique<JavaLab>();
  return *OwnedJava;
}

std::vector<PerfCounters>
SweepExecutor::runForthSlice(const SweepSpec &Spec, size_t Workload,
                             const std::vector<size_t> &Members,
                             GangReplayer::Stats *LoadOut) {
  ForthLab &Lab = forth();
  const std::string &Benchmark = Spec.Benchmarks[Workload];
  // The spec's decode mode picks the replay input: a materialized
  // in-memory trace or an O(tile) streaming view of the cache file.
  // Cells are bit-identical either way.
  TraceSource Source = Lab.traceSource(Benchmark, Spec.Decode);
  GangReplayer Gang(Source, Spec.ChunkEvents);
  // One layout per variant, shared across the slice's members: members
  // of the same variant then share a GroupDecoder (SoA tile decode),
  // and the layout is built once instead of once per predictor point.
  std::map<size_t, std::shared_ptr<DispatchProgram>> Layouts;
  for (size_t M : Members) {
    size_t CpuIdx, VarIdx, PredIdx;
    Spec.decodeMember(M, CpuIdx, VarIdx, PredIdx);
    CpuConfig Cpu;
    bool Known = cpuConfigById(Spec.Cpus[CpuIdx], Cpu);
    assert(Known && "validateSweepSpec admits only known cpu ids");
    (void)Known;
    auto It = Layouts.find(VarIdx);
    if (It == Layouts.end())
      It = Layouts
               .emplace(VarIdx, std::shared_ptr<DispatchProgram>(
                                    Lab.buildLayout(Benchmark,
                                                    Spec.Variants[VarIdx])))
               .first;
    const PredictorGeometry G = Spec.Predictors.empty()
                                    ? PredictorGeometry()
                                    : Spec.Predictors[PredIdx];
    switch (G.PredKind) {
    case PredictorGeometry::Kind::Default:
      Gang.addDefault(It->second, Cpu);
      break;
    case PredictorGeometry::Kind::Btb:
      Gang.addBtb(It->second, Cpu, G.Btb);
      break;
    case PredictorGeometry::Kind::TwoLevel:
      Gang.addPredictor(It->second, Cpu, TwoLevelPredictor(G.TwoLevel));
      break;
    case PredictorGeometry::Kind::CaseBlock:
      Gang.addPredictor(It->second, Cpu, CaseBlockTable(G.CaseBlockEntries));
      break;
    }
  }
  // Persisted pool-scheduler costs: seed each gang member's EWMA from
  // the trace's cost sidecar so even tile 0 plans cost-weighted.
  const unsigned Threads = resolveGangThreads(Spec.Threads);
  const bool PersistCosts = Threads > 1;
  const std::string TraceKey = "forth-" + Benchmark;
  const uint64_t TraceHash = PersistCosts ? Source.contentHash() : 0;
  std::map<uint64_t, uint64_t> CostMap;
  if (PersistCosts) {
    CostMap = loadCostMap(TraceKey, TraceHash);
    for (size_t K = 0; K < Members.size(); ++K) {
      auto It = CostMap.find(memberCostKey(Spec, Members[K]));
      if (It != CostMap.end() && It->second != 0)
        Gang.seedMemberCost(K, It->second);
    }
  }
  GangReplayer::Stats GangLoad;
  std::vector<PerfCounters> Out = Gang.run(Threads, &GangLoad);
  if (LoadOut)
    LoadOut->merge(GangLoad);
  if (PersistCosts)
    saveCostMap(Spec, Members, Gang.finalCosts(), CostMap, TraceKey,
                TraceHash);
  return Out;
}

std::vector<PerfCounters>
SweepExecutor::runJavaSlice(const SweepSpec &Spec, size_t Workload,
                            const std::vector<size_t> &Members,
                            GangReplayer::Stats *LoadOut) {
  JavaLab &Lab = java();
  const std::string &Benchmark = Spec.Benchmarks[Workload];
  // Java members are quickening replays on the CPU's default BTB
  // (validateSweepSpec enforces a single Default predictor entry), so
  // the member order is CPU-major runs of the variant list: group the
  // slice's members by CPU (the list is ascending, so groups come out
  // in member order) and gang-replay each CPU's variant subset. A
  // member's counters do not depend on its gang's other members, so
  // slicing cannot change any cell.
  assert(Spec.Predictors.size() <= 1 &&
         "validateSweepSpec caps java specs at one predictor entry");
  const unsigned Threads = resolveGangThreads(Spec.Threads);
  const bool PersistCosts = Threads > 1;
  const std::string TraceKey = "java-" + Benchmark;
  std::map<uint64_t, uint64_t> CostMap;
  uint64_t TraceHash = 0;
  if (PersistCosts) {
    // traceSource avoids materializing a streamed trace just for its
    // hash (the streaming view carries the verified header's value).
    TraceHash = Lab.traceSource(Benchmark, Spec.Decode).contentHash();
    CostMap = loadCostMap(TraceKey, TraceHash);
  }
  std::vector<PerfCounters> Out;
  size_t V = Spec.Variants.size();
  size_t Pos = 0;
  while (Pos < Members.size()) {
    size_t CpuIdx = Members[Pos] / V;
    size_t GroupEnd = Pos;
    while (GroupEnd < Members.size() && Members[GroupEnd] / V == CpuIdx)
      ++GroupEnd;
    CpuConfig Cpu;
    bool Known = cpuConfigById(Spec.Cpus[CpuIdx], Cpu);
    assert(Known && "validateSweepSpec admits only known cpu ids");
    (void)Known;
    std::vector<VariantSpec> Subset;
    std::vector<uint64_t> SeedNs(GroupEnd - Pos, 0);
    Subset.reserve(GroupEnd - Pos);
    for (size_t K = Pos; K < GroupEnd; ++K) {
      Subset.push_back(Spec.Variants[Members[K] % V]);
      if (PersistCosts) {
        auto It = CostMap.find(memberCostKey(Spec, Members[K]));
        if (It != CostMap.end())
          SeedNs[K - Pos] = It->second;
      }
    }
    GangReplayer::Stats GangLoad;
    std::vector<uint64_t> FinalNs;
    std::vector<PerfCounters> Row =
        Lab.replayGang(Benchmark, Subset, Cpu, Threads, &GangLoad,
                       PersistCosts ? &SeedNs : nullptr,
                       PersistCosts ? &FinalNs : nullptr, Spec.Decode);
    if (LoadOut)
      LoadOut->merge(GangLoad);
    if (PersistCosts && !FinalNs.empty()) {
      std::vector<size_t> GroupMembers(Members.begin() + Pos,
                                       Members.begin() + GroupEnd);
      saveCostMap(Spec, GroupMembers, FinalNs, CostMap, TraceKey, TraceHash);
    }
    Out.insert(Out.end(), Row.begin(), Row.end());
    Pos = GroupEnd;
  }
  return Out;
}

std::vector<PerfCounters> SweepExecutor::runSlice(const SweepSpec &Spec,
                                                  size_t Workload,
                                                  size_t MemberBegin,
                                                  size_t MemberEnd,
                                                  GangReplayer::Stats
                                                      *LoadOut) {
  assert(Workload < Spec.Benchmarks.size() &&
         MemberEnd <= Spec.membersPerWorkload() &&
         MemberBegin <= MemberEnd && "slice out of range");
  const bool UseStore = Store && Store->isOpen();
  StoredSlice Stored;
  if (UseStore) {
    Stored = probeStoredSlice(*Store, Spec, Workload, MemberBegin, MemberEnd,
                              /*Counted=*/true);
    if (!Stored.Keyed) {
      // No trace cache file to peek: the lab's trace — which the misses
      // need loaded anyway — supplies the hash (a re-capture reproduces
      // it, so stored cells still apply).
      const std::string &B = Spec.Benchmarks[Workload];
      uint64_t TraceHash = Spec.Suite == "java"
                               ? java().trace(B).contentHash()
                               : forth().trace(B).contentHash();
      Stored = probeStoredSlice(*Store, Spec, Workload, MemberBegin,
                                MemberEnd, /*Counted=*/true, &TraceHash);
    }
    if (Stored.Missing.empty())
      return Stored.Cells;
  } else {
    Stored.Cells.resize(MemberEnd - MemberBegin);
    for (size_t M = MemberBegin; M < MemberEnd; ++M)
      Stored.Missing.push_back(M);
  }

  const std::vector<size_t> &Missing = Stored.Missing;
  std::vector<PerfCounters> Fresh =
      Spec.Suite == "java"
          ? runJavaSlice(Spec, Workload, Missing, LoadOut)
          : runForthSlice(Spec, Workload, Missing, LoadOut);
  assert(Fresh.size() == Missing.size() && "slice runner covers its members");
  for (size_t K = 0; K < Missing.size(); ++K) {
    // Injected compute corruption lands here — after the replay, before
    // the value is returned OR committed — so the store faithfully
    // persists what the (faulted) compute path produced, exactly the
    // silent-corruption scenario the audit layer exists to catch.
    if (Faults.FlipCounter > 0) {
      unsigned Word = 0, Bit = 0;
      if (decideCounterFlip(Faults, Workload, Missing[K], Word, Bit))
        Fresh[K].flipBit(Word, Bit);
    }
    Stored.Cells[Missing[K] - MemberBegin] = Fresh[K];
    if (UseStore)
      Store->record(cellStoreKey(Spec, Missing[K], Stored.TraceHash),
                    Fresh[K]);
  }
  // Durable before returned: the caller (a worker about to emit rows,
  // an in-process sweep about to report cells) must never announce a
  // result the store would lose to a crash.
  if (UseStore)
    (void)Store->flush();
  return Stored.Cells;
}

std::vector<PerfCounters>
SweepExecutor::replayMembersDirect(const SweepSpec &Spec, size_t Workload,
                                   const std::vector<size_t> &Members,
                                   GangReplayer::Stats *LoadOut) {
  // Deliberately bypasses the store (whose shape-free key would
  // re-serve the very value under audit) and the flip injection (whose
  // cell-keyed draw would reproduce the primary's corruption and mask
  // it): the only inputs are the trace and the spec.
  return Spec.Suite == "java"
             ? runJavaSlice(Spec, Workload, Members, LoadOut)
             : runForthSlice(Spec, Workload, Members, LoadOut);
}

SweepRunStats SweepExecutor::runAll(const SweepSpec &Spec, unsigned Threads,
                                    std::vector<PerfCounters> &Cells) {
  if (Threads == 0)
    Threads = defaultSweepThreads();
  // Two-level thread budget: every gang spawns GangThreads replay
  // workers of its own, so shrink the pipeline pool to keep the total
  // thread count roughly constant — otherwise --threads=4 on a 4-core
  // host would run ~cores × 5 busy threads and get slower, not faster.
  unsigned GangThreads = resolveGangThreads(Spec.Threads);
  if (GangThreads > 1)
    Threads = Threads / GangThreads > 1 ? Threads / GangThreads : 1;
  size_t W = Spec.Benchmarks.size();
  size_t M = Spec.membersPerWorkload();

  SweepRunStats Stats;
  Stats.Configs = Spec.numCells();
  double CaptureBusy = 0; // producer thread only; no lock needed
  std::mutex LoadMutex; // replay jobs may run on several pipeline workers
  std::vector<std::vector<PerfCounters>> Rows(W);

  WallTimer PipelineTimer;
  // Warm-store fast path: a workload whose every cell the store already
  // holds (keyed off the trace file header, nothing loaded) is served
  // here and never enters the pipeline — its warmup (trace load,
  // training, Java's overhead-basis replay) exists only to enable
  // replays this sweep will not perform.
  std::vector<size_t> Pending;
  for (size_t I = 0; I < W; ++I) {
    if (Store && Store->isOpen() &&
        probeStoredSlice(*Store, Spec, I, 0, M, /*Counted=*/false)
            .complete())
      Rows[I] = runSlice(Spec, I, 0, M); // books the hits
    else
      Pending.push_back(I);
  }
  pipelineSweep(
      Pending.size(), Threads,
      [&](size_t K) {
        WallTimer T;
        const std::string &B = Spec.Benchmarks[Pending[K]];
        for (const std::string &CpuId : Spec.Cpus) {
          CpuConfig Cpu;
          if (!cpuConfigById(CpuId, Cpu))
            continue;
          // Per-CPU warmup: the Java runtime-overhead basis is a
          // (benchmark, CPU) cache; the trace/profile warmups behind it
          // are idempotent.
          if (Spec.Suite == "java")
            java().warmup(B, Cpu, Spec.Decode);
          else
            forth().warmup(B, Cpu, Spec.Decode);
        }
        CaptureBusy += T.seconds();
      },
      [&](size_t K) {
        GangReplayer::Stats GangLoad;
        Rows[Pending[K]] = runSlice(Spec, Pending[K], 0, M, &GangLoad);
        std::lock_guard<std::mutex> Lock(LoadMutex);
        Stats.Load.merge(GangLoad);
      });
  Stats.ReplaySeconds = PipelineTimer.seconds();
  Stats.CaptureSeconds = CaptureBusy;
  // Only the members a gang actually replayed: store-served cells cost
  // no events.
  Stats.ReplayedEvents = Stats.Load.MemberEvents;

  // Audit after the pipeline has fully drained, one row at a time: the
  // Auditor's counters, [audit] lines and store repairs are
  // unsynchronized. Rows are repaired in place, so the scatter below
  // publishes the post-audit (authoritative) cells.
  if (Audit && Audit->plan().enabled())
    for (size_t I = 0; I < W; ++I)
      Audit->auditSlice(Spec, I, 0, M, Rows[I]);

  Cells.assign(Spec.numCells(), PerfCounters());
  for (size_t I = 0; I < W; ++I)
    for (size_t J = 0; J < M; ++J)
      Cells[Spec.cellIndex(I, J)] = Rows[I][J];
  return Stats;
}
