//===- harness/Auditor.cpp - Sampled redundant-execution audit ------------===//

#include "harness/Auditor.h"

#include "harness/SweepExecutor.h"
#include "harness/WorkloadCache.h"
#include "support/Format.h"
#include "support/Random.h"
#include "vmcore/DispatchTrace.h"

#include <cstdio>
#include <cstdlib>

using namespace vmib;

namespace {

uint64_t fnv1aString(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (char C : S) {
    H ^= static_cast<unsigned char>(C);
    H *= 0x100000001b3ULL;
  }
  return H;
}

/// A prime tile size: audit tiles straddle the primary's tile
/// boundaries and the trace file's frames, so a bug tied to either
/// alignment cannot hit both executions the same way.
constexpr size_t AuditChunkEvents = 20011;

} // namespace

bool vmib::parseAuditRate(const std::string &Text, AuditPlan &Plan,
                          std::string &Error) {
  // Plain decimal only. strtod alone would also take "nan" — which no
  // range check rejects, and which then silently disables the audit —
  // as well as "inf", hex floats, exponents and leading space.
  size_t I = 0;
  auto Digits = [&] {
    size_t From = I;
    while (I < Text.size() && Text[I] >= '0' && Text[I] <= '9')
      ++I;
    return I > From;
  };
  bool Plain = Digits() && (I == Text.size() ||
                            (Text[I++] == '.' && Digits() && I == Text.size()));
  double Rate = Plain ? std::strtod(Text.c_str(), nullptr) : -1;
  if (Rate < 0 || Rate > 1) {
    Error = "bad audit rate '" + Text + "' (expected 0..1)";
    return false;
  }
  Plan.Rate = Rate;
  return true;
}

bool vmib::decideAudit(const AuditPlan &Plan, const SweepSpec &Spec,
                       size_t Workload, size_t Member) {
  if (Plan.Rate <= 0)
    return false;
  if (Plan.Rate >= 1)
    return true;
  // Content identity only: the member's configuration key (strategy,
  // predictor geometry, CPU — deliberately shape-free, same feed as
  // the store key) and the workload's suite-qualified name. Shard
  // layout, thread count, tile size, decode mode and the spec's display
  // name do not participate, so the sample is stable across every way
  // of executing the same sweep.
  uint64_t CfgKey = memberConfigKey(Spec, Member);
  uint64_t Bench =
      fnv1aString(workloadKey(Spec.Suite, Spec.Benchmarks[Workload]));
  SplitMix64 G(Plan.Seed ^ (CfgKey * 0x2545F4914F6CDD1DULL) ^
               (Bench * 0x9E3779B97F4A7C15ULL));
  return static_cast<double>(G.next() >> 11) * 0x1.0p-53 < Plan.Rate;
}

const char *vmib::auditVerdictId(AuditVerdict V) {
  switch (V) {
  case AuditVerdict::Match:
    return "match";
  case AuditVerdict::StoreCorruption:
    return "store_corruption";
  case AuditVerdict::ComputeDivergence:
    return "compute_divergence";
  case AuditVerdict::Nondeterminism:
    return "nondeterminism";
  }
  return "match";
}

AuditShape vmib::decorrelatedAuditShape(const SweepSpec &Spec) {
  AuditShape S;
  // Every axis flips relative to the primary. Auto decode flips to
  // Stream (Auto materializes any trace that fits the budget, so
  // Stream is the opposite path in practice; a budget-exceeding trace
  // degenerates to a same-decode audit on that one axis while the
  // other two still flip).
  S.Decode = Spec.Decode == TraceDecodeMode::Stream
                 ? TraceDecodeMode::Materialize
                 : TraceDecodeMode::Stream;
  size_t PrimaryChunk = Spec.ChunkEvents != 0
                            ? Spec.ChunkEvents
                            : DispatchTrace::defaultChunkEvents();
  S.ChunkEvents = PrimaryChunk == AuditChunkEvents ? 2 * AuditChunkEvents
                                                   : AuditChunkEvents;
  S.Threads = resolveGangThreads(Spec.Threads) <= 1 ? 2 : 1;
  return S;
}

AuditShape vmib::canonicalAuditShape() { return AuditShape(); }

std::vector<AuditShape> vmib::verifyAuditShapes(unsigned SpecThreads) {
  unsigned N = resolveGangThreads(SpecThreads);
  if (N <= 1)
    N = 2;
  constexpr TraceDecodeMode Materialize = TraceDecodeMode::Materialize;
  constexpr TraceDecodeMode Stream = TraceDecodeMode::Stream;
  return {canonicalAuditShape(),
          {Materialize, AuditChunkEvents, N},
          {Stream, 0, N},
          {Stream, AuditChunkEvents, 1}};
}

std::string vmib::auditShapeId(const AuditShape &S) {
  std::string Out = "decode:";
  Out += traceDecodeModeId(S.Decode);
  Out += ",chunk:";
  Out += S.ChunkEvents == 0 ? "default" : std::to_string(S.ChunkEvents);
  Out += ",threads:" + std::to_string(S.Threads);
  return Out;
}

void vmib::printShapeTiming(const std::string &Bench, const AuditShape &S,
                            double Seconds, const GangReplayer::Stats &Load) {
  uint64_t Steals = 0;
  for (const GangReplayer::Stats::Worker &W : Load.Workers)
    Steals += W.MembersStolen;
  std::printf("[timing] bench=%s shape=%s replay_s=%.3f member_events=%llu "
              "steals=%llu restarts=%llu peak_ring_bytes=%llu\n",
              Bench.c_str(), auditShapeId(S).c_str(), Seconds,
              static_cast<unsigned long long>(Load.MemberEvents),
              static_cast<unsigned long long>(Steals),
              static_cast<unsigned long long>(Load.DeferredFinishes),
              static_cast<unsigned long long>(Load.PeakTileRingBytes));
}

void vmib::printAuditSummary(const std::string &Sweep,
                             const std::string &Scope, const AuditStats &S) {
  std::printf("[audit] sweep=%s %s audited=%llu mismatches=%llu "
              "store_corruption=%llu compute_divergence=%llu "
              "nondeterminism=%llu quarantined=%llu requeued=%llu\n",
              Sweep.c_str(), Scope.c_str(),
              static_cast<unsigned long long>(S.CellsAudited),
              static_cast<unsigned long long>(S.Mismatches),
              static_cast<unsigned long long>(S.StoreCorruptions),
              static_cast<unsigned long long>(S.ComputeDivergences),
              static_cast<unsigned long long>(S.Nondeterminism),
              static_cast<unsigned long long>(S.CellsQuarantined),
              static_cast<unsigned long long>(S.CellsRequeued));
}

bool vmib::triageMismatch(const SweepSpec &Spec, size_t Workload,
                          size_t Member, PerfCounters &Primary,
                          const PerfCounters &Audit, const PerfCounters &Tie,
                          ResultStore *Store, uint64_t TraceHash,
                          AuditStats &Stats) {
  // The canonical tiebreak is the authority whenever it confirms
  // either side. Tie == Audit proves the primary wrong; Tie == Primary
  // means the audit shape diverged and the primary stands; three
  // different answers break the purity contract itself, and the cell
  // is repaired toward the canonical shape.
  AuditVerdict V = Tie == Audit || Tie == Primary
                       ? AuditVerdict::ComputeDivergence
                       : AuditVerdict::Nondeterminism;
  bool Repair = Tie != Primary;
  // The store is implicated iff it would serve a value other than the
  // authoritative one — covers both a corrupt committed record and
  // corruption injected at serve time.
  bool Quarantined = false;
  if (Repair && Store) {
    StoreKey Key = cellStoreKey(Spec, Member, TraceHash);
    Quarantined = Store->quarantineCell(Key, Primary, Tie);
    if (Quarantined) {
      Store->record(Key, Tie);
      ++Stats.CellsQuarantined;
      if (V == AuditVerdict::ComputeDivergence)
        V = AuditVerdict::StoreCorruption;
    }
  }
  switch (V) {
  case AuditVerdict::StoreCorruption:
    ++Stats.StoreCorruptions;
    break;
  case AuditVerdict::ComputeDivergence:
    ++Stats.ComputeDivergences;
    break;
  case AuditVerdict::Nondeterminism:
    ++Stats.Nondeterminism;
    break;
  case AuditVerdict::Match:
    break;
  }
  // Detail line: fingerprints, not raw counters — enough to match
  // evidence records and dedupe across shapes without 9 columns.
  std::printf("[audit] sweep=%s workload=%zu member=%zu verdict=%s "
              "primary_fp=%016llx audit_fp=%016llx tiebreak_fp=%016llx\n",
              Spec.Name.c_str(), Workload, Member, auditVerdictId(V),
              static_cast<unsigned long long>(Primary.fingerprint()),
              static_cast<unsigned long long>(Audit.fingerprint()),
              static_cast<unsigned long long>(Tie.fingerprint()));
  if (Repair) {
    // "Requeue for authoritative recompute": the tiebreak IS that
    // recompute (canonical shape, store- and fault-free).
    Primary = Tie;
    ++Stats.CellsRequeued;
  }
  return Quarantined;
}

std::vector<PerfCounters>
Auditor::replayShaped(const SweepSpec &Spec, size_t Workload,
                      const std::vector<size_t> &Members,
                      const AuditShape &Shape, GangReplayer::Stats *LoadOut) {
  SweepSpec Shaped = Spec;
  Shaped.Decode = Shape.Decode;
  Shaped.ChunkEvents = Shape.ChunkEvents;
  Shaped.Threads = Shape.Threads;
  // Direct replay: no store (the shape-free key would re-serve the
  // very value under audit), no fault injection (the flip draws are
  // keyed on the cell, so an injected primary fault would reproduce
  // and mask itself).
  return Executor.replayMembersDirect(Shaped, Workload, Members, LoadOut);
}

bool Auditor::traceHashFor(const SweepSpec &Spec, size_t Workload,
                           uint64_t &Out) {
  if (!StoreRef || !StoreRef->isOpen())
    return false;
  const std::string &B = Spec.Benchmarks[Workload];
  if (!DispatchTrace::peekContentHash(
          DispatchTrace::cachePathFor(workloadKey(Spec.Suite, B)), Out))
    Out = Executor.lab(Spec).trace(B).contentHash();
  return true;
}

void Auditor::auditSlice(const SweepSpec &Spec, size_t Workload,
                         size_t MemberBegin, size_t MemberEnd,
                         std::vector<PerfCounters> &Slice,
                         GangReplayer::Stats *LoadOut) {
  AuditStats Local = auditShape(Spec, Workload, MemberBegin, MemberEnd,
                                Slice, decorrelatedAuditShape(Spec), LoadOut);
  // Summary line with slice-local counters, so a sweep's lines sum.
  if (Local.CellsAudited > 0)
    printAuditSummary(Spec.Name, format("workload=%zu", Workload), Local);
}

AuditStats Auditor::auditShape(const SweepSpec &Spec, size_t Workload,
                               size_t MemberBegin, size_t MemberEnd,
                               std::vector<PerfCounters> &Slice,
                               const AuditShape &Shape,
                               GangReplayer::Stats *LoadOut) {
  AuditStats Local;
  if (!Plan.enabled())
    return Local;
  std::vector<size_t> Sampled;
  for (size_t M = MemberBegin; M < MemberEnd; ++M)
    if (decideAudit(Plan, Spec, Workload, M))
      Sampled.push_back(M);
  if (Sampled.empty())
    return Local;

  Local.CellsAudited = Sampled.size();
  std::vector<PerfCounters> AuditVals =
      replayShaped(Spec, Workload, Sampled, Shape, LoadOut);
  std::vector<size_t> Mismatched; // indices into Sampled
  std::vector<size_t> TieMembers;
  for (size_t K = 0; K < Sampled.size(); ++K)
    if (AuditVals[K] != Slice[Sampled[K] - MemberBegin]) {
      Mismatched.push_back(K);
      TieMembers.push_back(Sampled[K]);
    }

  if (!Mismatched.empty()) {
    Local.Mismatches = Mismatched.size();
    std::vector<PerfCounters> TieVals = replayShaped(
        Spec, Workload, TieMembers, canonicalAuditShape(), nullptr);
    uint64_t TraceHash = 0;
    ResultStore *Keyed =
        traceHashFor(Spec, Workload, TraceHash) ? StoreRef : nullptr;
    bool StoreDirty = false;
    for (size_t J = 0; J < Mismatched.size(); ++J)
      StoreDirty |= triageMismatch(
          Spec, Workload, TieMembers[J], Slice[TieMembers[J] - MemberBegin],
          AuditVals[Mismatched[J]], TieVals[J], Keyed, TraceHash, Local);
    if (StoreDirty)
      (void)StoreRef->flush(); // authoritative recomputes durable now
  }
  Stats.merge(Local);
  return Local;
}
