//===- harness/Auditor.h - Sampled redundant-execution audit ----*- C++ -*-===//
///
/// \file
/// The silent-corruption audit layer, and the one engine behind
/// `sweep_driver --verify`. Every guarantee the sweep pipeline makes
/// reduces to one contract: a cell's counters are a pure function of
/// (trace content, member config), bit-identical across decode mode,
/// tile size, thread count and shard count. Production audits check it
/// *continuously*, on a deterministically sampled subset of real
/// cells; `--verify` is the same Auditor at rate 1.0 against the four
/// fixed shapes of verifyAuditShapes():
///
///  1. **Sample** — each cell draws against `AuditPlan.Rate` with a
///     seeded hash of its content identity (suite, benchmark, member
///     config — nothing about execution shape), so re-runs audit the
///     same cells and sharding cannot dodge the sample.
///  2. **Re-execute in another shape** — production audits replay the
///     sampled cell through a shape that flips every axis relative to
///     the primary: decode mode (stream<->materialize), gang tile size
///     and thread count. A bug or bit flip tied to any one shape
///     cannot corrupt both executions identically. Audit executions
///     bypass the result store and run fault-injection-free: the
///     store key ignores shape (caching across shapes is its point),
///     so a store-served cell would otherwise just re-serve itself.
///  3. **Tiebreak + triage** — on mismatch, a third execution through
///     the canonical clean shape (materialize, default tile, one
///     thread) classifies the fault (triageMismatch, the one ladder):
///       tiebreak == audit  != primary : the primary was wrong. If the
///           store would serve that wrong value -> store-served
///           corruption (quarantine the cell, never delete); else
///           compute divergence in the primary shape.
///       tiebreak == primary != audit  : the audit shape diverged —
///           compute divergence; the primary stands.
///       all three differ              : nondeterminism (the contract
///           itself is broken for this cell).
///     The tiebreak result is the authoritative value: the cell is
///     repaired in place ("requeued for authoritative recompute") and
///     re-recorded to the store, so final tables converge to the
///     fault-free reference.
///
/// Everything is reported through `[audit]` stdout lines (one detail
/// line per mismatch, one summary line per audited slice) and
/// `AuditStats`. A sweep audits in the one process that owns it: the
/// in-process executor after its pipeline drains, the orchestrator
/// over its committed slices, or `--verify`.
///
/// Proven by injection: `VMIB_FAULT="flipcounter=P,flipstore=P"`
/// (harness/FaultInjection.h) plants seeded single-bit flips in
/// computed counters / served store records, and tests/AuditTest.cpp +
/// the CI chaos-audit job assert the auditor catches, classifies,
/// quarantines, and converges.
///
//===----------------------------------------------------------------------===//

#ifndef VMIB_HARNESS_AUDITOR_H
#define VMIB_HARNESS_AUDITOR_H

#include "harness/ResultStore.h"
#include "harness/SweepSpec.h"
#include "vmcore/GangReplayer.h"

#include <cstdint>
#include <string>
#include <vector>

namespace vmib {

class SweepExecutor;

/// The sampling contract: audit each cell with probability \p Rate,
/// decided by a pure seeded draw over the cell's content identity.
struct AuditPlan {
  double Rate = 0;  ///< [0, 1]; 0 disables, 1 audits every cell
  /// Fixed default so plain `--audit=RATE` re-runs audit the same
  /// cells; override for a fresh sample ("audi").
  uint64_t Seed = 0x61756469;

  bool enabled() const { return Rate > 0; }
};

/// Parses the `--audit=RATE` value: plain decimal digits with an
/// optional fraction ("1", "0.25"), in [0, 1]. Signs, exponents, hex,
/// spaces, "nan" and "inf" are rejected.
bool parseAuditRate(const std::string &Text, AuditPlan &Plan,
                    std::string &Error);

/// The deterministic sampling draw for one cell. Keyed on content
/// identity only — suite, benchmark, member configuration (via
/// memberCostKey) — never on execution shape, shard layout or the
/// spec's display name, so the same logical cell is audited no matter
/// how the sweep is decomposed. Pure.
bool decideAudit(const AuditPlan &Plan, const SweepSpec &Spec,
                 size_t Workload, size_t Member);

/// What the tiebreak concluded about one mismatched cell.
enum class AuditVerdict : uint8_t {
  Match,             ///< no mismatch (not reported per cell)
  StoreCorruption,   ///< the store serves a proven-wrong value
  ComputeDivergence, ///< one execution shape computed a wrong value
  Nondeterminism,    ///< all three shapes disagree
};

/// Stable token for [audit] lines and tests ("match",
/// "store_corruption", "compute_divergence", "nondeterminism").
const char *auditVerdictId(AuditVerdict V);

/// One point in execution-shape space: the axes the bit-identity
/// contract quantifies over. A plain value — replaying a shape means
/// copying these fields into a SweepSpec, nothing process-wide.
struct AuditShape {
  TraceDecodeMode Decode = TraceDecodeMode::Materialize;
  /// Gang tile size in events (the spec `chunk` field, outside the
  /// store key); 0 = DispatchTrace::defaultChunkEvents().
  size_t ChunkEvents = 0;
  unsigned Threads = 1;
};

/// The decorrelation matrix: every axis flipped relative to what
/// \p Spec would run as primary.
AuditShape decorrelatedAuditShape(const SweepSpec &Spec);

/// The tiebreak shape: the canonical clean configuration
/// (materialize, default tile, one thread) — the most-tested baseline
/// path, and the authority when primary and audit disagree.
AuditShape canonicalAuditShape();

/// The four shapes `--verify` audits every cell against, covering
/// decode x tile x threads pairwise (every pair of axis values occurs
/// in some shape): canonicalAuditShape(), {materialize, prime tile, N},
/// {stream, default tile, N} and {stream, prime tile, 1}, where N is
/// resolveGangThreads(\p SpecThreads), or 2 when that is 1.
std::vector<AuditShape> verifyAuditShapes(unsigned SpecThreads);

/// "decode:stream,chunk:20011,threads:2" for logs (chunk 0 renders as
/// "default").
std::string auditShapeId(const AuditShape &S);

/// Prints the replay line of one audited shape: `[timing]
/// bench=<Bench> shape=<auditShapeId> replay_s=… member_events=…
/// steals=… restarts=… peak_ring_bytes=…`, from the gang stats \p Load
/// the shape's replays accumulated in \p Seconds.
void printShapeTiming(const std::string &Bench, const AuditShape &S,
                      double Seconds, const GangReplayer::Stats &Load);

/// Counters the audit layer reports (summed across slices; an
/// orchestrated sweep's are OrchestratorReport::Audit).
struct AuditStats {
  uint64_t CellsAudited = 0;
  uint64_t Mismatches = 0;         ///< audit != primary
  uint64_t StoreCorruptions = 0;   ///< verdict breakdown of mismatches
  uint64_t ComputeDivergences = 0;
  uint64_t Nondeterminism = 0;
  uint64_t CellsQuarantined = 0;   ///< store cells retired as evidence
  uint64_t CellsRequeued = 0;      ///< cells repaired with the
                                   ///< authoritative recompute

  void merge(const AuditStats &O) {
    CellsAudited += O.CellsAudited;
    Mismatches += O.Mismatches;
    StoreCorruptions += O.StoreCorruptions;
    ComputeDivergences += O.ComputeDivergences;
    Nondeterminism += O.Nondeterminism;
    CellsQuarantined += O.CellsQuarantined;
    CellsRequeued += O.CellsRequeued;
  }
};

/// Prints the `[audit]` summary line: `[audit] sweep=<Sweep> <Scope>
/// audited=N mismatches=N store_corruption=N compute_divergence=N
/// nondeterminism=N quarantined=N requeued=N`. The counter tokens sum
/// across a sweep's lines, so \p Scope ("workload=2") must carry none
/// of them.
void printAuditSummary(const std::string &Sweep, const std::string &Scope,
                       const AuditStats &S);

/// The triage ladder (see the file comment) for one cell whose audit
/// value \p Audit disagreed with \p Primary, given the canonical
/// tiebreak value \p Tie. When the tiebreak proves the primary wrong,
/// or all three differ, the cell is quarantined and re-recorded in
/// \p Store if the store would serve a value other than \p Tie (null:
/// no keyed store; \p TraceHash keys the cell), and \p Primary is
/// repaired to \p Tie. Counts the verdict, quarantine and repair into
/// \p Stats (not the mismatch itself: callers count that when they
/// compare) and prints the `[audit]` detail line. \returns true when
/// \p Store was written, so the caller flushes once per batch.
bool triageMismatch(const SweepSpec &Spec, size_t Workload, size_t Member,
                    PerfCounters &Primary, const PerfCounters &Audit,
                    const PerfCounters &Tie, ResultStore *Store,
                    uint64_t TraceHash, AuditStats &Stats);

/// The audit engine, shared by `runAll` (audits each workload row
/// after the pipeline drains), the orchestrator (audits each committed
/// job's slice before the merge) and `--verify`. NOT thread-safe:
/// its counters, its `[audit]` lines and its store repairs are
/// unsynchronized, so callers run one audit at a time. Shape
/// re-execution itself touches no process-wide state.
class Auditor {
public:
  /// \p Store (may be null) is consulted and repaired during triage;
  /// audit re-executions themselves never touch it.
  Auditor(const AuditPlan &Plan, SweepExecutor &Executor,
          ResultStore *Store = nullptr)
      : Plan(Plan), Executor(Executor), StoreRef(Store) {}

  /// The production audit: auditShape() against
  /// decorrelatedAuditShape(\p Spec), then one summary line per slice
  /// that sampled anything.
  void auditSlice(const SweepSpec &Spec, size_t Workload,
                  size_t MemberBegin, size_t MemberEnd,
                  std::vector<PerfCounters> &Slice,
                  GangReplayer::Stats *LoadOut = nullptr);

  /// Audits the sampled members of [\p MemberBegin, \p MemberEnd) of
  /// workload \p Workload against \p Shape. \p Slice holds the primary
  /// results in member order and is repaired IN PLACE wherever the
  /// tiebreak proves the primary wrong — after this returns, the slice
  /// is what the caller should announce. Prints one detail line per
  /// mismatch. \p LoadOut, when non-null, accumulates the shaped
  /// replay's gang stats (not the tiebreak's). \returns the
  /// slice-local counters, which stats() has also absorbed.
  AuditStats auditShape(const SweepSpec &Spec, size_t Workload,
                        size_t MemberBegin, size_t MemberEnd,
                        std::vector<PerfCounters> &Slice,
                        const AuditShape &Shape,
                        GangReplayer::Stats *LoadOut = nullptr);

  const AuditPlan &plan() const { return Plan; }
  const AuditStats &stats() const { return Stats; }

private:
  std::vector<PerfCounters> replayShaped(const SweepSpec &Spec,
                                         size_t Workload,
                                         const std::vector<size_t> &Members,
                                         const AuditShape &Shape,
                                         GangReplayer::Stats *LoadOut);
  bool traceHashFor(const SweepSpec &Spec, size_t Workload,
                    uint64_t &Out);

  AuditPlan Plan;
  SweepExecutor &Executor;
  ResultStore *StoreRef;
  AuditStats Stats;
};

} // namespace vmib

#endif // VMIB_HARNESS_AUDITOR_H
