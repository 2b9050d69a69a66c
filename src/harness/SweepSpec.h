//===- harness/SweepSpec.h - Declarative sweep specifications ---*- C++ -*-===//
///
/// \file
/// A sweep — the measurement matrix of Ertl & Gregg §7 and every bench
/// binary built on it — is a cross product
///
///   workloads × interpreter variants × predictor geometries × CPUs
///
/// evaluated over per-workload dispatch traces. This header makes that
/// cross product a *value*: `SweepSpec` describes a sweep declaratively,
/// serializes to a line-oriented text format (`printSweepSpec` /
/// `parseSweepSpec`, exact round-trip), and decomposes canonically into
/// shard jobs — one `(workload trace, contiguous slice of that
/// workload's gang members)` each (`decomposeSweep`). Because every
/// member is a *full* replay (self-contained: no cross-member fetch
/// baselines), a member's counters are a pure function of
/// (trace, variant, predictor, CPU) — independent of which other
/// members share its gang — so shard results merge member-wise into
/// exactly the cells a single in-process gang sweep produces,
/// regardless of the shard count or completion order.
///
/// `PerfCounters` serialize to `[result]` key=value lines
/// (`sweepResultLine` / `parseSweepResultLine`): the worker protocol of
/// tools/sweep_driver, and exact for uint64 by construction (decimal
/// text). Together with the serialized trace cache (VMIB_TRACE_CACHE)
/// this is what lets a sweep fan out over processes or machines and
/// merge bit-identically.
///
//===----------------------------------------------------------------------===//

#ifndef VMIB_HARNESS_SWEEPSPEC_H
#define VMIB_HARNESS_SWEEPSPEC_H

#include "harness/Variants.h"
#include "uarch/BTB.h"
#include "uarch/PerfCounters.h"
#include "uarch/TwoLevelPredictor.h"
#include "vmcore/GangSchedule.h"
#include "vmcore/TraceSource.h"

#include <cstddef>
#include <string>
#include <vector>

namespace vmib {

/// One point on the predictor axis of a sweep. `Default` is the CPU
/// model's own BTB; the other kinds name the §3/§8 ablation hardware.
struct PredictorGeometry {
  enum class Kind : uint8_t {
    Default,   ///< the CPU model's default BTB
    Btb,       ///< explicit BTB geometry (capacity sweeps, two-bit)
    TwoLevel,  ///< Driesen & Hölzle history predictor (§8)
    CaseBlock, ///< Kaeli & Emma case block table (switch dispatch)
  };
  Kind PredKind = Kind::Default;
  BTBConfig Btb;                    ///< Kind::Btb
  TwoLevelConfig TwoLevel;          ///< Kind::TwoLevel
  uint32_t CaseBlockEntries = 4096; ///< Kind::CaseBlock
};

/// A declarative sweep: the full cross product, plus execution knobs.
/// Cells are ordered canonically (see cellIndex) so any two executions
/// of the same spec agree on what "cell i" means.
struct SweepSpec {
  std::string Name;  ///< bench id for [timing]/[result] lines
  std::string Suite; ///< "forth" or "java"
  std::vector<std::string> Benchmarks;
  std::vector<std::string> Cpus; ///< cpuConfigById ids
  std::vector<VariantSpec> Variants;
  /// Predictor axis; empty means one Default geometry.
  std::vector<PredictorGeometry> Predictors;
  /// Gang tile size; 0 uses DispatchTrace::defaultChunkEvents().
  size_t ChunkEvents = 0;
  /// Intra-gang worker threads per gang replay (GangReplayer shared
  /// decoded tiles). 1 — the default, and what a spec without the
  /// field parses as — is the strictly serial PR-3 behavior; 0 means
  /// auto-detect (the executor resolves it to the host's
  /// hardware_concurrency, see resolveGangThreads). Any value produces
  /// bit-identical cells. Composes with process sharding into a
  /// two-level shards × threads fan-out.
  unsigned Threads = 1;
  /// The legacy `schedule` declaration. Parsed, never printed, and
  /// selects nothing: every pooled gang runs the one cost-aware
  /// scheduler (see GangSchedule.h).
  GangSchedule Schedule = GangSchedule::Static;
  /// How replay acquires each workload's event stream: materialize
  /// the whole trace in memory (the classic zero-copy path), stream
  /// it tile-by-tile from the trace cache file (working memory
  /// O(tile), independent of trace length), or Auto — the default,
  /// and what a spec without the field parses as — which streams only
  /// when the decoded footprint would exceed the 256 MiB
  /// AutoDecodeBudgetBytes. Cells are bit-identical on every path.
  TraceDecodeMode Decode = TraceDecodeMode::Auto;

  /// Gang members per workload: |Cpus| × |Variants| × max(1, |Predictors|),
  /// ordered CPU-major, then variant, then predictor.
  size_t membersPerWorkload() const {
    size_t P = Predictors.empty() ? 1 : Predictors.size();
    return Cpus.size() * Variants.size() * P;
  }
  /// Total cells: workloads × membersPerWorkload, workload-major.
  size_t numCells() const {
    return Benchmarks.size() * membersPerWorkload();
  }
  /// Canonical member index of (cpu, variant, predictor).
  size_t memberIndex(size_t Cpu, size_t Variant, size_t Predictor) const {
    size_t P = Predictors.empty() ? 1 : Predictors.size();
    return (Cpu * Variants.size() + Variant) * P + Predictor;
  }
  /// Canonical cell index of (workload, member).
  size_t cellIndex(size_t Workload, size_t Member) const {
    return Workload * membersPerWorkload() + Member;
  }
  /// Inverse of memberIndex.
  void decodeMember(size_t Member, size_t &Cpu, size_t &Variant,
                    size_t &Predictor) const {
    size_t P = Predictors.empty() ? 1 : Predictors.size();
    Predictor = Member % P;
    Variant = (Member / P) % Variants.size();
    Cpu = Member / (P * Variants.size());
  }
};

/// Renders \p Spec in the versioned text format. parse(print(S)) == S
/// field for field, and print(parse(T)) == print(T) for any valid T.
std::string printSweepSpec(const SweepSpec &Spec);

/// Parses the text format. \returns false with \p Error set on any
/// malformed line; structural validity (non-empty axes, known suite /
/// CPU ids, suite-specific predictor support) is validateSweepSpec's
/// job, which parseSweepSpec calls last.
bool parseSweepSpec(const std::string &Text, SweepSpec &Out,
                    std::string &Error);

/// Structural validation shared by parseSweepSpec and the bench /
/// driver entry points (which also build specs programmatically).
bool validateSweepSpec(const SweepSpec &Spec, std::string &Error);

/// Writes printSweepSpec(Spec) to \p Path (the file worker processes
/// load). \returns false with \p Error set on I/O failure.
bool writeSweepSpecFile(const SweepSpec &Spec, const std::string &Path,
                        std::string &Error);

/// Reads and parses a spec file.
bool loadSweepSpecFile(const std::string &Path, SweepSpec &Out,
                       std::string &Error);

/// One shard: a contiguous run of workload \p Workload's gang members.
struct ShardJob {
  size_t Workload = 0;
  size_t MemberBegin = 0;
  size_t MemberEnd = 0; ///< half-open
};

/// Canonical decomposition into shard jobs. Jobs never span workloads
/// (each streams exactly one trace). With \p Shards <= workloads this
/// is one job per workload (trace-affine optimum); beyond that each
/// workload's member list splits into ceil(Shards / workloads)
/// near-equal slices. Deterministic: same (spec, Shards) -> same jobs.
std::vector<ShardJob> decomposeSweep(const SweepSpec &Spec, unsigned Shards);

/// Scatters per-job slice results into the canonical cell vector.
/// \p SliceResults[i] must hold Jobs[i].MemberEnd - Jobs[i].MemberBegin
/// counters in member order. \returns false with \p Error set if the
/// jobs do not cover every cell exactly once.
bool mergeShardResults(const SweepSpec &Spec,
                       const std::vector<ShardJob> &Jobs,
                       const std::vector<std::vector<PerfCounters>>
                           &SliceResults,
                       std::vector<PerfCounters> &Cells, std::string &Error);

/// One finished cell as a machine-readable line:
///   [result] sweep=<name> workload=W member=M cycles=... instrs=... ...
/// Decimal u64 fields, so text round-trip is exact.
std::string sweepResultLine(const std::string &SweepName, size_t Workload,
                            size_t Member, const PerfCounters &C);

/// Parses a sweepResultLine. \returns false (without touching the
/// out-params) if \p Line is not a well-formed [result] line.
bool parseSweepResultLine(const std::string &Line, std::string &SweepName,
                          size_t &Workload, size_t &Member, PerfCounters &C);

} // namespace vmib

#endif // VMIB_HARNESS_SWEEPSPEC_H
