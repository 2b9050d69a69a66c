//===- harness/WorkloadLab.h - Workload identity and traces -----*- C++ -*-===//
///
/// \file
/// What the Forth and Java labs share: each benchmark's reference
/// numbers and its captured dispatch trace. The two interpreters (§7)
/// differ in how a workload is compiled, trained (§7.1) and quickened
/// (§5.4); they do not differ in how its trace is captured, verified,
/// cached and replayed, so that part lives here once.
///
/// A benchmark's reference numbers (output hash, step count) come from
/// a valid meta sidecar in VMIB_TRACE_CACHE (harness/WorkloadCache.h)
/// or from one reference interpretation. A sidecar-sourced hash is
/// provisional: the first interpretation that disagrees with it (a
/// capture, a training or profile run, the direct path's re-check) is
/// adopted instead, the state derived from the stale hash is retired
/// and the sidecar is rewritten.
///
/// A lab supplies its suite name (the `<suite>-<benchmark>` cache-key
/// prefix) and four hooks:
///  - identify(): compile a benchmark and name the program its meta
///    sidecar is bound to, or give the exact reference numbers of a
///    workload its definition fixes;
///  - interpret(): one whole interpretation, optionally recording its
///    dispatch trace (where Forth's synthetic workloads generate);
///  - warmSelection(): populate the inputs of static selection (Forth's
///    training profile, Java's suite profiles) before a sweep;
///  - retireDerived(): drop what a stale hash derived.
///
/// Thread-safe. Whole-workload interpretations for a reference run, a
/// training or profile run, or a re-check run under CacheMutex; a
/// capture runs outside it, and concurrent first captures of one
/// benchmark race to the emplace (the loser's trace is discarded).
///
//===----------------------------------------------------------------------===//

#ifndef VMIB_HARNESS_WORKLOADLAB_H
#define VMIB_HARNESS_WORKLOADLAB_H

#include "harness/WorkloadCache.h"
#include "uarch/CpuModel.h"
#include "vmcore/DispatchTrace.h"
#include "vmcore/TraceSource.h"

#include <atomic>
#include <map>
#include <mutex>
#include <optional>
#include <string>

namespace vmib {

/// What a lab knows of a benchmark before interpreting it.
struct WorkloadBinding {
  /// programBindingHash of the compiled program: what the benchmark's
  /// meta sidecar is bound to.
  uint64_t ProgramHash = 0;
  /// Reference numbers the workload's definition fixes (a synthetic
  /// workload's name is its identity). Such a workload reads and writes
  /// no meta sidecar, runs no reference interpretation, and its numbers
  /// are never provisional.
  std::optional<WorkloadMeta> Exact;
};

class WorkloadLab {
public:
  virtual ~WorkloadLab() = default;
  WorkloadLab(const WorkloadLab &) = delete;
  WorkloadLab &operator=(const WorkloadLab &) = delete;

  /// The captured dispatch trace of \p Benchmark: loaded from the
  /// VMIB_TRACE_CACHE directory when a valid (workload- and
  /// content-hash-verified) file exists, otherwise captured once,
  /// sealed and saved back (best-effort); then cached in memory for
  /// replays. A capture is itself a reference run: it confirms or
  /// replaces a provisional hash.
  const DispatchTrace &trace(const std::string &Benchmark);

  /// The replay input for \p Benchmark under \p Mode: a borrowed
  /// in-memory trace (zero-copy tiles) or a validated streaming view
  /// of the benchmark's trace cache file (O(tile) working memory).
  /// Auto streams only when the decoded footprint exceeds
  /// AutoDecodeBudgetBytes AND a valid cache file exists. An explicit
  /// Stream request with no streamable file falls back to
  /// materializing with a warning — replay never fails over a missing
  /// optimization. Counters are bit-identical either way.
  TraceSource traceSource(const std::string &Benchmark,
                          TraceDecodeMode Mode = TraceDecodeMode::Auto);

  /// Reference output hash of \p Benchmark (what every variant run and
  /// the trace cache verify against); may be provisional.
  uint64_t referenceHash(const std::string &Benchmark);

  /// Steps of the reference run (== events of the captured trace).
  uint64_t referenceSteps(const std::string &Benchmark);

  /// Whole-workload reference interpretations this lab actually ran
  /// (cold-start accounting): a capture is not counted, and sidecar
  /// hits keep this at zero.
  uint64_t referenceRunsPerformed() const {
    return ReferenceRuns.load(std::memory_order_relaxed);
  }

  /// Populates the caches a parallel sweep will hit — the benchmark's
  /// trace and the static-selection inputs — so the sweep's replay
  /// workers never run a whole-workload interpretation. \p Decode
  /// mirrors the sweep's decode mode: a streaming sweep only validates
  /// the trace cache file (capturing it if absent) instead of pinning
  /// the whole event arena in memory. \p Cpu is unused and kept for
  /// the callers' per-CPU loop.
  void warmup(const std::string &Benchmark, const CpuConfig &Cpu,
              TraceDecodeMode Decode = TraceDecodeMode::Auto);

  /// Releases a cached trace (memory control in long sweeps). NOT safe
  /// while replays of \p Benchmark are in flight: they hold references
  /// into the cached trace. Call only between sweep phases.
  void dropTrace(const std::string &Benchmark);

protected:
  /// \p Suite prefixes every cache key (workloadKey).
  explicit WorkloadLab(std::string Suite) : Suite(std::move(Suite)) {}

  /// Compiles \p Benchmark (cached by the lab) and binds it; fatal on
  /// an unknown name. Called under CacheMutex.
  virtual WorkloadBinding identify(const std::string &Benchmark) = 0;

  /// One whole interpretation of \p Benchmark on a pristine program;
  /// with \p Capture, records its dispatch trace there (already
  /// reserved for the reference step count). Fills \p Out; \returns
  /// false with \p Error when the run fails. Called with and without
  /// CacheMutex held, so it must not take that lock.
  virtual bool interpret(const std::string &Benchmark,
                         DispatchTrace *Capture, WorkloadMeta &Out,
                         std::string &Error) = 0;

  /// Populates the inputs every static-resource selection derives from.
  virtual void warmSelection() = 0;

  /// Drops state derived from \p Benchmark's replaced reference hash.
  /// Called under CacheMutex.
  virtual void retireDerived(const std::string &Benchmark) = 0;

  /// The reference hash under CacheMutex (a training or profile run
  /// binds its persisted profile to it).
  uint64_t referenceHashLocked(const std::string &Benchmark) {
    return identityLocked(Benchmark).Meta.ReferenceHash;
  }

  /// Offers the numbers of an authoritative interpretation of
  /// \p Benchmark (caller holds CacheMutex). A provisional hash is
  /// confirmed when they agree; otherwise the stale numbers are
  /// replaced, retireDerived() runs and the sidecar is rewritten.
  /// Confirmed numbers are left alone.
  void adoptLocked(const std::string &Benchmark, const WorkloadMeta &Run);

  /// The authoritative reference hash: if the cached value is
  /// provisional, runs the reference interpretation (under the lock)
  /// and adopts it. The direct path calls this when a run disagrees,
  /// so a stale sidecar degrades to one extra run, never to a false
  /// divergence abort.
  uint64_t confirmedReferenceHash(const std::string &Benchmark);

  // Plain mutex on purpose: the *Locked helpers exist so nothing locks
  // re-entrantly; accidental re-entrancy should deadlock loudly, not
  // silently recurse. Guards this class's maps and the derived labs'
  // selection state.
  std::mutex CacheMutex;

private:
  struct Identity {
    uint64_t ProgramHash = 0;
    WorkloadMeta Meta;
    /// Sidecar-sourced and not yet confirmed by an interpretation.
    bool Provisional = false;
  };

  Identity &identityLocked(const std::string &Benchmark);
  /// One reference run under the lock; fatal when it fails.
  WorkloadMeta referenceRunLocked(const std::string &Benchmark);

  const std::string Suite;
  std::map<std::string, Identity> Ids;
  std::map<std::string, DispatchTrace> Traces;
  std::atomic<uint64_t> ReferenceRuns{0};
};

} // namespace vmib

#endif // VMIB_HARNESS_WORKLOADLAB_H
