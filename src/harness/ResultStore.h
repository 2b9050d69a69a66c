//===- harness/ResultStore.h - Durable per-cell result cache ----*- C++ -*-===//
///
/// \file
/// A persistent, crash-consistent store of per-cell `PerfCounters`,
/// living beside the trace cache (default `<VMIB_TRACE_CACHE>/results`,
/// or the `--store-dir` directory). Sweep cells are pure
/// functions of (trace, member configuration) — the bit-identity
/// contract every execution mode is verified against — so a cell
/// result can be cached *by content*: the store key is a 128-bit hash
/// of
///
///   store format version × trace content hash × strategy config ×
///   predictor geometry × CPU id
///
/// and anything that would change a cell's counters (a re-captured
/// trace, an edited variant, a different geometry, a capture-semantics
/// version bump) changes the key, so stale entries are never *served*
/// — they just stop being found. Invalidation is a non-event.
///
/// **Durability model** (docs/simulation-pipeline.md): records append
/// to immutable, checksummed journal segments (`seg-*.vmibstore`), one
/// new segment per flush, committed via temp-write → fsync → rename →
/// directory fsync. Startup recovery replays every segment: a valid
/// prefix followed by a torn tail is salvaged (the prefix is rewritten
/// as a fresh segment, the damaged file moves to `quarantine/`), a
/// segment with a bad header is quarantined whole. Nothing is ever
/// deleted by recovery — quarantine preserves the evidence. Advisory
/// `flock` locking makes concurrent orchestrators/executors sharing
/// one store safe: `store.lock` (exclusive, held briefly) serializes
/// recovery scans and segment commits; `inuse.lock` (shared, held for
/// the store's lifetime) lets `--cache-gc` refuse to evict a store a
/// live sweep is using.
///
/// Filesystem fault injection: when `VMIB_FAULT` carries
/// `torn=P,nospace=P,renamefail=P` (harness/FaultInjection.h), each
/// segment flush draws deterministically and misbehaves accordingly —
/// the recovery paths above are replayable in tests instead of
/// requiring a real power cut. `flipstore=P` additionally corrupts one
/// seeded bit of a *served* record (probe/lookup) while the disk bytes
/// stay clean — silent corruption below the checksums, for the audit
/// layer to catch.
///
/// **Cell quarantine** (harness/Auditor): when an audit proves the
/// store resolves a key to a wrong value, `quarantineCell()` retires
/// that exact (key, value) pair — never the whole segment, never by
/// deletion. It writes an evidence record into `quarantine/` and a
/// durable value-fingerprint *tombstone* (`tomb-*.vmibtomb`); at every
/// future open, segment records matching a tombstoned fingerprint are
/// skipped at load, so the corrupt value stops being served while any
/// clean record for the same key (earlier or later in the
/// lexicographic merge) still wins. Value-targeted tombstones are what
/// make this sound: segment merge order is sorted-name, not temporal,
/// so "append a corrected record" alone could not retire a bad one.
///
//===----------------------------------------------------------------------===//

#ifndef VMIB_HARNESS_RESULTSTORE_H
#define VMIB_HARNESS_RESULTSTORE_H

#include "harness/FaultInjection.h"
#include "harness/SweepSpec.h"
#include "uarch/PerfCounters.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace vmib {

/// 128-bit content key of one sweep cell (two independent FNV-1a
/// streams over the same feed; a wrong lookup needs both halves to
/// collide — the same residual risk class as the trace cache's own
/// content hash).
struct StoreKey {
  uint64_t Hi = 0;
  uint64_t Lo = 0;

  bool operator<(const StoreKey &O) const {
    return Hi != O.Hi ? Hi < O.Hi : Lo < O.Lo;
  }
  bool operator==(const StoreKey &O) const {
    return Hi == O.Hi && Lo == O.Lo;
  }
  bool operator!=(const StoreKey &O) const { return !(*this == O); }
};

/// The store key of member \p Member of a workload whose trace content
/// hash is \p TraceContentHash. Hashes the member's *configuration*
/// (strategy id + parameters, predictor kind + geometry, CPU id — not
/// the cosmetic variant name), the suite, the trace hash and the store
/// format version.
StoreKey cellStoreKey(const SweepSpec &Spec, size_t Member,
                      uint64_t TraceContentHash);

/// 64-bit member-configuration key with NO trace hash folded in: the
/// key space of the `.vmibcost` replay-cost sidecar (WorkloadCache),
/// which binds to the trace separately so one member config maps to
/// one cost entry per workload.
uint64_t memberCostKey(const SweepSpec &Spec, size_t Member);

/// What the `[store]` summary line reports.
struct ResultStoreStats {
  uint64_t Hits = 0;          ///< lookup() found the cell
  uint64_t Misses = 0;        ///< lookup() did not
  uint64_t Recovered = 0;     ///< records salvaged from torn segments
  uint64_t Quarantined = 0;   ///< segments moved to quarantine/
  uint64_t FlushFailures = 0; ///< flushes that kept records buffered
  uint64_t RecordsLoaded = 0; ///< records accepted at open()
  uint64_t CellsQuarantined = 0;   ///< cells retired by quarantineCell()
  uint64_t TombstonedRecords = 0;  ///< records suppressed at load by tombstones
};

/// Thread-safe for concurrent probe/lookup/record/flush (an in-process
/// sweep's pipeline workers share one store); open/close are the
/// caller's single-threaded bracket.
class ResultStore {
public:
  ResultStore() = default;
  ~ResultStore();
  ResultStore(const ResultStore &) = delete;
  ResultStore &operator=(const ResultStore &) = delete;

  /// Resolves the store directory from the store flags. Precedence:
  /// \p FlagDisable ("--no-result-store") forces "" (disabled);
  /// \p FlagDir ("--store-dir=D") is the directory; otherwise
  /// \p FlagEnable ("--result-store") requests the default location
  /// and without it the store stays off. The default location is
  /// `<VMIB_TRACE_CACHE>/results`; when the trace cache is disabled
  /// too, "" is returned and \p Why (if non-null) says what to set.
  static std::string resolveDir(const std::string &FlagDir, bool FlagEnable,
                                bool FlagDisable, std::string *Why = nullptr);

  /// Opens (creating if needed) the store at \p Dir and runs recovery
  /// over every segment under the exclusive store lock: clean segments
  /// load, torn tails are salvaged, corrupt segments quarantined.
  /// Holds the shared in-use lock until close(). \returns false with
  /// \p Diag set when the directory cannot be created or locked
  /// (recovery itself never fails the open — damage is quarantined,
  /// counted, and reported through stats()).
  bool open(const std::string &Dir, std::string *Diag = nullptr);

  bool isOpen() const { return InUseFd >= 0; }
  const std::string &dir() const { return StoreDir; }

  /// Stats-free lookup (the orchestrator's pre-dispatch probe, which
  /// must not distort the hit/miss accounting the workers report).
  bool probe(const StoreKey &K, PerfCounters &C) const;

  /// Content lookup; counts a hit or a miss.
  bool lookup(const StoreKey &K, PerfCounters &C);

  /// Buffers one freshly computed cell for the next flush() and makes
  /// it visible to lookups immediately.
  void record(const StoreKey &K, const PerfCounters &C);

  /// Commits every buffered record as one new immutable segment
  /// (temp → fsync → rename → dir fsync, under the store lock).
  /// \returns false when the write failed (injected or real): the
  /// records stay buffered and the next flush retries with a fresh
  /// fault draw. A no-op true when nothing is buffered.
  bool flush();

  size_t pendingRecords() const { return Pending.size(); }
  /// Cells currently resolvable (loaded + recorded).
  size_t size() const { return Records.size(); }
  const ResultStoreStats &stats() const { return Stats; }

  /// Audit-triage hook: asks "is this store implicated in a proven-bad
  /// primary result, and if so, retire the evidence". If the store
  /// currently resolves \p K (refreshing from disk first when the key
  /// is not in memory — worker-written segments postdate this process's
  /// open) and the value it would *serve* differs from
  /// \p Authoritative, the cell is quarantined: an evidence record of
  /// \p Observed lands in `quarantine/`, durable tombstones retire both
  /// the raw stored fingerprint and the observed one, the key drops
  /// from memory (and from the unflushed buffer), and
  /// stats().CellsQuarantined bumps. \returns true exactly when the
  /// store was implicated; false when it never held the cell or already
  /// agrees with \p Authoritative. The caller re-records the
  /// authoritative value afterwards. Never deletes segment data.
  bool quarantineCell(const StoreKey &K, const PerfCounters &Observed,
                      const PerfCounters &Authoritative);

  /// Flushes (best-effort) and releases the locks.
  void close();

private:
  bool writeSegment(const std::vector<std::pair<StoreKey, PerfCounters>>
                        &Recs,
                    FsFaultMode Fault);
  bool writeTombstones(
      const std::vector<std::pair<StoreKey, uint64_t>> &Tombs);
  bool flushLocked();
  void recoverAll();
  bool tombstoned(const StoreKey &K, uint64_t Fingerprint) const;
  void applyServeFlip(const StoreKey &K, PerfCounters &C) const;

  mutable std::mutex Mu;
  std::string StoreDir;
  std::map<StoreKey, PerfCounters> Records;
  std::vector<std::pair<StoreKey, PerfCounters>> Pending;
  /// Value fingerprints retired per key (loaded from tomb files +
  /// appended by quarantineCell); records matching one never load.
  std::map<StoreKey, std::vector<uint64_t>> Tombstones;
  ResultStoreStats Stats;
  int InUseFd = -1;
  FaultPlan FsPlan;
  uint64_t FlushOps = 0;
};

} // namespace vmib

#endif // VMIB_HARNESS_RESULTSTORE_H
