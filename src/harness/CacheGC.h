//===- harness/CacheGC.h - Cache/store garbage collection -------*- C++ -*-===//
///
/// \file
/// Size-budgeted eviction over the persistent artifacts the pipeline
/// accumulates: trace files and their sidecars in the VMIB_TRACE_CACHE
/// directory (`.vmibtrace` / `.vmibmeta` / `.vmibprofile`, plus the
/// `.vmibcost` replay-cost sidecars older builds wrote) and
/// result-store journal segments (`.vmibstore`, including quarantined
/// ones). `sweep_driver --cache-gc=BYTES` is the user entry point; the
/// GC evicts oldest-modified-first until the combined footprint fits
/// the budget.
///
/// Safety: every managed directory carries an `inuse.lock` advisory
/// flock. Users of the directory (a sweep holding its trace cache, an
/// open ResultStore) hold it SHARED for their lifetime; the GC probes
/// it EXCLUSIVE + non-blocking and *skips the whole directory* when
/// the probe fails — a live sweep never has files deleted under it,
/// and a GC never blocks behind one. While the GC holds the exclusive
/// lock, late-arriving users block in their shared acquire until the
/// GC finishes (eviction is quick: unlink loop, no I/O rewriting).
///
/// Stale temp files (`*.tmp*` leftovers of interrupted temp-write →
/// rename commits) are removed unconditionally within an unlocked
/// directory — they are invisible to readers by construction, so only
/// their bytes matter.
///
//===----------------------------------------------------------------------===//

#ifndef VMIB_HARNESS_CACHEGC_H
#define VMIB_HARNESS_CACHEGC_H

#include <cstdint>
#include <string>

namespace vmib {

/// What one GC pass did (the `[cache-gc]` summary line).
struct CacheGCReport {
  uint64_t TotalBytes = 0;    ///< managed bytes found (before eviction)
  uint64_t EvictedBytes = 0;  ///< bytes reclaimed by eviction
  size_t EvictedFiles = 0;    ///< artifacts unlinked to meet the budget
  size_t RemovedTemps = 0;    ///< stale `*.tmp*` leftovers removed
  size_t SkippedLockedDirs = 0; ///< directories left alone (in use)
};

/// Holds the shared `inuse.lock` of a directory for this object's
/// lifetime, marking the directory as actively used so a concurrent
/// `--cache-gc` skips it. Missing/uncreatable directories degrade to
/// an unlocked no-op (locked() == false) — the lock is advisory
/// protection for an optimization, never a correctness gate.
class DirUseLock {
public:
  DirUseLock() = default;
  explicit DirUseLock(const std::string &Dir) { acquire(Dir); }
  ~DirUseLock() { release(); }
  DirUseLock(const DirUseLock &) = delete;
  DirUseLock &operator=(const DirUseLock &) = delete;

  /// Acquires (shared, blocking — a running GC holds it only briefly).
  void acquire(const std::string &Dir);
  void release();
  bool locked() const { return Fd >= 0; }

private:
  int Fd = -1;
};

/// One GC pass: enumerate the managed artifacts of \p CacheDir and
/// \p StoreDir (either may be empty = not managed this run), remove
/// stale temps, then evict oldest-modified artifacts until the
/// remaining footprint is <= \p BudgetBytes. Directories whose
/// `inuse.lock` is held by a live user are skipped entirely (counted
/// in the report; their bytes still appear in TotalBytes). \returns
/// false with \p Error set only on hard failures (a directory that
/// exists but cannot be scanned); an over-budget result because
/// everything left was in use is still success — the report tells.
bool runCacheGC(const std::string &CacheDir, const std::string &StoreDir,
                uint64_t BudgetBytes, CacheGCReport &Report,
                std::string &Error);

} // namespace vmib

#endif // VMIB_HARNESS_CACHEGC_H
