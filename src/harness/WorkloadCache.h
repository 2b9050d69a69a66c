//===- harness/WorkloadCache.h - Persisted warm-up state --------*- C++ -*-===//
///
/// \file
/// Sidecars that live next to the serialized traces in the
/// VMIB_TRACE_CACHE directory and retire the remaining cold-start
/// interpretations a sweep-shard worker pays before its first replay:
///
///  - **Workload meta** (`<key>.vmibmeta`): the reference output hash
///    and step count of a benchmark. The labs' reference run exists
///    only to produce these two numbers (every variant run and the
///    trace cache verify against them), so a worker that finds a valid
///    sidecar skips the whole reference interpretation. WorkloadLab,
///    the labs' shared base, is the only reader and writer.
///  - **Trained profiles** (`<key>.vmibprofile`): a SequenceProfile —
///    the training input every static-resource selection (replicas,
///    superinstructions) derives from. Forth persists the dynamic
///    profile of the training run (§7.1); Java persists each
///    benchmark's post-quickening static profile (the leave-one-out
///    merges are cheap once the per-benchmark profiles exist).
///
/// Trust model: the sidecars are cache artifacts in the same local
/// trust domain as the trace files — self-checksummed (corruption is
/// rejected, never partially applied) and versioned (a format or
/// semantics bump retires every stale entry at once). A meta sidecar
/// is additionally *bound to the compiled program* it describes
/// (programBindingHash): a changed workload compiles to a different
/// program, so its stale sidecar is rejected structurally — BEFORE any
/// hash it supplies could be used to accept an equally stale trace
/// file. Belt and braces on top of that, WorkloadLab still treats a
/// sidecar-sourced hash as provisional and adopts the numbers of the
/// first interpretation that disagrees with it instead of aborting.
/// Profiles are bound to the reference hash of the workload they were
/// trained on, so they invalidate together with their meta entry.
///
/// The cache holds no scheduler state: the gang pool plans from the
/// per-member costs it measures during the run.
///
//===----------------------------------------------------------------------===//

#ifndef VMIB_HARNESS_WORKLOADCACHE_H
#define VMIB_HARNESS_WORKLOADCACHE_H

#include "vmcore/Profile.h"

#include <cstdint>
#include <string>

namespace vmib {

/// What a reference run produces: the numbers every replay verifies
/// against (and the capture buffer is pre-sized from).
struct WorkloadMeta {
  uint64_t ReferenceHash = 0;
  uint64_t ReferenceSteps = 0;
};

/// The cache key of one suite benchmark, "<suite>-<benchmark>": the
/// stem of its trace file (DispatchTrace::cachePathFor) and meta
/// sidecar, and the workload half of the audit sample's draw.
std::string workloadKey(const std::string &Suite,
                        const std::string &Benchmark);

/// Sidecar path for workload \p Key ("<cache>/<key>.vmibmeta"), or ""
/// when the trace cache is disabled. Key is a workloadKey().
std::string workloadMetaPath(const std::string &Key);

/// Identity of the compiled program a meta sidecar describes: FNV-1a
/// over the instruction stream. The labs compute it from the unit they
/// just compiled — immediately before consulting the sidecar — so a
/// benchmark whose source changed can never be served numbers recorded
/// for its previous incarnation, even when trace and sidecar are a
/// stale-but-mutually-consistent pair.
uint64_t programBindingHash(const VMProgram &Program);

/// Writes the meta sidecar bound to \p BindingHash (temp-and-rename,
/// like trace save). \returns false on I/O failure or a disabled cache
/// (best-effort: callers lose nothing but the next process's cold
/// start).
bool saveWorkloadMeta(const std::string &Key, uint64_t BindingHash,
                      const WorkloadMeta &Meta);

/// Loads the meta sidecar. \returns false (leaving \p Meta untouched)
/// when the cache is disabled, the file is missing, it fails the
/// magic/version/checksum checks, or it is bound to a different
/// compiled program than \p ExpectedBindingHash.
bool loadWorkloadMeta(const std::string &Key, uint64_t ExpectedBindingHash,
                      WorkloadMeta &Meta);

/// Removes a (stale) meta sidecar; no-op when absent.
void removeWorkloadMeta(const std::string &Key);

/// Persists a trained profile bound to \p BoundHash — the reference
/// hash of the workload the profile was trained on, so a profile can
/// never outlive the workload identity it derives from. Same
/// best-effort contract as saveWorkloadMeta.
bool saveTrainedProfile(const std::string &Key, uint64_t BoundHash,
                        const SequenceProfile &Profile);

/// Loads a trained profile; \returns false (leaving \p Profile
/// untouched) unless the file exists, verifies, and is bound to
/// exactly \p ExpectedBoundHash.
bool loadTrainedProfile(const std::string &Key, uint64_t ExpectedBoundHash,
                        SequenceProfile &Profile);

} // namespace vmib

#endif // VMIB_HARNESS_WORKLOADCACHE_H
