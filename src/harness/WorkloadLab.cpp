//===- harness/WorkloadLab.cpp --------------------------------------------===//

#include "harness/WorkloadLab.h"

#include <cstdio>
#include <cstdlib>

using namespace vmib;

namespace {

/// Surfaces a cache file that exists but fails verification (it is
/// then re-captured): silent fallback would hide cache corruption
/// forever. A missing file is the normal cold path.
void warnUnlessMissing(const std::string &Diag) {
  if (Diag.find("cannot open") == std::string::npos)
    std::fprintf(stderr, "warning: ignoring trace cache entry: %s\n",
                 Diag.c_str());
}

} // namespace

WorkloadLab::Identity &
WorkloadLab::identityLocked(const std::string &Benchmark) {
  auto It = Ids.find(Benchmark);
  if (It != Ids.end())
    return It->second;
  WorkloadBinding Binding = identify(Benchmark);
  Identity Id;
  Id.ProgramHash = Binding.ProgramHash;
  // The reference run exists to produce the output hash and step count;
  // a valid meta sidecar stands in for it (the big worker cold-start
  // saving: compiling is cheap, interpreting is not). The sidecar is
  // bound to the program just compiled, so a changed workload rejects
  // its stale sidecar structurally; on top of that its hash stays
  // provisional until an interpretation confirms it.
  if (Binding.Exact) {
    Id.Meta = *Binding.Exact;
  } else if (loadWorkloadMeta(workloadKey(Suite, Benchmark),
                              Binding.ProgramHash, Id.Meta)) {
    Id.Provisional = true;
  } else {
    Id.Meta = referenceRunLocked(Benchmark);
    (void)saveWorkloadMeta(workloadKey(Suite, Benchmark), Id.ProgramHash,
                           Id.Meta); // best-effort
  }
  return Ids.emplace(Benchmark, Id).first->second;
}

WorkloadMeta WorkloadLab::referenceRunLocked(const std::string &Benchmark) {
  WorkloadMeta Run;
  std::string Error;
  bool Ok = interpret(Benchmark, nullptr, Run, Error);
  ReferenceRuns.fetch_add(1, std::memory_order_relaxed);
  if (!Ok) {
    std::fprintf(stderr, "fatal: benchmark %s reference run: %s\n",
                 Benchmark.c_str(), Error.c_str());
    std::abort();
  }
  return Run;
}

void WorkloadLab::adoptLocked(const std::string &Benchmark,
                              const WorkloadMeta &Run) {
  Identity &Id = identityLocked(Benchmark);
  if (!Id.Provisional)
    return;
  Id.Provisional = false;
  if (Run.ReferenceHash == Id.Meta.ReferenceHash &&
      Run.ReferenceSteps == Id.Meta.ReferenceSteps)
    return;
  std::fprintf(stderr,
               "warning: stale workload meta sidecar for %s; refreshed\n",
               Benchmark.c_str());
  Id.Meta = Run;
  retireDerived(Benchmark);
  (void)saveWorkloadMeta(workloadKey(Suite, Benchmark), Id.ProgramHash,
                         Run);
}

uint64_t WorkloadLab::confirmedReferenceHash(const std::string &Benchmark) {
  std::lock_guard<std::mutex> Lock(CacheMutex);
  if (identityLocked(Benchmark).Provisional)
    adoptLocked(Benchmark, referenceRunLocked(Benchmark));
  return identityLocked(Benchmark).Meta.ReferenceHash;
}

uint64_t WorkloadLab::referenceHash(const std::string &Benchmark) {
  std::lock_guard<std::mutex> Lock(CacheMutex);
  return identityLocked(Benchmark).Meta.ReferenceHash;
}

uint64_t WorkloadLab::referenceSteps(const std::string &Benchmark) {
  std::lock_guard<std::mutex> Lock(CacheMutex);
  return identityLocked(Benchmark).Meta.ReferenceSteps;
}

const DispatchTrace &WorkloadLab::trace(const std::string &Benchmark) {
  {
    std::lock_guard<std::mutex> Lock(CacheMutex);
    auto It = Traces.find(Benchmark);
    if (It != Traces.end())
      return It->second;
  }

  // Serialized-trace cache: a hash-verified file replaces the whole
  // interpretation. The workload hash ties the file to this program's
  // reference output, so a changed workload re-captures.
  uint64_t WorkloadHash = referenceHash(Benchmark);
  std::string CachePath =
      DispatchTrace::cachePathFor(workloadKey(Suite, Benchmark));
  if (!CachePath.empty()) {
    DispatchTrace Cached;
    std::string Diag;
    if (Cached.load(CachePath, WorkloadHash, &Diag)) {
      std::lock_guard<std::mutex> Lock(CacheMutex);
      return Traces.emplace(Benchmark, std::move(Cached)).first->second;
    }
    warnUnlessMissing(Diag);
  }

  // Capture outside the lock: this interprets (or generates) the whole
  // workload, and holding the lab-wide mutex through it would
  // serialize every other sweep worker.
  DispatchTrace T;
  // One event per step: the reference numbers already gave the size.
  T.reserve(referenceSteps(Benchmark));
  WorkloadMeta Run;
  std::string Error;
  if (!interpret(Benchmark, &T, Run, Error)) {
    std::fprintf(stderr, "fatal: %s capture run failed (%s)\n",
                 Benchmark.c_str(), Error.c_str());
    std::abort();
  }
  {
    // The capture IS an authoritative reference run: it confirms or
    // replaces a provisional hash. A mismatch against a confirmed hash
    // is a genuine divergence.
    std::lock_guard<std::mutex> Lock(CacheMutex);
    Identity &Id = identityLocked(Benchmark);
    if (!Id.Provisional && Run.ReferenceHash != Id.Meta.ReferenceHash) {
      std::fprintf(stderr, "fatal: %s capture run diverged\n",
                   Benchmark.c_str());
      std::abort();
    }
    adoptLocked(Benchmark, Run);
    WorkloadHash = Id.Meta.ReferenceHash;
  }
  T.seal(); // hashed once here, O(1) for every later store key
  if (!CachePath.empty())
    (void)T.save(CachePath, WorkloadHash); // best-effort
  std::lock_guard<std::mutex> Lock(CacheMutex);
  return Traces.emplace(Benchmark, std::move(T)).first->second;
}

void WorkloadLab::dropTrace(const std::string &Benchmark) {
  std::lock_guard<std::mutex> Lock(CacheMutex);
  Traces.erase(Benchmark);
}

TraceSource WorkloadLab::traceSource(const std::string &Benchmark,
                                     TraceDecodeMode Mode) {
  if (Mode != TraceDecodeMode::Stream) {
    // A trace this lab already materialized is free to borrow —
    // re-decoding it from disk would only add I/O.
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
  // Stream (explicit, or Auto over budget): needs a validated trace
  // cache file. referenceSteps above never materializes, so a
  // billion-event workload reaches this point with O(1) memory.
  std::string CachePath =
      DispatchTrace::cachePathFor(workloadKey(Suite, Benchmark));
  if (!CachePath.empty()) {
    TraceSource S;
    std::string Diag;
    if (TraceSource::openStreaming(CachePath, referenceHash(Benchmark), S,
                                   &Diag))
      return S;
    warnUnlessMissing(Diag);
  }
  // No streamable file: materialize (a capture saves the file back to
  // the cache best-effort) rather than fail a replay over a missing
  // optimization; the next call then streams.
  const DispatchTrace &T = trace(Benchmark);
  if (Mode == TraceDecodeMode::Stream)
    std::fprintf(stderr,
                 "warning: %s: no streamable trace cache file "
                 "(VMIB_TRACE_CACHE unset or save failed); replaying "
                 "materialized\n",
                 Benchmark.c_str());
  return TraceSource(T);
}

void WorkloadLab::warmup(const std::string &Benchmark, const CpuConfig &Cpu,
                         TraceDecodeMode Decode) {
  (void)Cpu;
  (void)traceSource(Benchmark, Decode);
  warmSelection();
}
