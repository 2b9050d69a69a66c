//===- harness/SweepRunner.h - Parallel bench sweep runner ------*- C++ -*-===//
///
/// \file
/// Shards the independent jobs of a bench sweep across std::thread
/// workers. Jobs are handed out through an atomic cursor, so long jobs
/// (big traces) don't leave workers idle behind a static partition.
/// Each job owns its layout, predictor and counters, which is what
/// makes the sharding safe: the labs only share their mutex-guarded
/// caches (traces, static resources).
///
/// Sweep scheduling is *trace-affine*: jobs are grouped by trace, one
/// job per (workload, gang-of-configurations) pair, so a worker
/// streams one trace and feeds every configuration riding it
/// (GangReplayer) instead of interleaving unrelated event streams.
/// pipelineSweep() adds the capture stage on top: a dedicated producer
/// thread interprets workload i+1 while the worker pool replays the
/// gangs of workload i.
///
//===----------------------------------------------------------------------===//

#ifndef VMIB_HARNESS_SWEEPRUNNER_H
#define VMIB_HARNESS_SWEEPRUNNER_H

#include <cstddef>
#include <functional>
#include <vector>

namespace vmib {

/// Worker count for bench sweeps: the VMIB_THREADS environment variable
/// if set to a count (see envCount()), otherwise
/// std::thread::hardware_concurrency (min 1).
unsigned defaultSweepThreads();

/// Runs Body(0), ..., Body(N-1) across \p Threads workers. Blocks until
/// every job finished. Threads <= 1 (or N <= 1) degrades to a plain
/// serial loop. If a job throws, the first exception is rethrown on the
/// calling thread after all workers drained.
void parallelFor(size_t N, unsigned Threads,
                 const std::function<void(size_t)> &Body);

/// Convenience wrapper collecting one result per job index.
template <class R>
std::vector<R> runSweep(size_t N, unsigned Threads,
                        const std::function<R(size_t)> &Job) {
  std::vector<R> Results(N);
  parallelFor(N, Threads, [&](size_t I) { Results[I] = Job(I); });
  return Results;
}

/// Two-stage capture/replay pipeline over \p N workloads: a dedicated
/// producer thread runs Capture(0), ..., Capture(N-1) *in order*
/// (whole-workload interpretation is serial per workload and fills the
/// lab caches), while \p Threads workers run Replay(i) as soon as
/// workload i's capture has completed — so workload i+1 is captured
/// while workload i's gang replays, instead of a serial capture phase
/// followed by a replay phase. Replay jobs are claimed through an
/// atomic cursor (trace-affine: pass one gang per workload as the
/// job). Blocks until every replay finished; the first exception from
/// either stage is rethrown (replays of workloads whose capture failed
/// are skipped).
void pipelineSweep(size_t N, unsigned Threads,
                   const std::function<void(size_t)> &Capture,
                   const std::function<void(size_t)> &Replay);

} // namespace vmib

#endif // VMIB_HARNESS_SWEEPRUNNER_H
