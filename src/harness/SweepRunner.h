//===- harness/SweepRunner.h - Capture/replay sweep pipeline ----*- C++ -*-===//
///
/// \file
/// The pipeline stage SweepExecutor::runAll schedules a sweep on.
/// Scheduling is *trace-affine*: one job per workload, each job a gang
/// (GangReplayer) over that workload's trace, so a worker streams one
/// trace and feeds every configuration riding it instead of
/// interleaving unrelated event streams. pipelineSweep() adds the
/// capture stage on top: a dedicated producer thread interprets (or
/// loads) workload i+1 while the worker pool replays the gang of
/// workload i. Jobs are handed out through an atomic cursor, so long
/// jobs (big traces) don't leave workers idle behind a static
/// partition; the labs share only their mutex-guarded caches.
///
//===----------------------------------------------------------------------===//

#ifndef VMIB_HARNESS_SWEEPRUNNER_H
#define VMIB_HARNESS_SWEEPRUNNER_H

#include <cstddef>
#include <functional>

namespace vmib {

/// Worker count for bench sweeps: std::thread::hardware_concurrency
/// (min 1).
unsigned defaultSweepThreads();

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
