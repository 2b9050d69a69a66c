//===- bench/BenchUtil.h - Shared bench-binary helpers ----------*- C++ -*-===//
///
/// \file
/// Small shared pieces for the per-figure/per-table bench binaries:
/// banner printing, the machine-readable emitters, the declarative
/// sweep runner every paper-number bench goes through
/// (runDeclaredSweep), and the toy "A B A GOTO" loop machinery used by
/// the Table I-IV walkthrough benches.
///
//===----------------------------------------------------------------------===//

#ifndef VMIB_BENCH_BENCHUTIL_H
#define VMIB_BENCH_BENCHUTIL_H

#include "harness/Figures.h"
#include "harness/ForthLab.h"
#include "harness/JavaLab.h"
#include "harness/SweepExecutor.h"
#include "harness/SweepOrchestrator.h"
#include "harness/SweepRunner.h"
#include "harness/SweepSpec.h"
#include "support/CommandLine.h"
#include "support/Format.h"
#include "support/Statistics.h"
#include "support/Table.h"
#include "vmcore/DispatchBuilder.h"
#include "vmcore/DispatchSim.h"
#include "vmcore/GangReplayer.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace vmib {
namespace bench {

/// Prints the standard bench banner.
inline void banner(const std::string &Id, const std::string &What) {
  std::printf("=== %s ===\n%s\n\n", Id.c_str(), What.c_str());
}

//===--- declared options -------------------------------------------------===//

/// Upper bound of the fan-out counts (--threads, --shards): larger
/// values are typos, not plans.
inline constexpr uint64_t MaxFanOut = 1024;

/// `--quick`, on the benches that read it.
inline const OptionDecl QuickOption = {
    "quick", "run the first two suite benchmarks only"};

/// The spec overrides applySpecOverrides reads: each execution-shape
/// field of the spec, bit-identical for any value.
inline OptionTable shapeOptions() {
  return {{"threads",
           "intra-gang worker threads per gang replay (spec `threads`; "
           "0 = auto-detect)",
           OptionDecl::Count, MaxFanOut},
          {"chunk", "gang tile size in events (spec `chunk`; 0 = default)",
           OptionDecl::Count, SIZE_MAX},
          {"decode",
           "materialize, stream (O(tile) from the trace cache) or auto "
           "(stream past 256 MiB decoded; spec `decode`)",
           OptionDecl::Value}};
}

/// The options every spec-driven entry point takes (runDeclaredSweep
/// and sweep_driver; applySweepOptions reads them), then \p Extra.
inline OptionTable sweepOptions(const OptionTable &Extra = {}) {
  OptionTable T = shapeOptions();
  T.insert(T.begin(),
           {{"spec", "sweep spec file to run", OptionDecl::Value},
            {"emit-spec", "print the effective sweep spec and exit"}});
  T.insert(
      T.end(),
      {{"shards", "fan out over N sweep_driver worker processes",
        OptionDecl::Count, MaxFanOut},
       {"worker-cmd",
        "worker shell template: {driver} {spec} {shards} {job} {threads} "
        "{attempt} {store}",
        OptionDecl::Value},
       {"retries", "requeues per failed, timed-out or garbled worker job",
        OptionDecl::Count, UINT32_MAX},
       {"backoff-ms", "first requeue delay in ms, doubled per requeue",
        OptionDecl::Count, UINT32_MAX},
       {"job-timeout", "per-job wall clock budget in ms (0 = none)",
        OptionDecl::Count, UINT32_MAX},
       {"kill-grace", "ms from a timeout's SIGTERM to its SIGKILL",
        OptionDecl::Count, UINT32_MAX},
       {"hedge", "re-dispatch the last N outstanding jobs to idle slots",
        OptionDecl::Count, UINT32_MAX},
       {"result-store", "durable cell store at <VMIB_TRACE_CACHE>/results"},
       {"store-dir", "result store at this directory", OptionDecl::Value},
       {"no-result-store", "force the result store off"},
       {"audit", "re-run this fraction (0..1) of cells in a decorrelated "
                 "shape and bit-compare",
        OptionDecl::Value},
       {"audit-seed", "seed of the audit's cell sample", OptionDecl::Count,
        UINT64_MAX}});
  T.insert(T.end(), Extra.begin(), Extra.end());
  return T;
}

//===--- machine-readable emitters ----------------------------------------===//
//
// Every [timing] and [result] line a bench or the sweep_driver prints
// flows through these two emitters, so the line grammar lives in one
// place (support/Statistics benchTimingLine, harness/SweepSpec
// sweepResultLine) and the artifact tooling and the sweep_driver merge
// path parse one format.

/// Emits the standard per-sweep throughput line.
inline void emitTiming(const std::string &BenchId, double CaptureSeconds,
                       double ReplaySeconds, uint64_t ReplayedEvents,
                       size_t Configs) {
  std::fputs(benchTimingLine(BenchId, CaptureSeconds, ReplaySeconds,
                             ReplayedEvents, Configs)
                 .c_str(),
             stdout);
}
inline void emitTiming(const std::string &BenchId, const SweepRunStats &S) {
  emitTiming(BenchId, S.CaptureSeconds, S.ReplaySeconds, S.ReplayedEvents,
             S.Configs);
}

/// Emits one finished sweep cell (the sweep_driver worker protocol).
inline void emitResult(const std::string &SweepName, size_t Workload,
                       size_t Member, const PerfCounters &C) {
  std::fputs(sweepResultLine(SweepName, Workload, Member, C).c_str(),
             stdout);
}

/// Emits the fault-tolerance summary of an orchestrated sweep — but
/// only when something actually happened (a failure, retry, timeout,
/// hedge, or coverage gap), so clean runs stay clean.
inline void emitOrchestratorReport(const std::string &SweepName,
                                   const OrchestratorReport &R) {
  if (R.WorkerFailures == 0 && R.RetriesScheduled == 0 && R.Timeouts == 0 &&
      R.HedgesLaunched == 0 && R.complete())
    return;
  std::printf("[orchestrator] sweep=%s attempts=%u failures=%u retries=%u "
              "timeouts=%u hedges=%u hedge_wins=%u covered=%zu/%zu\n",
              SweepName.c_str(), R.AttemptsLaunched, R.WorkerFailures,
              R.RetriesScheduled, R.Timeouts, R.HedgesLaunched, R.HedgeWins,
              R.cellsCovered(), R.CellCovered.size());
}

/// Worker-side per-job result-store line: the orchestrator parses the
/// space-prefixed `key=value` tokens, stages them with the attempt,
/// and aggregates them only when the attempt commits.
inline void emitStoreLine(const std::string &SweepName, size_t JobIdx,
                          const ResultStoreStats &S) {
  std::printf("[store] sweep=%s job=%zu hits=%llu misses=%llu "
              "recovered=%llu quarantined=%llu flush_failures=%llu\n",
              SweepName.c_str(), JobIdx, (unsigned long long)S.Hits,
              (unsigned long long)S.Misses, (unsigned long long)S.Recovered,
              (unsigned long long)S.Quarantined,
              (unsigned long long)S.FlushFailures);
}

/// Final aggregate of an orchestrated sweep: pre-dispatch probe hits +
/// every committed worker's accounting.
inline void emitStoreReport(const std::string &SweepName,
                            const OrchestratorReport &R) {
  std::printf("[store] sweep=%s hits=%llu misses=%llu recovered=%llu "
              "quarantined=%llu flush_failures=%llu jobs_from_store=%zu\n",
              SweepName.c_str(), (unsigned long long)R.StoreHits,
              (unsigned long long)R.StoreMisses,
              (unsigned long long)R.StoreRecovered,
              (unsigned long long)R.StoreQuarantined,
              (unsigned long long)R.StoreFlushFailures,
              R.JobsServedFromStore);
}

/// Same line for an in-process sweep, straight from the store's own
/// stats.
inline void emitStoreReport(const std::string &SweepName,
                            const ResultStore &Store) {
  const ResultStoreStats &S = Store.stats();
  std::printf("[store] sweep=%s hits=%llu misses=%llu recovered=%llu "
              "quarantined=%llu flush_failures=%llu records=%zu\n",
              SweepName.c_str(), (unsigned long long)S.Hits,
              (unsigned long long)S.Misses, (unsigned long long)S.Recovered,
              (unsigned long long)S.Quarantined,
              (unsigned long long)S.FlushFailures, Store.size());
}

/// Resolves and opens the durable result store per the store flags —
/// `--result-store` (default location), `--store-dir=D`,
/// `--no-result-store`. \returns true when \p Store is open; failures
/// to open degrade to a warning and a disabled store — a cache must
/// never fail a sweep.
inline bool applyStoreOptions(const OptionParser &Opts, ResultStore &Store) {
  std::string Why;
  std::string Dir = ResultStore::resolveDir(
      Opts.get("store-dir"), Opts.has("result-store"),
      Opts.has("no-result-store"), &Why);
  if (Dir.empty()) {
    if (!Why.empty())
      std::fprintf(stderr, "warning: %s\n", Why.c_str());
    return false;
  }
  std::string Diag;
  if (!Store.open(Dir, &Diag)) {
    std::fprintf(stderr,
                 "warning: %s; continuing without the result store\n",
                 Diag.c_str());
    return false;
  }
  return true;
}

/// Minimal JSON string escape for the report writer: quotes,
/// backslashes, and control bytes (as \u00XX).
inline std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      Out += format("\\u%04x", static_cast<unsigned>(C) & 0xFF);
    } else {
      Out += C;
    }
  }
  return Out;
}

/// Writes the full OrchestratorReport — attempt/retry/hedge, store,
/// and audit accounting — as a JSON object at \p Path
/// (`sweep_driver --report-json=PATH`). \returns false (errno set) on
/// any write failure; the file is written atomically enough for CI
/// (single fopen/fprintf/fclose — a torn report fails its parser, it
/// cannot fail the sweep).
inline bool writeOrchestratorReportJson(const std::string &Path,
                                        const std::string &SweepName,
                                        const OrchestratorReport &R) {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\n");
  std::fprintf(F, "  \"sweep\": \"%s\",\n", jsonEscape(SweepName).c_str());
  std::fprintf(F, "  \"attempts\": %u,\n", R.AttemptsLaunched);
  std::fprintf(F, "  \"worker_failures\": %u,\n", R.WorkerFailures);
  std::fprintf(F, "  \"timeouts\": %u,\n", R.Timeouts);
  std::fprintf(F, "  \"retries\": %u,\n", R.RetriesScheduled);
  std::fprintf(F, "  \"hedges\": %u,\n", R.HedgesLaunched);
  std::fprintf(F, "  \"hedge_wins\": %u,\n", R.HedgeWins);
  std::fprintf(F, "  \"cells\": %zu,\n", R.CellCovered.size());
  std::fprintf(F, "  \"cells_covered\": %zu,\n", R.cellsCovered());
  std::fprintf(F, "  \"complete\": %s,\n", R.complete() ? "true" : "false");
  std::fprintf(F, "  \"failed_jobs\": [");
  for (size_t I = 0; I < R.FailedJobs.size(); ++I)
    std::fprintf(F, "%s%zu", I ? ", " : "", R.FailedJobs[I]);
  std::fprintf(F, "],\n");
  std::fprintf(F, "  \"first_failure\": \"%s\",\n",
               jsonEscape(R.FirstFailure).c_str());
  std::fprintf(F, "  \"store\": {\n");
  std::fprintf(F, "    \"jobs_from_store\": %zu,\n", R.JobsServedFromStore);
  std::fprintf(F, "    \"hits\": %llu,\n",
               (unsigned long long)R.StoreHits);
  std::fprintf(F, "    \"misses\": %llu,\n",
               (unsigned long long)R.StoreMisses);
  std::fprintf(F, "    \"recovered\": %llu,\n",
               (unsigned long long)R.StoreRecovered);
  std::fprintf(F, "    \"quarantined\": %llu,\n",
               (unsigned long long)R.StoreQuarantined);
  std::fprintf(F, "    \"flush_failures\": %llu\n",
               (unsigned long long)R.StoreFlushFailures);
  std::fprintf(F, "  },\n");
  std::fprintf(F, "  \"audit\": {\n");
  std::fprintf(F, "    \"cells_audited\": %llu,\n",
               (unsigned long long)R.Audit.CellsAudited);
  std::fprintf(F, "    \"mismatches\": %llu,\n",
               (unsigned long long)R.Audit.Mismatches);
  std::fprintf(F, "    \"store_corruption\": %llu,\n",
               (unsigned long long)R.Audit.StoreCorruptions);
  std::fprintf(F, "    \"compute_divergence\": %llu,\n",
               (unsigned long long)R.Audit.ComputeDivergences);
  std::fprintf(F, "    \"nondeterminism\": %llu,\n",
               (unsigned long long)R.Audit.Nondeterminism);
  std::fprintf(F, "    \"quarantined\": %llu,\n",
               (unsigned long long)R.Audit.CellsQuarantined);
  std::fprintf(F, "    \"requeued\": %llu\n",
               (unsigned long long)R.Audit.CellsRequeued);
  std::fprintf(F, "  }\n");
  std::fprintf(F, "}\n");
  bool Ok = std::ferror(F) == 0;
  return std::fclose(F) == 0 && Ok;
}

//===--- declarative sweeps -----------------------------------------------===//

/// Applies `--threads`, `--chunk` and `--decode` to \p Spec and
/// re-validates it, checking its own input for lenient parsers too.
/// \returns false with \p ExitCode set and a diagnostic on stderr.
inline bool applySpecOverrides(const OptionParser &Opts, SweepSpec &Spec,
                               int &ExitCode) {
  // Strict counts, like the spec parser's numeric fields: a typo'd
  // "--threads=foo" must diagnose, not silently become 0 = auto-detect.
  uint64_t Threads = Spec.Threads, Chunk = Spec.ChunkEvents;
  std::string Error;
  if (Opts.getCount("threads", MaxFanOut, Threads, Error) &&
      Opts.getCount("chunk", SIZE_MAX, Chunk, Error)) {
    Spec.Threads = static_cast<unsigned>(Threads);
    Spec.ChunkEvents = static_cast<size_t>(Chunk);
    if (Opts.has("decode") &&
        !traceDecodeModeFromId(Opts.get("decode"), Spec.Decode))
      Error = "unknown --decode '" + Opts.get("decode") +
              "' (expected materialize, stream or auto)";
    else if (validateSweepSpec(Spec, Error))
      return true;
    else
      Error = "invalid sweep spec: " + Error;
  }
  std::fprintf(stderr, "error: %s\n", Error.c_str());
  ExitCode = 1;
  return false;
}

/// The apply step of sweepOptions() for runDeclaredSweep and
/// sweep_driver: spec overrides onto \p Spec; shards, worker-cmd, the
/// fault budgets, --partial-ok and the audit plan onto \p W;
/// --emit-spec prints the spec; the store flags open \p Store (W.Store
/// when open). \returns false to exit with \p Exit (0 after
/// --emit-spec, 1 after a diagnostic).
inline bool applySweepOptions(const OptionParser &Opts, SweepSpec &Spec,
                              SweepWorkerOptions &W, ResultStore &Store,
                              int &Exit) {
  if (!applySpecOverrides(Opts, Spec, Exit))
    return false;
  std::string Error;
  bool Ok = true;
  const std::pair<const char *, unsigned *> Counts[] = {
      {"shards", &W.Shards},          {"retries", &W.Retries},
      {"backoff-ms", &W.BackoffMs},   {"job-timeout", &W.JobTimeoutMs},
      {"kill-grace", &W.KillGraceMs}, {"hedge", &W.HedgeLast}};
  for (const auto &[Name, Field] : Counts) {
    uint64_t N = *Field;
    if (!(Ok = Opts.getCount(Name, UINT32_MAX, N, Error)))
      break;
    *Field = static_cast<unsigned>(N);
  }
  if (Ok && Opts.has("audit"))
    Ok = parseAuditRate(Opts.get("audit"), W.Audit, Error);
  if (Ok)
    Ok = Opts.getCount("audit-seed", UINT64_MAX, W.Audit.Seed, Error);
  if (!Ok) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    Exit = 1;
    return false;
  }
  if (Opts.has("emit-spec")) {
    std::fputs(printSweepSpec(Spec).c_str(), stdout);
    Exit = 0;
    return false;
  }
  W.Shards = W.Shards < 1 ? 1 : W.Shards;
  W.Threads = Spec.Threads; // two-level: shards × intra-gang threads
  W.SpecPath = Opts.get("spec"); // reuse the file workers can read
  W.CommandTemplate = Opts.get("worker-cmd");
  W.PartialOk = Opts.has("partial-ok");
  W.Store = applyStoreOptions(Opts, Store) ? &Store : nullptr;
  return true;
}

/// Builds the common benchmark-suite sweep spec (one CPU, default
/// predictor): what the fig/table benches declare.
inline SweepSpec suiteSpec(const std::string &Name, const std::string &Suite,
                           std::vector<std::string> Benchmarks,
                           std::vector<VariantSpec> Variants,
                           const std::string &CpuId) {
  SweepSpec Spec;
  Spec.Name = Name;
  Spec.Suite = Suite;
  Spec.Benchmarks = std::move(Benchmarks);
  Spec.Variants = std::move(Variants);
  Spec.Cpus = {CpuId};
  return Spec;
}

/// Extracts the (benchmark × variant) SpeedupMatrix of one
/// (CPU, predictor) plane from canonical sweep cells.
inline SpeedupMatrix matrixFromCells(const SweepSpec &Spec,
                                     const std::vector<PerfCounters> &Cells,
                                     size_t CpuIdx = 0, size_t PredIdx = 0) {
  SpeedupMatrix M;
  M.Benchmarks = Spec.Benchmarks;
  for (const VariantSpec &V : Spec.Variants)
    M.Variants.push_back(V.Name);
  for (size_t B = 0; B < Spec.Benchmarks.size(); ++B)
    for (size_t V = 0; V < Spec.Variants.size(); ++V)
      M.Counters[Spec.Benchmarks[B]][Spec.Variants[V].Name] =
          Cells[Spec.cellIndex(B, Spec.memberIndex(CpuIdx, V, PredIdx))];
  return M;
}

/// The declarative-sweep entry every spec-driven bench shares: the
/// sweepOptions() surface over \p Spec — in-process on the gang
/// pipeline, or over sweep_driver workers with --shards or
/// --worker-cmd. \returns true with \p Cells filled (canonical order)
/// and the standard [timing] line emitted; false when the bench should
/// exit immediately with \p ExitCode (--emit-spec, or a spec/worker
/// error). \p Banner is printed only when a sweep actually runs, so
/// --emit-spec output stays a clean spec file.
inline bool runDeclaredSweep(const OptionParser &Opts, SweepSpec &Spec,
                             const std::string &Banner, ForthLab *FLab,
                             JavaLab *JLab, std::vector<PerfCounters> &Cells,
                             int &ExitCode, SweepRunStats *StatsOut = nullptr) {
  std::string Error;
  if (Opts.has("spec")) {
    SweepSpec Loaded;
    if (!loadSweepSpecFile(Opts.get("spec"), Loaded, Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      ExitCode = 1;
      return false;
    }
    // A bench renders its declared table shape by cell position, so a
    // substituted spec may change workloads/parameters but must keep
    // the declared axis sizes and suite; arbitrary-shape specs belong
    // to sweep_driver, which renders from the spec itself.
    size_t DeclaredPreds = Spec.Predictors.empty() ? 1 : Spec.Predictors.size();
    size_t LoadedPreds =
        Loaded.Predictors.empty() ? 1 : Loaded.Predictors.size();
    if (Loaded.Suite != Spec.Suite ||
        Loaded.Variants.size() != Spec.Variants.size() ||
        Loaded.Cpus.size() != Spec.Cpus.size() ||
        LoadedPreds != DeclaredPreds) {
      std::fprintf(stderr,
                   "error: %s does not match this bench's sweep shape "
                   "(suite %s, %zu cpus x %zu variants x %zu predictors); "
                   "run arbitrary specs through sweep_driver instead\n",
                   Opts.get("spec").c_str(), Spec.Suite.c_str(),
                   Spec.Cpus.size(), Spec.Variants.size(), DeclaredPreds);
      ExitCode = 1;
      return false;
    }
    Spec = std::move(Loaded);
  }
  ResultStore Store;
  SweepWorkerOptions W;
  if (!applySweepOptions(Opts, Spec, W, Store, ExitCode))
    return false;
  std::printf("%s", Banner.c_str());
  SweepRunStats Stats;
  if (W.Shards > 1 || Opts.has("worker-cmd")) {
    OrchestratorReport Report;
    if (!orchestrateSweep(Spec, W, Cells, Stats, Error, &Report)) {
      std::fprintf(stderr, "error: sweep orchestration failed: %s\n",
                   Error.c_str());
      ExitCode = 1;
      return false;
    }
    emitTiming(Spec.Name + format(":shards%u", W.Shards), Stats);
    emitOrchestratorReport(Spec.Name, Report);
    if (W.Store)
      emitStoreReport(Spec.Name, Report);
  } else {
    SweepExecutor Executor(FLab, JLab);
    Executor.setResultStore(W.Store);
    Auditor InProcAudit(W.Audit, Executor, W.Store);
    if (W.Audit.enabled())
      Executor.setAuditor(&InProcAudit);
    Stats = Executor.runAll(Spec, 0, Cells);
    emitTiming(Spec.Name + ":gang", Stats);
    if (W.Store)
      emitStoreReport(Spec.Name, Store);
  }
  if (StatsOut)
    *StatsOut = Stats;
  return true;
}

/// Shared main body of the variant-matrix benches (figs. 7-13): the
/// declarative sweep rendered as a (benchmark × variant)
/// SpeedupMatrix. \p LabT is ForthLab or JavaLab. \returns false when
/// the bench should exit with \p Exit (--emit-spec, or an error).
template <class LabT>
bool runMatrixBench(const OptionParser &Opts, const std::string &Id,
                    const std::string &Suite, const std::string &CpuId,
                    std::vector<std::string> Benchmarks,
                    std::vector<VariantSpec> Variants,
                    const std::string &Banner, LabT &Lab, SpeedupMatrix &M,
                    int &Exit) {
  SweepSpec Spec = suiteSpec(Id, Suite, std::move(Benchmarks),
                             std::move(Variants), CpuId);
  std::vector<PerfCounters> Cells;
  ForthLab *FLab = nullptr;
  JavaLab *JLab = nullptr;
  if constexpr (std::is_same_v<LabT, ForthLab>)
    FLab = &Lab;
  else
    JLab = &Lab;
  if (!runDeclaredSweep(Opts, Spec, Banner, FLab, JLab, Cells, Exit))
    return false;
  M = matrixFromCells(Spec, Cells);
  return true;
}

/// Suite benchmark names, cut to the first two for --quick smoke runs.
inline std::vector<std::string> forthBenchNames(bool Quick = false) {
  std::vector<std::string> Names;
  for (const ForthBenchmark &B : forthSuite()) {
    Names.push_back(B.Name);
    if (Quick && Names.size() == 2)
      break;
  }
  return Names;
}
inline std::vector<std::string> javaBenchNames(bool Quick = false) {
  std::vector<std::string> Names;
  for (const JavaBenchmark &B : javaSuite()) {
    Names.push_back(B.Name);
    if (Quick && Names.size() == 2)
      break;
  }
  return Names;
}

/// The superinstruction shares (percent of the budget) each total
/// budget of the Figs. 14-16 static-mix sweeps is split at.
inline constexpr uint32_t MixPercents[] = {0, 25, 50, 75, 100};

/// The Figs. 14-16 static replication/superinstruction mix sweep over
/// one workload: one variant per grid point, each total budget of
/// \p Totals additional static instructions split at every
/// MixPercents share into superinstructions and replicas (the
/// zero-budget row is one plain-threaded cell).
inline SweepSpec mixSpec(const std::string &Name, const std::string &Suite,
                         const std::string &Benchmark,
                         const std::string &CpuId,
                         const std::vector<uint32_t> &Totals,
                         bool ReplicateSupers) {
  std::vector<VariantSpec> Variants;
  for (uint32_t Total : Totals)
    for (uint32_t Pct : MixPercents) {
      VariantSpec V;
      V.Name = format("total %u, %u%% super", Total, Pct);
      V.Config.Kind = Total == 0 ? DispatchStrategy::Threaded
                                 : DispatchStrategy::StaticBoth;
      V.SuperCount = Total * Pct / 100;
      V.ReplicaCount = Total - V.SuperCount;
      V.ReplicateSupers = ReplicateSupers;
      V.Config.SuperCount = V.SuperCount;
      V.Config.ReplicaCount = V.ReplicaCount;
      Variants.push_back(V);
      if (Total == 0)
        break;
    }
  return suiteSpec(Name, Suite, {Benchmark}, std::move(Variants), CpuId);
}

/// Renders a mix sweep's cells (mixSpec order) as the figures' (total
/// budget × %super) table, one \p Cell(counters) string per point.
template <class CellFn>
std::string renderMixTable(const std::vector<uint32_t> &Totals,
                           const std::vector<PerfCounters> &Cells,
                           CellFn Cell) {
  std::vector<std::string> Header = {"total \\ %super"};
  for (uint32_t Pct : MixPercents)
    Header.push_back(std::to_string(Pct) + "%");
  TextTable T(Header);
  size_t I = 0;
  for (uint32_t Total : Totals) {
    std::vector<std::string> Row = {std::to_string(Total)};
    size_t Points = Total == 0 ? 1 : std::size(MixPercents);
    for (size_t P = 0; P < Points; ++P)
      Row.push_back(Cell(Cells[I++]));
    while (Row.size() < Header.size())
      Row.push_back("-");
    T.addRow(Row);
  }
  return T.render();
}

/// A 3-opcode toy VM (A, B, GOTO) for the paper's worked examples.
struct ToyLoopVM {
  OpcodeSet Set;
  Opcode A, B, Goto, Halt;

  ToyLoopVM() {
    auto add = [&](const char *Name, BranchKind BK) {
      OpcodeInfo Info;
      Info.Name = Name;
      Info.WorkInstrs = 3;
      Info.BodyBytes = 16;
      Info.Branch = BK;
      return Set.add(std::move(Info));
    };
    A = add("A", BranchKind::None);
    B = add("B", BranchKind::None);
    Goto = add("GOTO", BranchKind::Uncond);
    Halt = add("HLT", BranchKind::Halt);
  }

  /// "label: A B A GOTO label" (Tables I, II, IV).
  VMProgram loopABA() const {
    VMProgram P;
    P.Name = "loop";
    P.Code = {{A, 0, 0}, {B, 0, 0}, {A, 0, 0}, {Goto, 0, 0}};
    return P;
  }

  /// "label: A B A B A GOTO label" (Table III).
  VMProgram loopABABA() const {
    VMProgram P;
    P.Name = "loop3";
    P.Code = {{A, 0, 0}, {B, 0, 0}, {A, 0, 0},
              {B, 0, 0}, {A, 0, 0}, {Goto, 0, 0}};
    return P;
  }

  /// Executes \p Iterations of the loop over \p Sim.
  void run(const VMProgram &P, DispatchSim &Sim, uint32_t Iterations) const {
    uint32_t Len = P.size();
    uint32_t Ip = 0;
    for (uint64_t Step = 0; Step < uint64_t(Iterations) * Len; ++Step) {
      uint32_t Next = P.Code[Ip].Op == Goto ? 0 : Ip + 1;
      Sim.step(Ip, Next);
      Ip = Next;
    }
  }
};

/// Symbolizes the addresses of a layout: branch sites become "br-A1" /
/// "br-switch", entries become "A1", "B", ... following the paper's
/// notation in Tables I-IV.
class LoopSymbolizer {
public:
  LoopSymbolizer(const DispatchProgram &Layout, const OpcodeSet &Set,
                 const VMProgram &P) {
    std::map<std::string, int> NameUses;
    // Count distinct entry addresses per opcode name to decide whether
    // to number replicas (A1, A2) or keep plain names (B, GOTO).
    std::map<std::string, std::vector<Addr>> AddrsPerName;
    for (uint32_t I = 0; I < P.size(); ++I) {
      const std::string &Name = Set.info(P.Code[I].Op).Name;
      Addr E = Layout.piece(I).EntryAddr;
      auto &List = AddrsPerName[Name];
      bool Known = false;
      for (Addr Have : List)
        Known |= Have == E;
      if (!Known)
        List.push_back(E);
    }
    for (auto &[Name, Addrs] : AddrsPerName) {
      bool Numbered = Addrs.size() > 1;
      for (size_t K = 0; K < Addrs.size(); ++K) {
        std::string Label =
            Numbered ? Name + std::to_string(K + 1) : Name;
        EntryNames[Addrs[K]] = Label;
      }
    }
    for (uint32_t I = 0; I < P.size(); ++I) {
      const Piece &Pc = Layout.piece(I);
      if (Pc.BranchSite == 0)
        continue;
      auto It = BranchNames.find(Pc.BranchSite);
      if (It == BranchNames.end())
        BranchNames[Pc.BranchSite] =
            SharedSite(Layout, P) && Pc.BranchSite == SharedAddr(Layout, P)
                ? "br-switch"
                : "br-" + entryName(Pc.EntryAddr);
    }
  }

  std::string entryName(Addr A) const {
    auto It = EntryNames.find(A);
    return It == EntryNames.end() ? format("0x%llx",
                                           (unsigned long long)A)
                                  : It->second;
  }
  std::string branchName(Addr A) const {
    auto It = BranchNames.find(A);
    return It == BranchNames.end() ? format("0x%llx",
                                            (unsigned long long)A)
                                   : It->second;
  }

private:
  static bool SharedSite(const DispatchProgram &L, const VMProgram &) {
    return L.config().Kind == DispatchStrategy::Switch;
  }
  static Addr SharedAddr(const DispatchProgram &L, const VMProgram &) {
    return L.piece(0).BranchSite;
  }

  std::map<Addr, std::string> EntryNames;
  std::map<Addr, std::string> BranchNames;
};

/// Runs \p Warmup + \p Shown iterations of a loop program and renders
/// the per-dispatch trace of the shown iterations in the Table I-IV
/// format.
inline std::string traceLoop(const ToyLoopVM &VM, const VMProgram &P,
                             const StrategyConfig &Config,
                             const StaticResources *Static,
                             uint32_t Warmup, uint32_t Shown) {
  auto Layout = DispatchBuilder::build(P, VM.Set, Config, Static);
  LoopSymbolizer Sym(*Layout, VM.Set, P);
  CpuConfig Cpu = makePentium4Northwood();
  DispatchSim Sim(*Layout, Cpu);

  VM.run(P, Sim, Warmup);

  TextTable T({"#", "instr", "BTB entry", "prediction", "actual",
               "outcome"});
  uint32_t Row = 1;
  auto AddRow = [&](const TraceEvent &E) {
    if (!E.Dispatched)
      return;
    std::string Pred = E.Predicted == NoPrediction
                           ? "(empty)"
                           : Sym.entryName(E.Predicted);
    T.addRow({std::to_string(Row++),
              Sym.entryName(Layout->piece(E.Cur).EntryAddr),
              Sym.branchName(E.Site), Pred, Sym.entryName(E.Target),
              E.Mispredicted ? "MISPREDICT" : "correct"});
  };
  CallbackObserver<decltype(AddRow)> Observer(AddRow);
  Sim.setObserver(&Observer);
  uint64_t MissBefore = Sim.counters().Mispredictions;
  VM.run(P, Sim, Shown);
  Sim.setObserver(nullptr);
  uint64_t Misses = Sim.counters().Mispredictions - MissBefore;

  return T.render() +
         format("\nmispredictions in %u shown iteration(s): %llu\n", Shown,
                (unsigned long long)Misses);
}

} // namespace bench
} // namespace vmib

#endif // VMIB_BENCH_BENCHUTIL_H
