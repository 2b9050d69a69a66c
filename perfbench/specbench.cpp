//===- perfbench/specbench.cpp - Spec-to-tables benchmark driver ----------===//
///
/// Runs a list of sweep spec files the way `sweep_driver` runs one spec
/// — orchestrated over `--shards=N` sweep_driver worker processes, or
/// `--in-process` — prints the same tables, and checks every cell's
/// PerfCounters::fingerprint() against a reference file.
///
///   specbench (--in-process | --shards=N) [--threads=N] [--result-store]
///             --ref=FILE --result=FILE
///             [--trace=FILE --run-id=ID --label=NAME] SPEC...
///   specbench --reference SPEC...
///
/// Untraced, each spec goes through the same library calls sweep_driver
/// makes (SweepExecutor::runAll or orchestrateSweep, the BenchUtil
/// store and override helpers). `--trace=FILE` instead drives the
/// in-process path as explicit calls into each layer's public functions
/// — the lab's traceSource() and warmup(), SweepExecutor::runSlice()
/// with GangReplayer stats, ResultStore::open() — in runAll's pipeline
/// shape, records a span around every call, and writes the spans as a
/// Chrome trace-event file (Perfetto, chrome://tracing). Orchestrated
/// specs are traced at the orchestrateSweep() boundary; their workers
/// are separate processes.
///
/// `--reference` prints the reference fingerprints: every spec replayed
/// serially (threads 1, static schedule), in-process, with no result
/// store.
///
/// `--result=FILE` receives one JSON object: the sweep wall time (first
/// spec launch to last table printed), per-spec wall times, the cell
/// tally against the reference and, when traced, the per-layer sums.
/// Exit status: 0 when every cell matched, 3 on a mismatch, 1 on error.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "harness/CacheGC.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace vmib;

namespace {

using Clock = std::chrono::steady_clock;

//===--- spans -------------------------------------------------------------===//

struct SpanRecord {
  std::string Name;
  uint64_t Id = 0;
  uint64_t Parent = 0;
  double StartUs = 0;
  double EndUs = 0;
  unsigned Tid = 0;
  std::vector<std::pair<std::string, double>> Args;
};

/// In-memory span store; written out once, after the sweep.
class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }
  double nowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - Origin)
        .count();
  }
  uint64_t newId() { return NextId.fetch_add(1, std::memory_order_relaxed); }

  void add(SpanRecord R) {
    std::lock_guard<std::mutex> Lock(M);
    auto It = Tids.find(std::this_thread::get_id());
    if (It == Tids.end())
      It = Tids.emplace(std::this_thread::get_id(),
                        static_cast<unsigned>(Tids.size()) + 1)
               .first;
    R.Tid = It->second;
    Spans.push_back(std::move(R));
  }

  /// Self time of every span named \p Name: its duration minus the
  /// union of its children's intervals (children may overlap — the
  /// capture and replay stages of a pipeline run concurrently).
  double selfSeconds(const std::string &Name) const {
    std::map<uint64_t, std::vector<std::pair<double, double>>> Children;
    for (const SpanRecord &S : Spans)
      Children[S.Parent].push_back({S.StartUs, S.EndUs});
    double Self = 0;
    for (const SpanRecord &S : Spans) {
      if (S.Name != Name)
        continue;
      std::vector<std::pair<double, double>> &C = Children[S.Id];
      std::sort(C.begin(), C.end());
      double Covered = 0, End = S.StartUs;
      for (const auto &[B, E] : C) {
        double Lo = std::max(B, End), Hi = std::min(E, S.EndUs);
        if (Hi > Lo)
          Covered += Hi - Lo;
        End = std::max(End, Hi);
      }
      Self += (S.EndUs - S.StartUs - Covered) * 1e-6;
    }
    return Self;
  }

  bool write(const std::string &Path, const std::string &RunId,
             const std::string &Label) const {
    FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::fprintf(F, "{\"traceEvents\":[\n");
    std::fprintf(F,
                 "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":0,\"args\":{\"name\":\"specbench %s\"}}",
                 bench::jsonEscape(Label).c_str());
    for (const SpanRecord &S : Spans) {
      std::fprintf(F,
                   ",\n{\"name\":\"%s\",\"cat\":\"layer\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                   "\"args\":{\"run_id\":\"%s\",\"span_id\":%" PRIu64
                   ",\"parent_id\":%" PRIu64,
                   bench::jsonEscape(S.Name).c_str(), S.StartUs,
                   S.EndUs - S.StartUs, S.Tid,
                   bench::jsonEscape(RunId).c_str(), S.Id, S.Parent);
      for (const auto &[K, V] : S.Args)
        std::fprintf(F, ",\"%s\":%.17g", bench::jsonEscape(K).c_str(), V);
      std::fprintf(F, "}}");
    }
    std::fprintf(F, "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
                    "\"run_id\":\"%s\",\"label\":\"%s\"}}\n",
                 bench::jsonEscape(RunId).c_str(),
                 bench::jsonEscape(Label).c_str());
    bool Ok = std::ferror(F) == 0;
    return std::fclose(F) == 0 && Ok;
  }

private:
  bool Enabled;
  Clock::time_point Origin = Clock::now();
  std::atomic<uint64_t> NextId{1};
  std::mutex M;
  std::vector<SpanRecord> Spans;
  std::map<std::thread::id, unsigned> Tids;
};

/// One span, recorded when it goes out of scope. A no-op when tracing
/// is off.
class Span {
public:
  Span(Tracer &T, const char *Name, uint64_t Parent) : T(T) {
    if (!T.enabled())
      return;
    R.Name = Name;
    R.Id = T.newId();
    R.Parent = Parent;
    R.StartUs = T.nowUs();
  }
  ~Span() {
    if (!T.enabled())
      return;
    R.EndUs = T.nowUs();
    T.add(std::move(R));
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  uint64_t id() const { return R.Id; }
  void rename(const char *Name) { R.Name = Name; }
  void arg(const char *Key, double V) {
    if (T.enabled())
      R.Args.emplace_back(Key, V);
  }

private:
  Tracer &T;
  SpanRecord R;
};

/// Per-layer sums, shared by the pipeline's capture and replay threads.
class LayerSums {
public:
  void add(const std::string &Name, double V) {
    std::lock_guard<std::mutex> Lock(M);
    Sums[Name] += V;
  }
  void set(const std::string &Name, double V) {
    std::lock_guard<std::mutex> Lock(M);
    Sums[Name] = V;
  }
  void max(const std::string &Name, double V) {
    std::lock_guard<std::mutex> Lock(M);
    double &Cur = Sums[Name];
    Cur = std::max(Cur, V);
  }
  /// Only once the threads that add have joined.
  const std::map<std::string, double> &all() const { return Sums; }

private:
  std::mutex M;
  std::map<std::string, double> Sums;
};

//===--- sweeps ------------------------------------------------------------===//

/// The per-(CPU, predictor) speedup tables, rendered exactly as
/// sweep_driver renders them.
void printTables(const SweepSpec &Spec,
                 const std::vector<PerfCounters> &Cells) {
  size_t P = Spec.Predictors.empty() ? 1 : Spec.Predictors.size();
  for (size_t C = 0; C < Spec.Cpus.size(); ++C)
    for (size_t G = 0; G < P; ++G) {
      SpeedupMatrix M = bench::matrixFromCells(Spec, Cells, C, G);
      std::string Title = Spec.Name + " [cpu=" + Spec.Cpus[C];
      if (P > 1)
        Title += format(" predictor=%zu", G);
      Title += "]";
      std::printf("%s\n", M.renderSpeedups(Title).c_str());
    }
}

struct DriverConfig {
  bool InProcess = false;
  unsigned Shards = 1;
};

/// Orchestrated spec: the sweep_driver orchestrator-mode path, traced
/// at the orchestrateSweep() boundary.
bool runOrchestrated(const OptionParser &Opts, const DriverConfig &Cfg,
                     const std::string &SpecPath, const SweepSpec &Spec,
                     std::vector<PerfCounters> &Cells, Tracer &T,
                     uint64_t Parent, LayerSums &L, std::string &Error) {
  DirUseLock CacheUse(DispatchTrace::cacheDir());
  ResultStore Store;
  bool StoreOn;
  {
    Span S(T, "ResultStore.open", Parent);
    WallTimer Open;
    StoreOn = bench::applyStoreOptions(Opts, Store);
    L.add("ResultStore.open_s", Open.seconds());
  }
  SweepWorkerOptions W;
  W.Shards = Cfg.Shards;
  W.Threads = Spec.Threads;
  W.SpecPath = SpecPath;
  W.Store = StoreOn ? &Store : nullptr;
  SweepRunStats Stats;
  OrchestratorReport Report;
  {
    Span S(T, "SweepOrchestrator.orchestrateSweep", Parent);
    WallTimer Wall;
    if (!orchestrateSweep(Spec, W, Cells, Stats, Error, &Report))
      return false;
    L.add("SweepOrchestrator.wall_s", Wall.seconds());
    S.arg("attempts", Report.AttemptsLaunched);
    S.arg("worker_failures", Report.WorkerFailures);
    S.arg("jobs_from_store", static_cast<double>(Report.JobsServedFromStore));
  }
  L.add("SweepOrchestrator.attempts", Report.AttemptsLaunched);
  L.add("SweepOrchestrator.worker_failures", Report.WorkerFailures);
  L.add("SweepOrchestrator.jobs_from_store",
        static_cast<double>(Report.JobsServedFromStore));
  L.add("ResultStore.lookups",
        static_cast<double>(Report.StoreHits + Report.StoreMisses));
  L.add("ResultStore.hits", static_cast<double>(Report.StoreHits));
  bench::emitTiming(Spec.Name + format(":shards%u", Cfg.Shards), Stats);
  bench::emitOrchestratorReport(Spec.Name, Report);
  if (StoreOn)
    bench::emitStoreReport(Spec.Name, Report);
  if (!Report.complete()) {
    Error = format("%zu of %zu cells missing",
                   Report.CellCovered.size() - Report.cellsCovered(),
                   Report.CellCovered.size());
    return false;
  }
  return true;
}

/// In-process spec, untraced: the sweep_driver --in-process path.
void runInProcess(const OptionParser &Opts, const SweepSpec &Spec,
                  std::vector<PerfCounters> &Cells) {
  DirUseLock CacheUse(DispatchTrace::cacheDir());
  ResultStore Store;
  bool StoreOn = bench::applyStoreOptions(Opts, Store);
  SweepExecutor Executor;
  if (StoreOn)
    Executor.setResultStore(&Store);
  SweepRunStats Stats = Executor.runAll(Spec, 0, Cells);
  bench::emitTiming(Spec.Name + ":inproc", Stats);
  if (StoreOn)
    bench::emitStoreReport(Spec.Name, Store);
}

/// In-process spec, traced: SweepExecutor::runAll's pipeline shape
/// (same thread budget, capture of workload i+1 overlapped with the
/// gang of workload i) driven through the layers' public calls, with a
/// span around each.
void runInProcessTraced(const OptionParser &Opts, const SweepSpec &Spec,
                        std::vector<PerfCounters> &Cells, Tracer &T,
                        uint64_t Parent, LayerSums &L) {
  DirUseLock CacheUse(DispatchTrace::cacheDir());
  ResultStore Store;
  bool StoreOn;
  {
    Span S(T, "ResultStore.open", Parent);
    WallTimer Open;
    StoreOn = bench::applyStoreOptions(Opts, Store);
    L.add("ResultStore.open_s", Open.seconds());
  }
  SweepExecutor Executor;
  if (StoreOn)
    Executor.setResultStore(&Store);
  const bool Java = Spec.Suite == "java";
  const std::string LabName = Java ? "JavaLab" : "ForthLab";
  uint64_t RunsBefore = Java ? Executor.java().referenceRunsPerformed()
                             : Executor.forth().referenceRunsPerformed();

  unsigned Threads = defaultSweepThreads();
  unsigned GangThreads = resolveGangThreads(Spec.Threads);
  if (GangThreads > 1)
    Threads = Threads / GangThreads > 1 ? Threads / GangThreads : 1;
  size_t W = Spec.Benchmarks.size();
  size_t M = Spec.membersPerWorkload();
  std::vector<std::vector<PerfCounters>> Rows(W);
  double CaptureBusy = 0; // producer thread only
  std::mutex GangMutex;
  double BusySeconds = 0, PoolSeconds = 0;

  pipelineSweep(
      W, Threads,
      [&](size_t I) {
        WallTimer Busy;
        const std::string &B = Spec.Benchmarks[I];
        {
          Span S(T, "DispatchTrace.load", Parent);
          WallTimer Load;
          TraceSource Src = Java ? Executor.java().traceSource(B, Spec.Decode)
                                 : Executor.forth().traceSource(B, Spec.Decode);
          double Sec = Load.seconds();
          S.arg("events", static_cast<double>(Src.numEvents()));
          if (Src.streaming()) {
            S.rename("TraceSource.openStreaming");
            L.add("TraceSource.open_s", Sec);
          } else {
            L.add("DispatchTrace.load_s", Sec);
            L.add("DispatchTrace.load_events",
                  static_cast<double>(Src.numEvents()));
          }
        }
        for (const std::string &CpuId : Spec.Cpus) {
          CpuConfig Cpu;
          if (!cpuConfigById(CpuId, Cpu))
            continue;
          Span S(T, Java ? "JavaLab.warmup" : "ForthLab.warmup", Parent);
          WallTimer Warm;
          if (Java)
            Executor.java().warmup(B, Cpu, Spec.Decode);
          else
            Executor.forth().warmup(B, Cpu, Spec.Decode);
          L.add(LabName + ".warmup_s", Warm.seconds());
        }
        CaptureBusy += Busy.seconds();
      },
      [&](size_t I) {
        Span S(T, "SweepExecutor.runSlice", Parent);
        WallTimer Slice;
        GangReplayer::Stats G;
        Rows[I] = Executor.runSlice(Spec, I, 0, M, &G);
        double Sec = Slice.seconds();
        uint64_t Events = 0, Waited = 0, Stolen = 0;
        double Busy = 0;
        for (const GangReplayer::Stats::Worker &Wk : G.Workers) {
          Events += Wk.EventsReplayed;
          Waited += Wk.TilesWaited;
          Stolen += Wk.MembersStolen;
          Busy += Wk.BusySeconds;
        }
        S.arg("member_events", static_cast<double>(Events));
        S.arg("deferred_members", static_cast<double>(G.DeferredFinishes));
        S.arg("finish_s", G.FinishSeconds);
        S.arg("source_events", static_cast<double>(G.SourceEvents));
        L.add("SweepExecutor.run_slice_s", Sec);
        L.add("GangReplayer.member_events", static_cast<double>(Events));
        L.add("GangReplayer.tiles_waited", static_cast<double>(Waited));
        L.add("GangReplayer.members_stolen", static_cast<double>(Stolen));
        L.add("GangReplayer.deferred_members",
              static_cast<double>(G.DeferredFinishes));
        L.add("GangReplayer.finish_s", G.FinishSeconds);
        L.add("GangReplayer.source_events",
              static_cast<double>(G.SourceEvents));
        L.add("GangReplayer.source_read_s", G.SourceReadSeconds);
        if (G.StreamedDecode) {
          L.add("GangReplayer.streamed_events",
                static_cast<double>(G.SourceEvents));
          L.add("GangReplayer.streamed_read_s", G.SourceReadSeconds);
        }
        L.max("GangReplayer.peak_ring_bytes",
              static_cast<double>(G.PeakTileRingBytes));
        std::lock_guard<std::mutex> Lock(GangMutex);
        BusySeconds += Busy;
        PoolSeconds += Sec * static_cast<double>(G.Workers.size());
      });

  L.add("SweepExecutor.capture_busy_s", CaptureBusy);
  L.add("GangReplayer.busy_s", BusySeconds);
  L.add("GangReplayer.pool_s", PoolSeconds);
  uint64_t RunsAfter = Java ? Executor.java().referenceRunsPerformed()
                            : Executor.forth().referenceRunsPerformed();
  L.add(LabName + ".reference_runs",
        static_cast<double>(RunsAfter - RunsBefore));
  if (StoreOn) {
    const ResultStoreStats &St = Store.stats();
    L.add("ResultStore.lookups", static_cast<double>(St.Hits + St.Misses));
    L.add("ResultStore.hits", static_cast<double>(St.Hits));
    L.set("ResultStore.records", static_cast<double>(Store.size()));
  }

  Cells.assign(Spec.numCells(), PerfCounters());
  for (size_t I = 0; I < W; ++I)
    for (size_t J = 0; J < M; ++J)
      Cells[Spec.cellIndex(I, J)] = Rows[I][J];
}

//===--- reference fingerprints --------------------------------------------===//

using Reference = std::map<std::string, std::vector<uint64_t>>;

/// Parses "<spec name> <cell> <16 hex digits>" lines ('#' comments).
bool loadReference(const std::string &Path, Reference &Ref,
                   std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot open reference " + Path;
    return false;
  }
  std::string Line;
  size_t LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Fields(Line);
    std::string Name, Hex;
    size_t Cell = 0;
    if (!(Fields >> Name >> Cell >> Hex) || Hex.size() != 16 ||
        Hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
      Error = format("%s:%zu: malformed reference line", Path.c_str(), LineNo);
      return false;
    }
    std::vector<uint64_t> &Cells = Ref[Name];
    if (Cells.size() != Cell) {
      Error = format("%s:%zu: cells of %s out of order", Path.c_str(), LineNo,
                     Name.c_str());
      return false;
    }
    Cells.push_back(std::strtoull(Hex.c_str(), nullptr, 16));
  }
  return true;
}

struct Tally {
  size_t Attempted = 0;
  size_t Correct = 0;
  std::vector<std::string> Mismatches; ///< first few, for the log
};

/// Counts \p Cells against the reference row of \p Spec. A reference
/// cell the run did not produce counts as attempted and wrong.
void checkCells(const SweepSpec &Spec, const std::vector<PerfCounters> &Cells,
                const Reference &Ref, Tally &Out) {
  auto It = Ref.find(Spec.Name);
  size_t Want = It == Ref.end() ? 0 : It->second.size();
  size_t N = std::max(Want, Cells.size());
  for (size_t I = 0; I < N; ++I) {
    ++Out.Attempted;
    bool Have = I < Cells.size(), Known = I < Want;
    uint64_t Got = Have ? Cells[I].fingerprint() : 0;
    if (Have && Known && Got == It->second[I]) {
      ++Out.Correct;
      continue;
    }
    if (Out.Mismatches.size() < 8)
      Out.Mismatches.push_back(
          !Known ? format("%s/%zu: no reference", Spec.Name.c_str(), I)
          : !Have
              ? format("%s/%zu: cell missing", Spec.Name.c_str(), I)
              : format("%s/%zu: got %016" PRIx64 " want %016" PRIx64,
                       Spec.Name.c_str(), I, Got, It->second[I]));
  }
}

int runReference(const std::vector<std::string> &SpecPaths) {
  std::printf("# PerfCounters::fingerprint() per cell: serial (threads 1, "
              "static), in-process, no result store\n");
  for (const std::string &Path : SpecPaths) {
    SweepSpec Spec;
    std::string Error;
    if (!loadSweepSpecFile(Path, Spec, Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    Spec.Threads = 1;
    Spec.Schedule = GangSchedule::Static;
    SweepExecutor Executor;
    std::vector<PerfCounters> Cells;
    Executor.runAll(Spec, 1, Cells);
    for (size_t I = 0; I < Cells.size(); ++I)
      std::printf("%s %zu %016" PRIx64 "\n", Spec.Name.c_str(), I,
                  Cells[I].fingerprint());
  }
  return 0;
}

bool writeResult(const std::string &Path, double SweepWall,
                 const std::vector<std::pair<std::string, double>> &SpecWalls,
                 const Tally &Cells, const LayerSums *Layers) {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"sweep_wall_s\": %.9f, \"spec_wall_s\": {", SweepWall);
  for (size_t I = 0; I < SpecWalls.size(); ++I)
    std::fprintf(F, "%s\"%s\": %.9f", I ? ", " : "",
                 bench::jsonEscape(SpecWalls[I].first).c_str(),
                 SpecWalls[I].second);
  std::fprintf(F, "}, \"cells_attempted\": %zu, \"cells_correct\": %zu, "
                  "\"mismatches\": [",
               Cells.Attempted, Cells.Correct);
  for (size_t I = 0; I < Cells.Mismatches.size(); ++I)
    std::fprintf(F, "%s\"%s\"", I ? ", " : "",
                 bench::jsonEscape(Cells.Mismatches[I]).c_str());
  std::fprintf(F, "], \"layers\": {");
  if (Layers) {
    size_t I = 0;
    for (const auto &[K, V] : Layers->all())
      std::fprintf(F, "%s\"%s\": %.17g", I++ ? ", " : "",
                   bench::jsonEscape(K).c_str(), V);
  }
  std::fprintf(F, "}}\n");
  bool Ok = std::ferror(F) == 0;
  return std::fclose(F) == 0 && Ok;
}

} // namespace

int main(int argc, char **argv) {
  OptionParser Opts(argc, argv);
  const std::vector<std::string> &SpecPaths = Opts.positional();
  if (SpecPaths.empty()) {
    std::fprintf(stderr,
                 "usage: specbench (--in-process | --shards=N) [--threads=N] "
                 "[--result-store] --ref=FILE --result=FILE "
                 "[--trace=FILE --run-id=ID --label=NAME] SPEC...\n"
                 "       specbench --reference SPEC...\n");
    return 2;
  }
  if (Opts.has("reference"))
    return runReference(SpecPaths);

  DriverConfig Cfg;
  Cfg.InProcess = Opts.has("in-process");
  Cfg.Shards = static_cast<unsigned>(std::max<int64_t>(1, Opts.getInt("shards", 1)));
  Reference Ref;
  std::string Error;
  if (!loadReference(Opts.get("ref"), Ref, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  Tracer T(Opts.has("trace"));
  LayerSums Layers;

  // Specs load before the clock starts; the timed region is each
  // spec's launch through its last table reaching stdout.
  std::vector<SweepSpec> Specs(SpecPaths.size());
  for (size_t I = 0; I < SpecPaths.size(); ++I) {
    int Exit = 0;
    if (!loadSweepSpecFile(SpecPaths[I], Specs[I], Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    if (!bench::applySpecOverrides(Opts, Specs[I], Exit))
      return Exit;
  }

  std::vector<std::vector<PerfCounters>> AllCells(Specs.size());
  std::vector<std::pair<std::string, double>> SpecWalls;
  WallTimer Wall;
  {
    Span Root(T, "specbench.sweep", 0);
    for (size_t I = 0; I < Specs.size(); ++I) {
      const SweepSpec &Spec = Specs[I];
      WallTimer SpecWall;
      Span S(T, "sweep_driver.spec", Root.id());
      S.arg("cells", static_cast<double>(Spec.numCells()));
      if (!Cfg.InProcess) {
        if (!runOrchestrated(Opts, Cfg, SpecPaths[I], Spec, AllCells[I], T,
                             S.id(), Layers, Error)) {
          std::fprintf(stderr, "error: %s: %s\n", Spec.Name.c_str(),
                       Error.c_str());
          return 1;
        }
      } else if (T.enabled()) {
        runInProcessTraced(Opts, Spec, AllCells[I], T, S.id(), Layers);
      } else {
        runInProcess(Opts, Spec, AllCells[I]);
      }
      printTables(Spec, AllCells[I]);
      std::fflush(stdout);
      SpecWalls.push_back({Spec.Name, SpecWall.seconds()});
    }
  }
  double SweepWall = Wall.seconds();

  Tally Cells;
  for (size_t I = 0; I < Specs.size(); ++I)
    checkCells(Specs[I], AllCells[I], Ref, Cells);
  for (const std::string &M : Cells.Mismatches)
    std::fprintf(stderr, "mismatch: %s\n", M.c_str());

  if (T.enabled()) {
    Layers.set("Sweep.self_s", T.selfSeconds("sweep_driver.spec"));
    // Records the store holds after the sweep, read back the way the
    // next sweep would see them.
    std::string StoreDir = ResultStore::resolveDir(
        Opts.get("store-dir"), Opts.has("result-store"), false, nullptr);
    if (!StoreDir.empty()) {
      ResultStore After;
      if (After.open(StoreDir, nullptr))
        Layers.set("ResultStore.records", static_cast<double>(After.size()));
    }
    if (!T.write(Opts.get("trace"), Opts.get("run-id"), Opts.get("label"))) {
      std::fprintf(stderr, "error: cannot write trace %s\n",
                   Opts.get("trace").c_str());
      return 1;
    }
  }
  if (Opts.has("result") &&
      !writeResult(Opts.get("result"), SweepWall, SpecWalls, Cells,
                   T.enabled() ? &Layers : nullptr)) {
    std::fprintf(stderr, "error: cannot write result %s\n",
                 Opts.get("result").c_str());
    return 1;
  }
  return Cells.Correct == Cells.Attempted ? 0 : 3;
}
