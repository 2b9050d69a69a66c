//===- tools/trace_synth.cpp - Synthetic mega-trace generator -------------===//
///
/// Generates a synthetic Markov dispatch trace (workloads/SynthSuite.h)
/// straight into the trace cache, where every downstream consumer —
/// sweep_driver, the labs, the result store — picks it up exactly like
/// a captured one (`--seed= --events= --entropy=`, or `--name=` of the
/// same workload; `--emit-spec` prints a sweep spec for it instead, and
/// only that mode takes the spec's `--threads/--chunk/--decode`).
///
/// Generation is O(events) with no interpreter state, so this is how
/// multi-hundred-million-event decode/replay-bandwidth inputs are made:
/// the real suite tops out around 10^7 events per benchmark. The
/// [timing] line reports generation and save throughput plus the
/// on-disk compression ratio (decoded bytes / file bytes), and the
/// benchmark NAME is the workload — running the emitted spec through
/// sweep_driver needs no side channel, because the labs regenerate (or
/// cache-load) the trace from the name alone.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "harness/WorkloadCache.h"
#include "workloads/SynthSuite.h"

#include <cstdio>
#include <string>

using namespace vmib;

int main(int argc, char **argv) {
  // Two modes, each declaring only what it reads: generate (the
  // default) writes the trace and takes --out; --emit-spec prints a
  // sweep spec instead and takes the spec's shape overrides.
  const bool EmitSpec = OptionParser(argc, argv).has("emit-spec");
  OptionTable Declared = {
      {"seed", "generator seed (default 1)", OptionDecl::Value},
      {"events", "trace length, k/m/g suffixes allowed", OptionDecl::Value},
      {"entropy", "branch entropy 0..100 (default 50)", OptionDecl::Value},
      {"name", "workload name synth-markov-s<seed>-n<events>-e<entropy>",
       OptionDecl::Value}};
  if (!EmitSpec)
    Declared.push_back(
        {"out", "write here instead of the trace cache", OptionDecl::Value});
  Declared.push_back(
      {"emit-spec", "print a sweep spec for the workload instead"});
  if (EmitSpec) {
    OptionTable Shape = bench::shapeOptions();
    Declared.insert(Declared.end(), Shape.begin(), Shape.end());
  }
  OptionParser Opts(argc, argv, Declared);

  // Both flag styles funnel through the one name grammar, so the
  // validation (suffix scaling, entropy range, overflow) lives in
  // exactly one place and --name round-trips what --seed/... builds.
  std::string Name;
  if (Opts.has("name")) {
    Name = Opts.get("name");
  } else if (Opts.has("events")) {
    Name = "synth-markov-s" + (Opts.has("seed") ? Opts.get("seed") : "1") +
           "-n" + Opts.get("events") + "-e" +
           (Opts.has("entropy") ? Opts.get("entropy") : "50");
  } else {
    std::fputs(renderOptions("trace_synth", Declared).c_str(), stderr);
    return 2;
  }
  SynthWorkloadParams Params;
  std::string Error;
  if (!parseSynthBenchmarkName(Name, Params, &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  Name = synthBenchmarkName(Params); // canonical (collapses suffixes)

  if (EmitSpec) {
    // A four-variant single-benchmark sweep: enough members per gang
    // to share one decoded stream across a decode group, small enough
    // for a smoke cell.
    SweepSpec Spec = bench::suiteSpec(
        "synthsmoke", "forth", {Name},
        {makeVariant(DispatchStrategy::Threaded),
         makeVariant(DispatchStrategy::StaticRepl),
         makeVariant(DispatchStrategy::StaticSuper),
         makeVariant(DispatchStrategy::StaticBoth)},
        "p4northwood");
    int ExitCode = 0;
    if (!bench::applySpecOverrides(Opts, Spec, ExitCode))
      return ExitCode;
    std::fputs(printSweepSpec(Spec).c_str(), stdout);
    return 0;
  }

  std::string Out = Opts.get("out");
  if (Out.empty())
    Out = DispatchTrace::cachePathFor(workloadKey("forth", Name));
  if (Out.empty()) {
    std::fprintf(stderr, "error: no destination: set VMIB_TRACE_CACHE or "
                         "pass --out=PATH\n");
    return 1;
  }

  ForthUnit Unit = buildSynthUnit(Params);
  std::string Invalid = Unit.Program.validate(forth::opcodeSet());
  if (!Invalid.empty()) {
    std::fprintf(stderr, "error: generated program invalid: %s\n",
                 Invalid.c_str());
    return 1;
  }

  WallTimer GenTimer;
  DispatchTrace Trace;
  generateSynthTrace(Params, Unit.Program, Trace);
  double GenerateSeconds = GenTimer.seconds();

  WallTimer SaveTimer;
  if (!Trace.save(Out, synthWorkloadHash(Params))) {
    std::fprintf(stderr, "error: could not write %s\n", Out.c_str());
    return 1;
  }
  double SaveSeconds = SaveTimer.seconds();

  DispatchTrace::FileInfo Info;
  if (!DispatchTrace::peekFileInfo(Out, Info)) {
    std::fprintf(stderr, "error: wrote %s but cannot read its header back\n",
                 Out.c_str());
    return 1;
  }

  std::printf("%s: %llu events -> %s\n", Name.c_str(),
              (unsigned long long)Trace.numEvents(), Out.c_str());
  std::printf("[timing] bench=trace_synth:%s events=%llu generate_s=%.3f "
              "save_s=%.3f events_per_s=%.3g bytes=%llu logical=%llu "
              "ratio=%.2f\n",
              Name.c_str(), (unsigned long long)Trace.numEvents(),
              GenerateSeconds, SaveSeconds,
              GenerateSeconds > 0
                  ? (double)Trace.numEvents() / GenerateSeconds
                  : 0.0,
              (unsigned long long)Info.FileBytes,
              (unsigned long long)Info.LogicalBytes, Info.ratio());
  return 0;
}
