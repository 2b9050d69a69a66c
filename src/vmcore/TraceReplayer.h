//===- vmcore/TraceReplayer.h - Trace-driven dispatch replay ----*- C++ -*-===//
///
/// \file
/// Re-drives DispatchSim semantics over a captured DispatchTrace
/// without re-interpreting the workload: the replay loop feeds the
/// recorded (Cur, Next) stream through the same sim::step kernel the
/// interpretation-driven simulator uses, so the resulting counters are
/// bit-identical to a direct run by construction.
///
/// Three replay tiers, fastest first:
///  - replayPredictorOnly(): predictor sweep over a fixed (trace,
///    layout, CPU): fetch-side counters are predictor-independent, so
///    they are taken from a previous replay and only the branch stream
///    is re-simulated.
///  - The optimistic fast path inside replay(): runs with no-evict
///    cache/BTB models that skip all LRU bookkeeping; if any set
///    overflows (the only case where LRU state matters), the run is
///    discarded and repeated with the exact models. Taken
///    automatically for quicken-free traces with no observer.
///  - The exact path: the same kernel DispatchSim drives, with the
///    full LRU models; always used for quickening (JVM) traces.
///
/// Instantiating the kernels with a concrete predictor type (BTB,
/// TwoLevelPredictor, CaseBlockTable, PerfectPredictor, NullPredictor)
/// devirtualizes predict()/update() so they inline into the replay
/// loop. replayVirtual() keeps the type-erased IndirectBranchPredictor
/// path for ablation benches that assemble predictors at run time.
///
/// Replays that include quickening (JVM traces) mutate the program and
/// layout; callers hand in a fresh program copy and a layout built over
/// it, exactly as they would for a direct run.
///
//===----------------------------------------------------------------------===//

#ifndef VMIB_VMCORE_TRACEREPLAYER_H
#define VMIB_VMCORE_TRACEREPLAYER_H

#include "vmcore/DispatchSim.h"
#include "vmcore/DispatchTrace.h"
#include "vmcore/TraceSource.h"

#include <cassert>

namespace vmib {

class TraceReplayer {
public:
  /// Replays \p Trace over \p Layout under \p Cpu, driving \p Pred for
  /// every dispatch. \p MutableProgram must be the (fresh) program
  /// \p Layout was built over when the trace contains quickening
  /// records; it may be null for quicken-free traces. If the optimistic
  /// fast path aborts, \p Pred is reset() and re-driven, so pass a
  /// fresh predictor. \returns the finalized counters (cycles derived,
  /// code bytes filled in).
  template <class PredictorT, class ObserverT = sim::NullObserver>
  static PerfCounters replay(const DispatchTrace &Trace,
                             DispatchProgram &Layout,
                             VMProgram *MutableProgram, const CpuConfig &Cpu,
                             PredictorT &Pred, const ObserverT &Obs = {}) {
    assert((Trace.numQuickens() == 0 || MutableProgram != nullptr) &&
           "quickening trace needs the mutable program");

    // Optimistic tier: no-evict I-cache. Gated off for quickening
    // traces (an aborted attempt would have patched layout state) and
    // observers (they would see events twice). No-evict *predictors*
    // must go through replayBtb/replayBtbPredictorOnly instead, which
    // own the overflow fallback.
    const bool Slim = isSlimLayout(Layout);
    if (Trace.numQuickens() == 0 && !Obs.active()) {
      sim::DispatchStateT<NoEvictICache> S(Cpu.ICache);
      bool Ok = Slim ? runChunked<false>(Trace, Layout, S, Pred, Obs)
                     : runChunked<true>(Trace, Layout, S, Pred, Obs);
      if (Ok)
        return finalize(S.Counters, Layout, Cpu);
      Pred.reset(); // discard the overflowed attempt
    }

    if (Trace.numQuickens() == 0)
      return replayExactNoQuicken(Trace, Layout, Cpu, Pred, Obs);
    sim::DispatchState S(Cpu.ICache);
    replayQuickening(Trace, Layout, *MutableProgram, S, Pred, Obs);
    return finalize(S.Counters, Layout, Cpu);
  }

  /// Whether the fallback/cold-stub kernel paths are provably no-ops
  /// for \p Layout, making the slim (Full = false) kernel exact.
  static bool isSlimLayout(const DispatchProgram &Layout) {
    if (Layout.hasFallbacks())
      return false;
    for (uint32_t I = 0, N = Layout.numPieces(); I < N; ++I)
      if (Layout.piece(I).ColdStubBranch)
        return false;
    return true;
  }

  /// Predictor-only replay: re-simulates just the dispatch branch
  /// stream of (Trace, Layout) and takes the predictor-independent
  /// fetch counters (Instructions, ICacheMisses, ...) from
  /// \p FetchBaseline — a replay()/run() of the same (trace, layout,
  /// CPU) under any predictor. The cheapest way to sweep predictors.
  /// Quicken-free traces only.
  template <class PredictorT>
  static PerfCounters replayPredictorOnly(const DispatchTrace &Trace,
                                          DispatchProgram &Layout,
                                          const CpuConfig &Cpu,
                                          PredictorT &Pred,
                                          const PerfCounters &FetchBaseline) {
    assert(Trace.numQuickens() == 0 &&
           "predictor-only replay needs a quicken-free trace");
    sim::DispatchStateT<sim::NullICache> S(Cpu.ICache);
    sim::NullObserver Obs;
    if (isSlimLayout(Layout)) {
      for (DispatchTrace::Event E : Trace.events())
        sim::step<false>(Layout, S, Pred, Obs, DispatchTrace::cur(E),
                         DispatchTrace::next(E));
    } else {
      for (DispatchTrace::Event E : Trace.events())
        sim::step(Layout, S, Pred, Obs, DispatchTrace::cur(E),
                  DispatchTrace::next(E));
    }
    S.Counters.ICacheMisses = FetchBaseline.ICacheMisses;
    return finalize(S.Counters, Layout, Cpu);
  }

  /// Replays with a (possibly custom-sized) BTB: tries the no-evict
  /// BTB over the optimistic fast path, falling back to the exact LRU
  /// BTB when a set overflows. Idealised configs (Entries == 0) and
  /// quickening traces go straight to the exact model.
  static PerfCounters replayBtb(const DispatchTrace &Trace,
                                DispatchProgram &Layout,
                                VMProgram *MutableProgram,
                                const CpuConfig &Cpu,
                                const BTBConfig &Config);

  /// Predictor-only replay of a BTB configuration (capacity sweeps):
  /// no-evict fast path with exact fallback, fetch counters from
  /// \p FetchBaseline. Quicken-free traces only.
  static PerfCounters replayBtbPredictorOnly(const DispatchTrace &Trace,
                                             DispatchProgram &Layout,
                                             const CpuConfig &Cpu,
                                             const BTBConfig &Config,
                                             const PerfCounters &FetchBaseline);

  /// Replays with \p Cpu's default BTB (the common sweep configuration).
  static PerfCounters replayDefault(const DispatchTrace &Trace,
                                    DispatchProgram &Layout,
                                    VMProgram *MutableProgram,
                                    const CpuConfig &Cpu);

  /// Type-erased fallback: replays with virtual predict()/update()
  /// calls per dispatch (run-time-assembled predictors).
  static PerfCounters replayVirtual(const DispatchTrace &Trace,
                                    DispatchProgram &Layout,
                                    VMProgram *MutableProgram,
                                    const CpuConfig &Cpu,
                                    IndirectBranchPredictor &Pred);

  /// Derives cycles and code-size counters for a finished replay state.
  /// Shared with GangReplayer, whose members finalize the same way.
  static PerfCounters finalize(PerfCounters Counters, DispatchProgram &Layout,
                               const CpuConfig &Cpu) {
    Counters.CodeBytes = Layout.generatedCodeBytes();
    finalizeCycles(Cpu, Counters);
    return Counters;
  }

  /// Exact-LRU quicken-free replay (also the tail of the optimistic
  /// fallback when the fast attempt's I-cache overflowed and a
  /// re-attempt is deterministically doomed). GangReplayer members use
  /// it as their deferred per-member fallback.
  template <class PredictorT, class ObserverT = sim::NullObserver>
  static PerfCounters replayExactNoQuicken(const DispatchTrace &Trace,
                                           DispatchProgram &Layout,
                                           const CpuConfig &Cpu,
                                           PredictorT &Pred,
                                           const ObserverT &Obs = {}) {
    sim::DispatchState S(Cpu.ICache);
    if (isSlimLayout(Layout)) {
      for (DispatchTrace::Event E : Trace.events())
        sim::step<false>(Layout, S, Pred, Obs, DispatchTrace::cur(E),
                         DispatchTrace::next(E));
    } else {
      for (DispatchTrace::Event E : Trace.events())
        sim::step(Layout, S, Pred, Obs, DispatchTrace::cur(E),
                  DispatchTrace::next(E));
    }
    return finalize(S.Counters, Layout, Cpu);
  }

  //===--- TraceSource overloads (materialized OR streaming input) --------===//
  //
  // The same replay tiers over a TraceSource: a materialized source
  // delegates to the DispatchTrace overloads above (identical codegen,
  // zero-copy), a streaming source runs the identical step kernels
  // over cursor tiles — one 64K-event decode buffer of working memory
  // regardless of trace length. Both orders are the plain stream
  // order, so counters are bit-identical by construction. These are
  // what GangReplayer members call from their deferred finish()
  // fallbacks, which must not re-materialize a multi-GB trace.

  /// replay() over a TraceSource; see the DispatchTrace overload.
  template <class PredictorT, class ObserverT = sim::NullObserver>
  static PerfCounters replay(const TraceSource &Source,
                             DispatchProgram &Layout,
                             VMProgram *MutableProgram, const CpuConfig &Cpu,
                             PredictorT &Pred, const ObserverT &Obs = {}) {
    if (!Source.streaming())
      return replay(Source.trace(), Layout, MutableProgram, Cpu, Pred, Obs);
    assert((Source.numQuickens() == 0 || MutableProgram != nullptr) &&
           "quickening trace needs the mutable program");
    const bool Slim = isSlimLayout(Layout);
    if (Source.numQuickens() == 0 && !Obs.active()) {
      sim::DispatchStateT<NoEvictICache> S(Cpu.ICache);
      bool Ok = Slim ? runChunkedStream<false>(Source, Layout, S, Pred, Obs)
                     : runChunkedStream<true>(Source, Layout, S, Pred, Obs);
      if (Ok)
        return finalize(S.Counters, Layout, Cpu);
      Pred.reset(); // discard the overflowed attempt
    }
    if (Source.numQuickens() == 0)
      return replayExactNoQuicken(Source, Layout, Cpu, Pred, Obs);
    sim::DispatchState S(Cpu.ICache);
    replayQuickeningStream(Source, Layout, *MutableProgram, S, Pred, Obs);
    return finalize(S.Counters, Layout, Cpu);
  }

  /// replayExactNoQuicken() over a TraceSource.
  template <class PredictorT, class ObserverT = sim::NullObserver>
  static PerfCounters replayExactNoQuicken(const TraceSource &Source,
                                           DispatchProgram &Layout,
                                           const CpuConfig &Cpu,
                                           PredictorT &Pred,
                                           const ObserverT &Obs = {}) {
    if (!Source.streaming())
      return replayExactNoQuicken(Source.trace(), Layout, Cpu, Pred, Obs);
    sim::DispatchState S(Cpu.ICache);
    const bool Slim = isSlimLayout(Layout);
    TraceSource::Cursor Cur = Source.cursor(StreamChunkEvents);
    std::vector<DispatchTrace::Event> Raw;
    EventSpan Span;
    while (Cur.nextInto(Raw, Span)) {
      if (Slim)
        stepSpan<false>(Span, Layout, S, Pred, Obs);
      else
        stepSpan<true>(Span, Layout, S, Pred, Obs);
    }
    return finalize(S.Counters, Layout, Cpu);
  }

  /// replayPredictorOnly() over a TraceSource.
  template <class PredictorT>
  static PerfCounters replayPredictorOnly(const TraceSource &Source,
                                          DispatchProgram &Layout,
                                          const CpuConfig &Cpu,
                                          PredictorT &Pred,
                                          const PerfCounters &FetchBaseline) {
    if (!Source.streaming())
      return replayPredictorOnly(Source.trace(), Layout, Cpu, Pred,
                                 FetchBaseline);
    assert(Source.numQuickens() == 0 &&
           "predictor-only replay needs a quicken-free trace");
    sim::DispatchStateT<sim::NullICache> S(Cpu.ICache);
    sim::NullObserver Obs;
    const bool Slim = isSlimLayout(Layout);
    TraceSource::Cursor Cur = Source.cursor(StreamChunkEvents);
    std::vector<DispatchTrace::Event> Raw;
    EventSpan Span;
    while (Cur.nextInto(Raw, Span)) {
      if (Slim)
        stepSpan<false>(Span, Layout, S, Pred, Obs);
      else
        stepSpan<true>(Span, Layout, S, Pred, Obs);
    }
    S.Counters.ICacheMisses = FetchBaseline.ICacheMisses;
    return finalize(S.Counters, Layout, Cpu);
  }

  /// Detects an overflowed() probe on optimistic model types; exact
  /// models (and NullICache) report false. Shared with GangReplayer.
  template <class T, class = void> struct HasOverflowed : std::false_type {};
  template <class T>
  struct HasOverflowed<
      T, std::void_t<decltype(std::declval<const T &>().overflowed())>>
      : std::true_type {};
  template <class T> static bool overflowed(const T &Model) {
    if constexpr (HasOverflowed<T>::value)
      return Model.overflowed();
    else
      return (void)Model, false;
  }

private:
  /// Streaming tile size: matches runChunked's strip-mining AND the trace
  /// frame granularity, so the optimistic tier probes overflow at the
  /// same boundaries on both paths and each tile read decodes exactly
  /// one frame.
  static constexpr size_t StreamChunkEvents = size_t{1} << 16;

  /// Runs sim::step over every event of \p Span.
  template <bool Full, class StateT, class PredictorT, class ObserverT>
  static void stepSpan(const EventSpan &Span, DispatchProgram &Layout,
                       StateT &S, PredictorT &Pred, const ObserverT &Obs) {
    for (size_t I = 0, N = Span.size(); I < N; ++I)
      sim::step<Full>(Layout, S, Pred, Obs, DispatchTrace::cur(Span.Data[I]),
                      DispatchTrace::next(Span.Data[I]));
  }

  /// runChunked() over a streaming source: identical overflow-probe
  /// boundaries (64K events), one decode buffer of working memory.
  template <bool Full, class StateT, class PredictorT, class ObserverT>
  static bool runChunkedStream(const TraceSource &Source,
                               DispatchProgram &Layout, StateT &S,
                               PredictorT &Pred, const ObserverT &Obs) {
    TraceSource::Cursor Cur = Source.cursor(StreamChunkEvents);
    std::vector<DispatchTrace::Event> Raw;
    EventSpan Span;
    while (Cur.nextInto(Raw, Span)) {
      stepSpan<Full>(Span, Layout, S, Pred, Obs);
      if (overflowed(S.ICache) || overflowed(Pred))
        return false;
    }
    return true;
  }

  /// replayQuickening() over a streaming source: quickens are resident
  /// (TraceSource materializes them at open), only events stream.
  template <class PredictorT, class ObserverT>
  static void replayQuickeningStream(const TraceSource &Source,
                                     DispatchProgram &Layout,
                                     VMProgram &MutableProgram,
                                     sim::DispatchState &S, PredictorT &Pred,
                                     const ObserverT &Obs) {
    const std::vector<DispatchTrace::QuickenRecord> &Quickens =
        Source.quickens();
    size_t QIdx = 0;
    uint64_t Done = 0;
    TraceSource::Cursor Cur = Source.cursor(StreamChunkEvents);
    std::vector<DispatchTrace::Event> Raw;
    EventSpan Span;
    while (Cur.nextInto(Raw, Span)) {
      for (size_t I = 0, N = Span.size(); I < N; ++I) {
        DispatchTrace::Event E = Span.Data[I];
        sim::step(Layout, S, Pred, Obs, DispatchTrace::cur(E),
                  DispatchTrace::next(E));
        ++Done;
        while (QIdx < Quickens.size() &&
               Quickens[QIdx].AfterEvents == Done) {
          const DispatchTrace::QuickenRecord &Q = Quickens[QIdx];
          MutableProgram.Code[Q.Index] = Q.NewInstr;
          Layout.onQuicken(Q.Index);
          ++QIdx;
        }
      }
    }
    assert(QIdx == Quickens.size() && "unconsumed quicken records");
  }

  /// Quicken-free replay over an optimistic state; strip-mined so a
  /// cache or predictor overflow aborts within one 64K-event chunk
  /// instead of wasting the whole trace. \returns false if either
  /// model overflowed (discard the run).
  template <bool Full, class StateT, class PredictorT, class ObserverT>
  static bool runChunked(const DispatchTrace &Trace, DispatchProgram &Layout,
                         StateT &S, PredictorT &Pred, const ObserverT &Obs) {
    constexpr size_t ChunkEvents = 1u << 16;
    const std::vector<DispatchTrace::Event> &Events = Trace.events();
    for (size_t Begin = 0; Begin < Events.size(); Begin += ChunkEvents) {
      size_t End = Begin + ChunkEvents < Events.size()
                       ? Begin + ChunkEvents
                       : Events.size();
      for (size_t I = Begin; I < End; ++I)
        sim::step<Full>(Layout, S, Pred, Obs, DispatchTrace::cur(Events[I]),
                        DispatchTrace::next(Events[I]));
      if (overflowed(S.ICache) || overflowed(Pred))
        return false;
    }
    return true;
  }

  template <class PredictorT, class ObserverT>
  static void replayQuickening(const DispatchTrace &Trace,
                               DispatchProgram &Layout,
                               VMProgram &MutableProgram,
                               sim::DispatchState &S, PredictorT &Pred,
                               const ObserverT &Obs) {
    const std::vector<DispatchTrace::QuickenRecord> &Quickens =
        Trace.quickens();
    size_t QIdx = 0;
    uint64_t Done = 0;
    for (DispatchTrace::Event E : Trace.events()) {
      sim::step(Layout, S, Pred, Obs, DispatchTrace::cur(E),
                DispatchTrace::next(E));
      ++Done;
      // Engine order: the quickable routine runs once (the step just
      // replayed), then rewrites itself and patches the layout.
      while (QIdx < Quickens.size() && Quickens[QIdx].AfterEvents == Done) {
        const DispatchTrace::QuickenRecord &Q = Quickens[QIdx];
        MutableProgram.Code[Q.Index] = Q.NewInstr;
        Layout.onQuicken(Q.Index);
        ++QIdx;
      }
    }
    assert(QIdx == Quickens.size() && "unconsumed quicken records");
  }
};

} // namespace vmib

#endif // VMIB_VMCORE_TRACEREPLAYER_H
