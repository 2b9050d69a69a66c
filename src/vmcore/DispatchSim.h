//===- vmcore/DispatchSim.h - Dispatch event simulator ----------*- C++ -*-===//
///
/// \file
/// Consumes the execution of a VM program over a DispatchProgram layout
/// and drives the branch predictor and instruction cache with exactly
/// the events real hardware would see: one fetch per executed piece and
/// one indirect-branch (site -> target) pair per dispatch. Fills a
/// PerfCounters with the metrics of §7.3.
///
/// The accounting itself lives in the sim::step kernel, templated over
/// the predictor and observer types. DispatchSim instantiates it with
/// the type-erased IndirectBranchPredictor for interpretation-driven
/// runs — the direct path, which the tests use as the oracle for
/// replay; GangReplayer instantiates it with concrete predictor types
/// so predict()/update() inline into the replay loop. Both finish
/// through sim::finalize.
///
//===----------------------------------------------------------------------===//

#ifndef VMIB_VMCORE_DISPATCHSIM_H
#define VMIB_VMCORE_DISPATCHSIM_H

#include "uarch/BTB.h"
#include "uarch/CpuModel.h"
#include "uarch/InstructionCache.h"
#include "vmcore/DispatchProgram.h"

#include <memory>
#include <type_traits>

namespace vmib {

/// Per-dispatch trace record (used by the Tables I-IV benches).
struct TraceEvent {
  uint32_t Cur = 0;
  uint32_t Next = 0;
  Addr Site = 0;
  Addr Predicted = 0;
  Addr Target = 0;
  bool Dispatched = false;
  bool Mispredicted = false;
};

/// Non-allocating per-step observer: attach with
/// DispatchSim::setObserver. Replaces the former std::function hook so
/// the no-trace hot path costs a single pointer test.
class TraceObserver {
public:
  virtual ~TraceObserver() = default;
  virtual void onEvent(const TraceEvent &Event) = 0;
};

/// Adapts a callable (usually a lambda) to a TraceObserver.
template <class Fn> class CallbackObserver final : public TraceObserver {
public:
  explicit CallbackObserver(Fn F) : F(std::move(F)) {}
  void onEvent(const TraceEvent &Event) override { F(Event); }

private:
  Fn F;
};

namespace sim {

/// Next-index sentinel passed for the final (halting) instruction.
inline constexpr uint32_t HaltNext = 0xffffffffu;

/// The mutable microarchitectural state one simulated run accumulates:
/// I-cache contents, counters, and the Fig. 6 side-entry fallback
/// region. Shared by DispatchSim and the replay kernels so both paths
/// produce bit-identical counters by construction. \p ICacheT selects
/// the cache model: the exact LRU InstructionCache (default), the
/// optimistic NoEvictICache replay fast path, or NullICache for
/// predictor-only replays.
template <class ICacheT = InstructionCache> struct DispatchStateT {
  ICacheT ICache;
  PerfCounters Counters;
  /// Side-entry fallback state (w/static super across; §7.1 Fig. 6).
  bool InFallback = false;
  uint32_t FallbackUntil = 0;

  explicit DispatchStateT(const ICacheConfig &Config) : ICache(Config) {}
};

using DispatchState = DispatchStateT<>;

/// I-cache model that fetches nothing: for predictor-only replays that
/// take the (predictor-independent) fetch counters from a previous
/// replay of the same (trace, layout, CPU).
struct NullICache {
  explicit NullICache(const ICacheConfig &) {}
  uint32_t access(uint64_t, uint32_t) { return 0; }
};

/// Observer that observes nothing; active() folds to a constant so the
/// kernel never materializes TraceEvents.
struct NullObserver {
  constexpr bool active() const { return false; }
  void operator()(const TraceEvent &) const {}
};

/// Runtime-optional adapter over a TraceObserver pointer (the
/// DispatchSim path: one branch per step when unset).
struct ObserverRef {
  TraceObserver *Observer = nullptr;
  bool active() const { return Observer != nullptr; }
  void operator()(const TraceEvent &Event) const { Observer->onEvent(Event); }
};

/// Detects a fused predictAndUpdate(Site, Target, Hint) on concrete
/// predictor types (e.g. BTB): one table walk instead of two. The
/// type-erased IndirectBranchPredictor interface never matches.
template <class PredictorT, class = void>
struct HasFusedPredictUpdate : std::false_type {};
template <class PredictorT>
struct HasFusedPredictUpdate<
    PredictorT, std::void_t<decltype(std::declval<PredictorT &>()
                                         .predictAndUpdate(Addr{}, Addr{},
                                                           uint64_t{}))>>
    : std::true_type {};

/// Accounts for the execution of instruction \p Cur with control
/// proceeding to \p Next (HaltNext if the VM stops there) under layout
/// \p Prog: fetches, the dispatch indirect branch, prediction and
/// side-entry fallback tracking. \p S is a DispatchStateT over any
/// I-cache model; \p Pred needs predictAndUpdate(Site, Target, Hint) or
/// predict(Site, Hint) + update(Site, Target, Hint) unless its
/// PredictorPolicy short-circuits them; \p Obs needs active() and
/// operator()(const TraceEvent &).
///
/// \tparam Full compile out the Fig. 6 side-entry fallback tracking and
/// the pre-quickening cold-stub accounting. Instantiating with
/// Full = false is exact for layouts where no piece has a fallback
/// region or a cold stub (gang::isSlimLayout checks); both code paths are
/// no-ops there.
template <bool Full = true, class StateT, class PredictorT, class ObserverT>
inline void step(DispatchProgram &Prog, StateT &S, PredictorT &Pred,
                 const ObserverT &Obs, uint32_t Cur, uint32_t Next) {
  using Policy = PredictorPolicy<PredictorT>;

  bool CurFallback = Full && S.InFallback && Cur < S.FallbackUntil;
  const Piece &P = CurFallback ? Prog.fallback(Cur) : Prog.piece(Cur);

  ++S.Counters.VMInstructions;
  S.Counters.Instructions += P.WorkInstrs;
  if (P.CodeBytes != 0)
    S.Counters.ICacheMisses += S.ICache.access(P.EntryAddr, P.CodeBytes);
  if (P.ExtraFetchBytes != 0)
    S.Counters.ICacheMisses +=
        S.ICache.access(P.ExtraFetchAddr, P.ExtraFetchBytes);
  if (Full && P.ColdStubBranch) {
    // The in-gap dispatch stub of a not-yet-quickened instruction: one
    // extra indirect branch, cold (executed a handful of times before
    // the gap is patched).
    ++S.Counters.IndirectBranches;
    ++S.Counters.Mispredictions;
  }

  bool Taken = Next != Cur + 1;
  bool Dispatches = false;
  switch (P.Kind) {
  case DispatchKind::Always:
    Dispatches = Next != HaltNext;
    break;
  case DispatchKind::TakenOnly:
    Dispatches = Taken && Next != HaltNext;
    break;
  case DispatchKind::None:
    Dispatches = false;
    break;
  }

  if (!Dispatches) {
    if (Next == HaltNext)
      return;
    // Falling through: fallback mode persists only inside its region.
    if constexpr (Full)
      S.InFallback = CurFallback && Next < S.FallbackUntil;
    if (Obs.active())
      Obs({Cur, Next, 0, 0, 0, false, false});
    return;
  }

  S.Counters.Instructions += P.DispatchInstrs;
  ++S.Counters.DispatchCount;
  ++S.Counters.IndirectBranches;

  // Determine the target: a dispatch landing in the interior of a
  // cross-block static superinstruction side-enters it, running the
  // non-replicated originals until the superinstruction ends (Fig. 6).
  const Piece &NextPiece = Prog.piece(Next);
  bool NextFallback = Full && NextPiece.FallbackEnd > Next;
  Addr Target =
      NextFallback ? Prog.fallback(Next).EntryAddr : NextPiece.EntryAddr;

  Addr Predicted;
  bool Mispredicted;
  if constexpr (Policy::AlwaysCorrect) {
    (void)Pred;
    Predicted = Target;
    Mispredicted = false;
  } else if constexpr (Policy::AlwaysMiss) {
    (void)Pred;
    Predicted = NoPrediction;
    Mispredicted = true;
  } else {
    uint64_t Hint = 0;
    if constexpr (Policy::UsesHint)
      Hint = Prog.hintFor(Next);
    if constexpr (HasFusedPredictUpdate<PredictorT>::value) {
      Predicted = Pred.predictAndUpdate(P.BranchSite, Target, Hint);
    } else {
      Predicted = Pred.predict(P.BranchSite, Hint);
      Pred.update(P.BranchSite, Target, Hint);
    }
    Mispredicted = Predicted != Target;
  }
  // Branchless: the outcome is data-dependent and unpredictable for the
  // host, and this add runs once per simulated dispatch.
  S.Counters.Mispredictions += static_cast<uint64_t>(Mispredicted);

  if constexpr (Full) {
    if (NextFallback)
      S.FallbackUntil = NextPiece.FallbackEnd;
    S.InFallback = NextFallback;
  }

  if (Obs.active())
    Obs({Cur, Next, P.BranchSite, Predicted, Target, true, Mispredicted});
}

/// Derives the cycle and code-size counters of a finished run of
/// \p Prog on \p Cpu: what DispatchSim::finish and every replay
/// member apply to their accumulated counters.
inline PerfCounters finalize(PerfCounters C, const DispatchProgram &Prog,
                             const CpuConfig &Cpu) {
  C.CodeBytes = Prog.generatedCodeBytes();
  finalizeCycles(Cpu, C);
  return C;
}

} // namespace sim

/// Simulates the microarchitectural cost of interpreting a program.
///
/// The VM engines call step(Cur, Next) once per executed VM instruction,
/// before control moves from instruction index Cur to Next, and finally
/// finish() to derive cycles.
class DispatchSim {
public:
  /// Next-index sentinel passed for the final (halting) instruction.
  static constexpr uint32_t HaltNext = sim::HaltNext;

  /// Compatibility alias; the record now lives at namespace scope.
  using TraceEvent = vmib::TraceEvent;

  /// Creates a simulator with \p Cpu's BTB and I-cache.
  DispatchSim(DispatchProgram &Prog, const CpuConfig &Cpu);

  /// Replaces the default BTB with another predictor (ablation bench).
  void setPredictor(std::unique_ptr<IndirectBranchPredictor> Predictor);

  /// Accounts for the execution of instruction \p Cur, with control
  /// proceeding to \p Next (HaltNext if the VM stops here).
  void step(uint32_t Cur, uint32_t Next) {
    sim::step(Prog, State, *Predictor, sim::ObserverRef{Observer}, Cur, Next);
  }

  /// Derives cycles and code-size counters; call once after the run.
  void finish();

  const PerfCounters &counters() const { return State.Counters; }
  DispatchProgram &program() { return Prog; }
  IndirectBranchPredictor &predictor() { return *Predictor; }

  /// Installs (or, with nullptr, removes) the per-step observer; keep
  /// unset on hot paths. The observer is borrowed, not owned.
  void setObserver(TraceObserver *O) { Observer = O; }

private:
  DispatchProgram &Prog;
  CpuConfig Cpu;
  std::unique_ptr<IndirectBranchPredictor> Predictor;
  sim::DispatchState State;
  TraceObserver *Observer = nullptr;
};

} // namespace vmib

#endif // VMIB_VMCORE_DISPATCHSIM_H
