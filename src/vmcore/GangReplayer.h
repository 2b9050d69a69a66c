//===- vmcore/GangReplayer.h - Trace-chunk-major gang replay ----*- C++ -*-===//
///
/// \file
/// Executes a *gang* of replay configurations over one DispatchTrace in
/// a single chunk-tiled pass. This is the one replay engine: every
/// sweep cell, and every per-config replay (a one-member gang), goes
/// through it. Ertl & Gregg's counters depend only on the shared
/// (Cur, Next) stream, so one pass can feed every configuration: the
/// gang advances a DispatchTrace::ChunkCursor and, for each ~64K-event
/// tile, runs every member over that tile before moving on. Each trace
/// byte then crosses the memory bus once per tile instead of once per
/// configuration, while every member still observes the exact
/// sequential event order — counters stay bit-identical to a direct
/// interpretation-driven DispatchSim run (asserted against Lab.run and
/// an exact-LRU step oracle by tests/GangReplayTest.cpp and
/// tests/ReplayTest.cpp).
///
/// Members run tiered state, fastest first:
///
///  - addBtb()/addDefault()/addPredictor(): full replay on the
///    optimistic models (NoEvictICache; NoEvictBTB for sized BTB
///    geometries), with predict()/update() of any concrete predictor
///    type devirtualized into the tile loop. A member whose optimistic
///    model overflows while crossing tile T *restarts in place*: fresh
///    state with each overflowed model swapped for its exact one,
///    caught up by replaying events [0, end of T) from the gang's
///    TraceSource, then on with tile T+1. Overflows are the rare case —
///    tiny BTBs, replication blowing a small I-cache — so the gang
///    never pays LRU bookkeeping for the common case, and they mostly
///    happen in the first tiles, where the catch-up is short.
///  - addBtbPredictorOnly()/addPredictorOnly(): branch-stream-only
///    members (NullICache) that take the predictor-independent fetch
///    counters from an *earlier gang member's* finished result —
///    members finish in add order, so one gang can carry a full replay
///    and all its dependent predictor sweeps.
///  - addQuickening(): JVM members own a fresh program copy + layout
///    and re-apply the recorded quicken rewrites at their exact event
///    positions (per-member record cursor), on the exact-LRU models.
///
/// Every quicken-free member consumes SoA-decoded tiles (GroupDecoder).
/// Such members only *read* their DispatchProgram, so members of the
/// same variant share one layout via shared_ptr and one decode per
/// tile; a member alone on its layout is a group of one, decoded by the
/// thread that replays it. With the predictor state-size audit
/// (stateBytes()) this is what lets a 20+-member gang pack into cache
/// next to the tile.
///
/// run(Threads) with Threads > 1 replays the gang on a shared-tile
/// worker pool: the calling thread decodes tiles (and the shared
/// groups' SoA streams) into a small ring and Threads workers replay
/// member work off the same decoded tile. The decoder publishes a
/// cost-weighted owner table with every tile and idle workers steal
/// whole members at tile boundaries. A member has exactly one owner
/// per tile and crosses tiles in stream order, so counters are
/// bit-identical for any thread count and any steal schedule
/// (tests/GangReplayTest.cpp pins the invariance).
///
//===----------------------------------------------------------------------===//

#ifndef VMIB_VMCORE_GANGREPLAYER_H
#define VMIB_VMCORE_GANGREPLAYER_H

#include "vmcore/DispatchSim.h"
#include "vmcore/TraceSource.h"

#include <cassert>
#include <memory>
#include <type_traits>
#include <utility>

namespace vmib {

namespace gang {

/// Whether the fallback/cold-stub kernel paths are provably no-ops for
/// \p Layout, making the slim (Full = false) sim::step exact.
inline bool isSlimLayout(const DispatchProgram &Layout) {
  if (Layout.hasFallbacks())
    return false;
  for (uint32_t I = 0, N = Layout.numPieces(); I < N; ++I)
    if (Layout.piece(I).ColdStubBranch)
      return false;
  return true;
}

/// Detects an overflowed() probe on optimistic model types; exact
/// models (and NullICache) report false.
template <class T, class = void> struct HasOverflowed : std::false_type {};
template <class T>
struct HasOverflowed<
    T, std::void_t<decltype(std::declval<const T &>().overflowed())>>
    : std::true_type {};
template <class T> inline bool overflowed(const T &Model) {
  if constexpr (HasOverflowed<T>::value)
    return Model.overflowed();
  else
    return (void)Model, false;
}

/// Replays one tile of events through the devirtualized kernel. The
/// span may alias a materialized trace arena or a streaming decode
/// buffer; the kernel only sees a contiguous (Cur, Next) window either
/// way.
template <bool Full, class StateT, class PredictorT>
inline void runSpan(const EventSpan &Span, DispatchProgram &Layout,
                    StateT &S, PredictorT &Pred) {
  const DispatchTrace::Event *Events = Span.Data;
  sim::NullObserver Obs;
  for (size_t I = 0, N = Span.size(); I < N; ++I)
    sim::step<Full>(Layout, S, Pred, Obs, DispatchTrace::cur(Events[I]),
                    DispatchTrace::next(Events[I]));
}

/// runSpan dispatched on the slim-layout check, over stack copies of
/// the member's models.
///
/// The state and predictor are moved into locals and back: gang member
/// state lives on the heap behind the member object, and a hot loop
/// storing counters through `this` cannot keep them in registers (any
/// u64 store into the model tables may alias them). Hoisting the
/// models into non-escaping stack locals for the duration of the tile
/// restores the codegen of a plain loop over local state — the moves
/// are pointer swaps, paid once per ~64K events. Without this the lean
/// predictor-only kernels run ~2.6x slower.
template <class StateT, class PredictorT>
inline void runFused(const EventSpan &Span, DispatchProgram &Layout,
                     bool Slim, StateT &MemberS, PredictorT &MemberPred) {
  StateT S = std::move(MemberS);
  PredictorT Pred = std::move(MemberPred);
  if (Slim)
    runSpan<false>(Span, Layout, S, Pred);
  else
    runSpan<true>(Span, Layout, S, Pred);
  MemberS = std::move(S);
  MemberPred = std::move(Pred);
}

/// The catch-up of a restarted member: replays events [0, \p End) of
/// \p Source through the fused kernel. It reads through its own cursor,
/// in 64K-event tiles (one trace frame each), so a streamed catch-up
/// holds one tile of events however deep into the trace the restart
/// happened, and never touches the gang's own cursor or tile ring.
template <class StateT, class PredictorT>
void replayPrefix(const TraceSource &Source, size_t End,
                  DispatchProgram &Layout, bool Slim, StateT &S,
                  PredictorT &Pred) {
  TraceSource::Cursor Cursor = Source.cursor(size_t{1} << 16);
  std::vector<DispatchTrace::Event> Raw;
  EventSpan Span;
  while (Span.End < End && Cursor.nextInto(Raw, Span)) {
    if (Span.End > End)
      Span.End = End;
    runFused(Span, Layout, Slim, S, Pred);
  }
}
/// One tile of the event stream decoded against a layout, stored as
/// structure-of-arrays: the per-event work that depends only on
/// (layout, event) — piece lookup, fallback state machine, fetch
/// addresses, dispatch targets and hints, and the counter sums — is
/// done ONCE per (layout, tile) and shared by every gang member on
/// that layout. Members then consume just the stream their tier
/// needs, so predictor-only members reduce to a pure
/// predict-and-update loop over the contiguous branch records.
///
/// The fetch stream is *first-touch-only*: a no-evict I-cache's total
/// misses equal the number of distinct lines ever touched, and a set
/// overflows exactly when its (Ways+1)-th distinct line arrives —
/// both order-independent — so repeat fetches of an already-seen
/// piece (which hit by construction and update no state) are elided
/// at decode time. This is what makes full members nearly as cheap as
/// predictor-only members inside a group. The stream is therefore
/// only valid for no-evict cache models; exact-LRU members (the
/// quickening tier, members restarted on the exact I-cache) never
/// consume it. Totals and the overflow flag stay bit-identical;
/// post-overflow state is garbage in *both* models and is discarded
/// by the restart.
///
/// All counter contributions are sums and the predictor sees the
/// identical (site, target, hint) sequence, so the decomposition is
/// bit-exact against the fused sim::step kernel (pinned by
/// tests/GangReplayTest.cpp).
struct DecodedChunk {
  /// Targets are simulated code addresses (bump-allocated, far below
  /// 2^48), so the decode-time hint packs into the top 16 bits.
  static constexpr unsigned TargetBits = 48;
  static constexpr uint64_t TargetMask = (uint64_t{1} << TargetBits) - 1;

  struct BranchRec {
    Addr Site;
    uint64_t TargetHint; ///< Target | (Hint << TargetBits)
  };
  struct FetchRec {
    Addr A;
    uint64_t Bytes;
  };

  /// Grows the SoA arrays to hold \p Events branch records and
  /// \p MaxFetches fetch records. Never shrinks, so one chunk (a
  /// worker's scratch) serves the decoders of different layouts.
  void reserve(size_t Events, size_t MaxFetches) {
    if (Branches.size() < Events)
      Branches.resize(Events);
    if (Fetches.size() < MaxFetches)
      Fetches.resize(MaxFetches);
  }

  /// Dispatch branch records in exact event order; [0, NumBranches).
  /// The vector grows to tile capacity once and is never resized per
  /// tile — the decoder writes through raw pointers (a push_back per
  /// event costs more than the rest of the decode).
  std::vector<BranchRec> Branches;
  size_t NumBranches = 0;
  /// First-touch fetch records; [0, NumFetches). Bounded by the
  /// layout's piece count, not the tile size.
  std::vector<FetchRec> Fetches;
  size_t NumFetches = 0;
  /// Predictor- and cache-independent counter sums over the tile.
  uint64_t VMInstructions = 0;
  uint64_t Instructions = 0;
  uint64_t DispatchCount = 0;
  uint64_t ColdStubBranches = 0;
};

/// Per-layout decoder: owns the fallback state machine and the
/// first-touch bitmaps — pure functions of (layout, events), carried
/// once per group instead of once per member. The decoded output lands
/// in caller-owned chunks (ring slots, per-thread scratch).
class GroupDecoder {
public:
  explicit GroupDecoder(const DispatchProgram &Layout)
      : Layout(Layout), Slim(isSlimLayout(Layout)) {
    SeenPiece.assign(Layout.numPieces(), 0);
    if (Layout.hasFallbacks())
      SeenFallback.assign(Layout.numPieces(), 0);
    // A piece enters the fetch stream once per first-touch map, with
    // at most two fetches (code and extra fetch).
    MaxFetches = 2 * (SeenPiece.size() + SeenFallback.size());
  }

  /// Grows \p Out to hold a tile of up to \p Events events decoded
  /// against this layout.
  void fit(DecodedChunk &Out, size_t Events) const {
    Out.reserve(Events, MaxFetches);
  }

  /// Decodes one tile of events into \p Out, growing it to fit. The
  /// fallback state machine and the first-touch bitmaps live in the
  /// decoder, so calls MUST cover the event stream in strict tile
  /// order regardless of where the output lands: one decoder thread
  /// decodes a shared group, and a group of one is decoded by its
  /// member's owner of the tile, whom the scheduler's per-member tile
  /// order already serializes.
  void decodeInto(const EventSpan &Span, DecodedChunk &Out) {
    fit(Out, Span.size());
    if (Slim)
      decodeSpan<false>(Span, Out);
    else
      decodeSpan<true>(Span, Out);
  }

private:
  /// Mirrors sim::step event for event, recording instead of
  /// simulating; any change here must stay in lockstep with the
  /// kernel (GangReplayTest pins the equivalence).
  template <bool Full>
  void decodeSpan(const EventSpan &Span, DecodedChunk &Out) {
    const DispatchTrace::Event *Events = Span.Data;
    DecodedChunk::BranchRec *Branches = Out.Branches.data();
    DecodedChunk::FetchRec *Fetches = Out.Fetches.data();
    size_t NB = 0, NF = 0;
    uint64_t Instructions = 0, DispatchCount = 0, ColdStubs = 0;
    bool Fallback = InFallback;
    uint32_t Until = FallbackUntil;

    for (size_t I = 0, N = Span.size(); I < N; ++I) {
      uint32_t Cur = DispatchTrace::cur(Events[I]);
      uint32_t Next = DispatchTrace::next(Events[I]);

      bool CurFallback = Full && Fallback && Cur < Until;
      const Piece &P = CurFallback ? Layout.fallback(Cur) : Layout.piece(Cur);

      Instructions += P.WorkInstrs;
      uint8_t &Seen = CurFallback ? SeenFallback[Cur] : SeenPiece[Cur];
      if (Seen == 0) {
        Seen = 1;
        if (P.CodeBytes != 0)
          Fetches[NF++] = {P.EntryAddr, P.CodeBytes};
        if (P.ExtraFetchBytes != 0)
          Fetches[NF++] = {P.ExtraFetchAddr, P.ExtraFetchBytes};
      }
      if (Full && P.ColdStubBranch)
        ++ColdStubs;

      bool Dispatches = false;
      switch (P.Kind) {
      case DispatchKind::Always:
        Dispatches = Next != sim::HaltNext;
        break;
      case DispatchKind::TakenOnly:
        Dispatches = Next != Cur + 1 && Next != sim::HaltNext;
        break;
      case DispatchKind::None:
        Dispatches = false;
        break;
      }

      if (!Dispatches) {
        if (Next == sim::HaltNext)
          continue;
        if constexpr (Full)
          Fallback = CurFallback && Next < Until;
        continue;
      }

      Instructions += P.DispatchInstrs;
      ++DispatchCount;

      const Piece &NextPiece = Layout.piece(Next);
      bool NextFallback = Full && NextPiece.FallbackEnd > Next;
      Addr Target = NextFallback ? Layout.fallback(Next).EntryAddr
                                 : NextPiece.EntryAddr;
      assert((Target >> DecodedChunk::TargetBits) == 0 &&
             "simulated address overflows the packed target field");
      Branches[NB++] = {P.BranchSite,
                        Target | (Layout.hintFor(Next)
                                  << DecodedChunk::TargetBits)};

      if constexpr (Full) {
        if (NextFallback)
          Until = NextPiece.FallbackEnd;
        Fallback = NextFallback;
      }
    }

    Out.NumBranches = NB;
    Out.NumFetches = NF;
    Out.VMInstructions = Span.size();
    Out.Instructions = Instructions;
    Out.DispatchCount = DispatchCount;
    Out.ColdStubBranches = ColdStubs;
    InFallback = Fallback;
    FallbackUntil = Until;
  }

  const DispatchProgram &Layout;
  bool Slim;
  size_t MaxFetches;
  bool InFallback = false;
  uint32_t FallbackUntil = 0;
  /// First-touch bitmaps: a piece's fetch footprint is constant for
  /// the quicken-free layouts groups are built over, so it enters the
  /// fetch stream exactly once (normal and fallback executions of the
  /// same index fetch different pieces, hence two maps).
  std::vector<uint8_t> SeenPiece;
  std::vector<uint8_t> SeenFallback;
};

/// Structural identity of everything the tile decoder reads from a
/// layout: the piece and fallback tables, the dispatch hints, and the
/// slim-layout property (all derived from those fields). Two layouts
/// with equal fingerprints produce bit-identical decoded streams, so
/// the gang groups members by fingerprint rather than pointer — the
/// decoded branch/fetch stream is CPU-independent, and members that
/// differ only in CPU I-cache geometry (the same variant built once
/// per CPU) share one GroupDecoder even when their layout objects are
/// distinct.
uint64_t decodeFingerprint(const DispatchProgram &Layout);

/// Runs the decoded (first-touch) fetch stream through a *no-evict*
/// I-cache model; \returns the misses.
template <class ICacheT>
inline uint64_t runDecodedFetches(const DecodedChunk &D, ICacheT &ICache) {
  uint64_t Misses = 0;
  for (size_t I = 0; I < D.NumFetches; ++I)
    Misses += ICache.access(D.Fetches[I].A,
                            static_cast<uint32_t>(D.Fetches[I].Bytes));
  return Misses;
}

/// Runs the decoded branch stream through a predictor; \returns the
/// mispredicted dispatches (excluding cold-stub branches).
template <class PredictorT>
inline uint64_t runDecodedBranches(const DecodedChunk &D, PredictorT &Pred) {
  using Policy = PredictorPolicy<PredictorT>;
  if constexpr (Policy::AlwaysCorrect) {
    (void)Pred;
    return 0;
  } else if constexpr (Policy::AlwaysMiss) {
    (void)Pred;
    return D.NumBranches;
  } else {
    const DecodedChunk::BranchRec *Branches = D.Branches.data();
    uint64_t Misses = 0;
    for (size_t I = 0, N = D.NumBranches; I < N; ++I) {
      Addr Target = Branches[I].TargetHint & DecodedChunk::TargetMask;
      uint64_t Hint = 0;
      if constexpr (Policy::UsesHint)
        Hint = Branches[I].TargetHint >> DecodedChunk::TargetBits;
      Addr Predicted;
      if constexpr (sim::HasFusedPredictUpdate<PredictorT>::value) {
        Predicted = Pred.predictAndUpdate(Branches[I].Site, Target, Hint);
      } else {
        Predicted = Pred.predict(Branches[I].Site, Hint);
        Pred.update(Branches[I].Site, Target, Hint);
      }
      Misses += static_cast<uint64_t>(Predicted != Target);
    }
    return Misses;
  }
}

/// Adds the decode-time counter sums plus this member's branch misses
/// (everything except ICacheMisses, which is model-specific).
inline void addDecodedAggregates(const DecodedChunk &D, PerfCounters &C,
                                 uint64_t BranchMisses) {
  C.VMInstructions += D.VMInstructions;
  C.Instructions += D.Instructions;
  C.DispatchCount += D.DispatchCount;
  C.IndirectBranches += D.DispatchCount + D.ColdStubBranches;
  C.Mispredictions += D.ColdStubBranches + BranchMisses;
}

/// Detects a stateBytes() audit hook on a model type; models without
/// one are accounted at sizeof (the stateless baselines).
template <class T, class = void> struct HasStateBytes : std::false_type {};
template <class T>
struct HasStateBytes<
    T, std::void_t<decltype(std::declval<const T &>().stateBytes())>>
    : std::true_type {};
template <class T> inline uint64_t modelStateBytes(const T &Model) {
  if constexpr (HasStateBytes<T>::value)
    return Model.stateBytes();
  else
    return sizeof(Model);
}

/// The exact model an optimistic predictor restarts on. Predictors
/// without an optimistic form never overflow and map to themselves.
template <class PredT> struct ExactModel {
  using Type = PredT;
};
template <> struct ExactModel<NoEvictBTB> {
  using Type = BTB;
  static BTB make(const NoEvictBTB &Fast) { return BTB(Fast.config()); }
};

} // namespace gang

/// One configuration riding a gang: replays tiles as the gang hands
/// them out, then finalizes.
class GangMember {
public:
  virtual ~GangMember() = default;

  /// The layout this member's tiles decode against, or nullptr if the
  /// member only reads raw events (quickening members mutate their
  /// layout mid-stream). Members whose layouts decode identically
  /// share one GroupDecoder; a member alone on its layout is a group
  /// of one.
  virtual const DispatchProgram *soaLayout() const { return nullptr; }

  /// Whether the next tile must be decoded for this member: true from
  /// the start for soaLayout() members, false for good once the member
  /// restarted on the exact-LRU I-cache, which reads raw events.
  virtual bool decodes() const { return false; }

  /// Replays tile \p Span; \p D is that tile decoded against
  /// soaLayout() when decodes(), else null. A member whose optimistic
  /// model overflows while crossing the tile restarts in place on its
  /// exact tier and catches up on events [0, Span.End) from \p Source
  /// before returning.
  virtual void runTile(const EventSpan &Span, const gang::DecodedChunk *D,
                       const TraceSource &Source) = 0;

  /// Whether the member restarted on an exact tier during the pass.
  virtual bool restarted() const { return false; }

  /// Finalizes the counters. \p Finished holds the results of all
  /// *earlier* members (members finish in add order): predictor-only
  /// members take their fetch counters from their baseline's entry.
  virtual PerfCounters finish(const std::vector<PerfCounters> &Finished) = 0;

  /// Mutable per-member state (predictor + I-cache model + counters),
  /// excluding the (possibly shared) layout — the number the gang
  /// packing audit sums.
  virtual uint64_t stateBytes() const = 0;
};

namespace gang {

/// A quicken-free member: a full replay (\p Fetches: the fetch and
/// branch streams) or a predictor-only one (the branch stream; the
/// fetch counters come from an earlier member's finished result). It
/// starts on the optimistic models: NoEvictICache, and \p PredT itself
/// — NoEvictBTB for sized BTB geometries; the exact BTB for idealised
/// ones and any predictor without an optimistic form.
///
/// An overflow while crossing a tile restarts the member in place:
/// each overflowed model is swapped for its exact one (ExactModel; the
/// exact-LRU InstructionCache for the I-cache), all state starts
/// fresh, and events [0, end of the tile) replay from the gang's
/// TraceSource through the fused kernel. Later tiles run the new
/// tiers: an exact BTB reads the decoded branch stream, while the
/// exact I-cache cannot use the first-touch fetch stream, so the
/// member steps the raw tile through sim::step and stops decoding.
/// Every tier computes what the exact-LRU sim::step over the whole
/// stream computes, so counters stay bit-identical to a direct run.
template <class PredT, bool Fetches>
class ReplayMember final : public GangMember {
  using ExactPredT = typename ExactModel<PredT>::Type;
  using FastStateT = sim::DispatchStateT<
      std::conditional_t<Fetches, NoEvictICache, sim::NullICache>>;
  static constexpr bool PredCanOverflow =
      HasOverflowed<PredT>::value;

public:
  /// \p FetchBaseline is the earlier member predictor-only members
  /// take their fetch counters from (ignored for full members).
  ReplayMember(std::shared_ptr<DispatchProgram> Layout, const CpuConfig &Cpu,
               PredT Pred, size_t FetchBaseline)
      : Layout(std::move(Layout)), Cpu(Cpu), FetchBaseline(FetchBaseline),
        Slim(isSlimLayout(*this->Layout)), S(Cpu.ICache),
        Pred(std::move(Pred)) {}

  const DispatchProgram *soaLayout() const override { return Layout.get(); }
  bool decodes() const override { return !ExactS; }
  bool restarted() const override { return Restarted; }

  void runTile(const EventSpan &Span, const DecodedChunk *D,
               const TraceSource &Source) override {
    withPredictor([&](auto &P) {
      if (ExactS)
        runFused(Span, *Layout, Slim, *ExactS, P);
      else
        consume(*D, P);
    });
    bool ICacheOverflowed = !ExactS && overflowed(S.ICache);
    bool PredOverflowed = !ExactPred && overflowed(Pred);
    if (ICacheOverflowed || PredOverflowed)
      restart(ICacheOverflowed, PredOverflowed, Source, Span.End);
  }

  PerfCounters finish(const std::vector<PerfCounters> &Finished) override {
    PerfCounters C = ExactS ? ExactS->Counters : S.Counters;
    if constexpr (!Fetches) {
      assert(FetchBaseline < Finished.size() &&
             "fetch baseline must be an earlier gang member");
      C.ICacheMisses = Finished[FetchBaseline].ICacheMisses;
    }
    (void)Finished;
    return sim::finalize(C, *Layout, Cpu);
  }

  uint64_t stateBytes() const override {
    uint64_t Bytes = sizeof(*this) + (ExactPred ? modelStateBytes(*ExactPred)
                                                : modelStateBytes(Pred));
    if constexpr (Fetches)
      Bytes += ExactS ? modelStateBytes(ExactS->ICache)
                      : modelStateBytes(S.ICache);
    return Bytes;
  }

private:
  /// Calls \p F on the predictor the member currently runs.
  template <class Fn> void withPredictor(Fn &&F) {
    if constexpr (PredCanOverflow)
      if (ExactPred)
        return F(*ExactPred);
    F(Pred);
  }

  /// One decoded tile on the optimistic I-cache. The fetch and branch
  /// streams are independent state machines, so each runs as its own
  /// tight loop over a stack-hoisted model (see runFused).
  template <class P> void consume(const DecodedChunk &D, P &MemberPred) {
    P LocalPred = std::move(MemberPred);
    uint64_t BranchMisses = runDecodedBranches(D, LocalPred);
    MemberPred = std::move(LocalPred);
    if constexpr (Fetches) {
      NoEvictICache ICache = std::move(S.ICache);
      S.Counters.ICacheMisses += runDecodedFetches(D, ICache);
      S.ICache = std::move(ICache);
    }
    addDecodedAggregates(D, S.Counters, BranchMisses);
  }

  /// Restarts on the exact tier of every overflowed model and catches
  /// up on events [0, \p End). The catch-up cannot overflow again: a
  /// model that stays optimistic already crossed those events without
  /// overflowing, and it sees the same streams again.
  void restart(bool ICacheOverflowed, bool PredOverflowed,
               const TraceSource &Source, size_t End) {
    Restarted = true;
    if constexpr (PredCanOverflow)
      if (PredOverflowed)
        ExactPred =
            std::make_unique<ExactPredT>(ExactModel<PredT>::make(Pred));
    if (ExactPred)
      ExactPred->reset();
    else
      Pred.reset();
    S = FastStateT(Cpu.ICache);
    if constexpr (Fetches)
      if (ICacheOverflowed || ExactS)
        ExactS = std::make_unique<sim::DispatchState>(Cpu.ICache);
    withPredictor([&](auto &P) {
      if (ExactS)
        replayPrefix(Source, End, *Layout, Slim, *ExactS, P);
      else
        replayPrefix(Source, End, *Layout, Slim, S, P);
    });
  }

  std::shared_ptr<DispatchProgram> Layout;
  CpuConfig Cpu;
  size_t FetchBaseline;
  bool Slim;
  FastStateT S;
  PredT Pred;
  /// The exact tiers, created by the first overflow of each model.
  std::unique_ptr<sim::DispatchState> ExactS;
  std::unique_ptr<ExactPredT> ExactPred;
  bool Restarted = false;
};

/// JVM member: owns a fresh program copy and the layout built over it,
/// re-applies the recorded quicken rewrites at their exact event
/// positions while replaying on the exact-LRU models (quickening
/// patches layout state, so no optimistic tier that may need a restart
/// can apply).
class QuickeningMember final : public GangMember {
public:
  /// \p Quickens is the trace's quicken record stream (borrowed; the
  /// owning GangReplayer's TraceSource keeps it alive for the run —
  /// streaming sources materialize the side-band records at open).
  QuickeningMember(std::shared_ptr<DispatchProgram> Layout,
                   std::shared_ptr<VMProgram> Program, const CpuConfig &Cpu,
                   const BTBConfig &Config,
                   const std::vector<DispatchTrace::QuickenRecord> &Quickens)
      : Layout(std::move(Layout)), Program(std::move(Program)), Cpu(Cpu),
        Pred(Config), S(Cpu.ICache), Quickens(Quickens) {
    assert(&this->Layout->program() == this->Program.get() &&
           "layout must be built over this member's program copy");
  }

  void runTile(const EventSpan &Span, const DecodedChunk *,
               const TraceSource &) override {
    const DispatchTrace::Event *Events = Span.Data;
    sim::NullObserver Obs;
    // Hoist the models into stack locals for the tile (see runFused):
    // heap member state cannot be registerized across the event loop.
    sim::DispatchState LocalS = std::move(S);
    BTB LocalPred = std::move(Pred);
    size_t LocalQIdx = QIdx;
    uint64_t LocalDone = Done;
    for (size_t I = 0, N = Span.size(); I < N; ++I) {
      sim::step(*Layout, LocalS, LocalPred, Obs,
                DispatchTrace::cur(Events[I]),
                DispatchTrace::next(Events[I]));
      ++LocalDone;
      // Engine order: the quickable routine runs once (the step just
      // replayed), then rewrites itself and patches the layout.
      while (LocalQIdx < Quickens.size() &&
             Quickens[LocalQIdx].AfterEvents == LocalDone) {
        const DispatchTrace::QuickenRecord &Q = Quickens[LocalQIdx];
        Program->Code[Q.Index] = Q.NewInstr;
        Layout->onQuicken(Q.Index);
        ++LocalQIdx;
      }
    }
    S = std::move(LocalS);
    Pred = std::move(LocalPred);
    QIdx = LocalQIdx;
    Done = LocalDone;
  }

  PerfCounters finish(const std::vector<PerfCounters> &) override {
    assert(QIdx == Quickens.size() && "unconsumed quicken records");
    return sim::finalize(S.Counters, *Layout, Cpu);
  }

  uint64_t stateBytes() const override {
    return sizeof(*this) + modelStateBytes(S.ICache) +
           modelStateBytes(Pred) + Program->Code.size() * sizeof(VMInstr);
  }

private:
  std::shared_ptr<DispatchProgram> Layout;
  std::shared_ptr<VMProgram> Program;
  CpuConfig Cpu;
  BTB Pred;
  sim::DispatchState S;
  const std::vector<DispatchTrace::QuickenRecord> &Quickens;
  size_t QIdx = 0;
  uint64_t Done = 0;
};

} // namespace gang

/// The gang replay engine: collect members, then run() makes one
/// chunk-tiled pass over the trace and returns one finalized
/// PerfCounters per member, in add order. Counters are bit-identical
/// to a direct DispatchSim run of each member's configuration; a
/// one-member gang is a per-config replay.
///
/// run(1) is strictly single-threaded — trace-affine sweep scheduling
/// hands one (trace, gang) pair to each SweepRunner worker, so workers
/// never contend on a trace and every byte a worker streams feeds all
/// of its configurations. run(Threads > 1) keeps the trace-affinity
/// but splits the gang's *members* across worker threads that share
/// each decoded tile (one decoder, many consumers — the NUMA-friendly
/// shape: the tile is decoded once per host, not once per process).
class GangReplayer {
public:
  /// \p Source is the replay input: a materialized DispatchTrace
  /// (implicitly converted; must outlive the gang) or a streaming
  /// TraceSource whose tiles are decoded on demand — the decoder
  /// thread then fills the tile ring straight from the trace file and
  /// working memory is O(tile x ring), independent of trace length.
  /// \p ChunkEvents sizes the tile (a spec's `chunk`); 0 uses
  /// DispatchTrace::defaultChunkEvents().
  explicit GangReplayer(TraceSource Source, size_t ChunkEvents = 0)
      : Source(std::move(Source)), ChunkEvents(ChunkEvents) {}

  /// Full replay with \p Cpu's default BTB (the common sweep cell).
  size_t addDefault(std::shared_ptr<DispatchProgram> Layout,
                    const CpuConfig &Cpu) {
    return addBtb(std::move(Layout), Cpu, Cpu.Btb);
  }

  /// Full replay under a custom BTB geometry. Quicken-free traces only
  /// (use addQuickening for JVM traces).
  size_t addBtb(std::shared_ptr<DispatchProgram> Layout, const CpuConfig &Cpu,
                const BTBConfig &Config) {
    assert(Source.numQuickens() == 0 &&
           "quickening trace needs addQuickening members");
    return adoptBtb</*Fetches=*/true>(std::move(Layout), Cpu, Config, 0);
  }

  /// Branch-stream-only BTB member; fetch counters from gang member
  /// \p FetchBaseline (must have been added earlier).
  size_t addBtbPredictorOnly(std::shared_ptr<DispatchProgram> Layout,
                             const CpuConfig &Cpu, const BTBConfig &Config,
                             size_t FetchBaseline) {
    assert(Source.numQuickens() == 0 &&
           "predictor-only members need a quicken-free trace");
    assert(FetchBaseline < Members.size() &&
           "fetch baseline must be an earlier gang member");
    return adoptBtb</*Fetches=*/false>(std::move(Layout), Cpu, Config,
                                       FetchBaseline);
  }

  /// Full replay with a concrete predictor (moved into the member).
  template <class PredictorT>
  size_t addPredictor(std::shared_ptr<DispatchProgram> Layout,
                      const CpuConfig &Cpu, PredictorT Pred) {
    assert(Source.numQuickens() == 0 &&
           "quickening trace needs addQuickening members");
    return adopt(std::make_unique<gang::ReplayMember<PredictorT, true>>(
        std::move(Layout), Cpu, std::move(Pred), 0));
  }

  /// Branch-stream-only member with a concrete predictor; fetch
  /// counters from gang member \p FetchBaseline.
  template <class PredictorT>
  size_t addPredictorOnly(std::shared_ptr<DispatchProgram> Layout,
                          const CpuConfig &Cpu, PredictorT Pred,
                          size_t FetchBaseline) {
    assert(Source.numQuickens() == 0 &&
           "predictor-only members need a quicken-free trace");
    assert(FetchBaseline < Members.size() &&
           "fetch baseline must be an earlier gang member");
    return adopt(std::make_unique<gang::ReplayMember<PredictorT, false>>(
        std::move(Layout), Cpu, std::move(Pred), FetchBaseline));
  }

  /// JVM member over a fresh program copy (layout must be built over
  /// exactly that copy) with \p Cpu's default BTB.
  size_t addQuickening(std::shared_ptr<DispatchProgram> Layout,
                       std::shared_ptr<VMProgram> Program,
                       const CpuConfig &Cpu) {
    return addQuickening(std::move(Layout), std::move(Program), Cpu,
                         Cpu.Btb);
  }

  /// JVM member with a custom BTB geometry.
  size_t addQuickening(std::shared_ptr<DispatchProgram> Layout,
                       std::shared_ptr<VMProgram> Program,
                       const CpuConfig &Cpu, const BTBConfig &Config) {
    return adopt(std::make_unique<gang::QuickeningMember>(
        std::move(Layout), std::move(Program), Cpu, Config,
        Source.quickens()));
  }

  size_t size() const { return Members.size(); }

  /// Seeds the pool scheduler's measured-cost EWMA for member
  /// \p Member (add order) with \p Ns nanoseconds per tile — typically
  /// a persisted cost from a previous run over the same trace
  /// (WorkloadCache::loadMemberCosts). A seeded gang plans its FIRST
  /// tile cost-weighted instead of round-robin. Costs steer the plan
  /// only, never the results; a wildly stale seed costs wall clock on
  /// early tiles until the EWMA converges. No-op for serial runs.
  void seedMemberCost(size_t Member, uint64_t Ns) {
    if (SeedCostNs.size() < Members.size())
      SeedCostNs.resize(Members.size(), 0);
    assert(Member < Members.size() && "seed for a member not added yet");
    SeedCostNs[Member] = Ns;
  }

  /// The per-member cost EWMAs as of the end of the last pooled run()
  /// (nanoseconds per tile, add order; 0 = never measured). Empty
  /// unless such a run happened — the executor persists these for the
  /// next process's seedMemberCost.
  const std::vector<uint64_t> &finalCosts() const { return FinalCostNs; }

  /// Pool accounting of one run(): who replayed how much, who waited,
  /// who stole, and how many members restarted. Workers is empty for
  /// serial runs (no pool to account). The sweep layers aggregate this
  /// across gangs (merge) and sweep_driver --verify renders it on its
  /// per-shape `:verify` timing lines.
  struct Stats {
    struct Worker {
      /// Member-events this worker replayed (tile span summed per
      /// member execution; a restart's catch-up is not counted).
      uint64_t EventsReplayed = 0;
      /// Tiles where the worker stalled waiting for the decoder to
      /// publish (decode-bound or arrived early).
      uint64_t TilesWaited = 0;
      /// Member executions taken outside the worker's cost-weighted
      /// plan slice (the steal count).
      uint64_t MembersStolen = 0;
      /// Wall time spent inside replay kernels (busy fraction =
      /// BusySeconds / replay wall clock).
      double BusySeconds = 0;
    };
    std::vector<Worker> Workers;
    /// Members × trace events: the work of this pass, serial or
    /// pooled (every member rides the whole trace once) — what the
    /// sweep [timing] line reports as replayed events.
    uint64_t MemberEvents = 0;
    /// Members whose optimistic model overflowed and that restarted on
    /// the exact tier (a member that restarted twice counts once). Kept
    /// under this name because perfbench/specbench.cpp reads it.
    uint64_t DeferredFinishes = 0;
    /// Wall clock of the completion pass (baseline patching and
    /// finalization, in add order).
    double FinishSeconds = 0;
    /// Whether this run decoded its tiles from the trace file
    /// (streaming TraceSource) rather than a materialized arena.
    bool StreamedDecode = false;
    /// Wall time the decoder spent acquiring event tiles from the
    /// source (streaming frame decode, or pointer arithmetic when
    /// materialized — effectively 0 there).
    double SourceReadSeconds = 0;
    /// Events the decoder pulled from the source this run.
    uint64_t SourceEvents = 0;
    /// High-water mark of the streaming tile-ring event buffers
    /// (bytes; 0 for materialized runs) — the number the O(tile)
    /// memory claim is audited by.
    uint64_t PeakTileRingBytes = 0;

    /// Accumulates \p O (worker rows summed index-wise) — how the
    /// sweep executor folds per-gang stats into a sweep-level view.
    void merge(const Stats &O) {
      if (Workers.size() < O.Workers.size())
        Workers.resize(O.Workers.size());
      for (size_t I = 0; I < O.Workers.size(); ++I) {
        Workers[I].EventsReplayed += O.Workers[I].EventsReplayed;
        Workers[I].TilesWaited += O.Workers[I].TilesWaited;
        Workers[I].MembersStolen += O.Workers[I].MembersStolen;
        Workers[I].BusySeconds += O.Workers[I].BusySeconds;
      }
      MemberEvents += O.MemberEvents;
      DeferredFinishes += O.DeferredFinishes;
      FinishSeconds += O.FinishSeconds;
      StreamedDecode |= O.StreamedDecode;
      SourceReadSeconds += O.SourceReadSeconds;
      SourceEvents += O.SourceEvents;
      if (O.PeakTileRingBytes > PeakTileRingBytes)
        PeakTileRingBytes = O.PeakTileRingBytes;
    }
  };

  /// Mutable gang state across all members (the packing audit): how
  /// much cache the gang competes for next to one trace tile.
  uint64_t stateBytes() const {
    uint64_t Bytes = 0;
    for (const std::unique_ptr<GangMember> &M : Members)
      Bytes += M->stateBytes();
    return Bytes;
  }

  /// One chunk-tiled pass over the trace (overflowing members restart
  /// in place), then per-member completion in add order (baseline
  /// patching, finalization). \returns one finalized PerfCounters per
  /// member, in add order. The gang is spent afterwards; build a new
  /// one for another pass.
  ///
  /// \p Threads <= 1 is the serial pass. Threads > 1 runs the
  /// shared-tile worker pool: the calling thread reads each tile into
  /// a small ring, decodes it once per shared group and publishes a
  /// cost-weighted owner table with it (LPT over per-member replay cost
  /// measured on earlier tiles, or seeded by seedMemberCost); a worker
  /// first claims its planned members, then *steals* any member another
  /// worker has not claimed yet, decoding a group of one into its own
  /// scratch. Claims are per (member, tile) — exactly one owner per
  /// member per tile, serialized against the member's previous tile —
  /// so any steal schedule observes the serial event order.
  ///
  /// Counters are bit-identical for every thread count. \p StatsOut,
  /// when non-null, receives the pool accounting of this run.
  std::vector<PerfCounters> run(unsigned Threads = 1,
                                Stats *StatsOut = nullptr);

private:
  size_t adopt(std::unique_ptr<GangMember> Member) {
    Members.push_back(std::move(Member));
    return Members.size() - 1;
  }

  /// Sized BTB geometries start on the no-evict model; idealised ones
  /// (Entries == 0) have none and run the exact BTB from the start.
  template <bool Fetches>
  size_t adoptBtb(std::shared_ptr<DispatchProgram> Layout,
                  const CpuConfig &Cpu, const BTBConfig &Config,
                  size_t FetchBaseline) {
    if (Config.Entries == 0)
      return adopt(std::make_unique<gang::ReplayMember<BTB, Fetches>>(
          std::move(Layout), Cpu, BTB(Config), FetchBaseline));
    return adopt(std::make_unique<gang::ReplayMember<NoEvictBTB, Fetches>>(
        std::move(Layout), Cpu, NoEvictBTB(Config), FetchBaseline));
  }

  TraceSource Source;
  size_t ChunkEvents;
  std::vector<std::unique_ptr<GangMember>> Members;
  std::vector<uint64_t> SeedCostNs;
  std::vector<uint64_t> FinalCostNs;
};

} // namespace vmib

#endif // VMIB_VMCORE_GANGREPLAYER_H
