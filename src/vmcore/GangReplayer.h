//===- vmcore/GangReplayer.h - Trace-chunk-major gang replay ----*- C++ -*-===//
///
/// \file
/// Executes a *gang* of replay configurations over one DispatchTrace in
/// a single chunk-tiled pass. The PR-1 sweep model was
/// configuration-major: every (variant x predictor x CPU) cell streamed
/// the whole multi-hundred-MB event buffer from DRAM independently, so
/// an N-configuration sweep read the trace N times and the replay
/// kernels were memory-bandwidth-bound. Ertl & Gregg's counters depend
/// only on the shared (Cur, Next) stream, so one pass can feed every
/// configuration: the gang advances a DispatchTrace::ChunkCursor and,
/// for each ~64K-event tile, runs every member over that tile before
/// moving on. Each trace byte then crosses the memory bus once per
/// tile instead of once per configuration, while every member still
/// observes the exact sequential event order — counters stay
/// bit-identical to per-config TraceReplayer calls (asserted by
/// tests/GangReplayTest.cpp).
///
/// Members carry the same tiered state the per-config replayer uses:
///
///  - addBtb()/addDefault(): optimistic NoEvictBTB + NoEvictICache
///    fast path. A member whose optimistic model overflows drops out
///    of the gang and is *deferred*: finish() re-runs just that member
///    through the exact-LRU TraceReplayer tier (overflows are the rare
///    case — tiny BTBs, replication blowing a small I-cache — so the
///    gang never pays LRU bookkeeping for the common case).
///  - addBtbPredictorOnly()/addPredictorOnly(): branch-stream-only
///    members (NullICache) that take the predictor-independent fetch
///    counters from an *earlier gang member's* finished result —
///    baselines resolve in member order at finish() time, so one gang
///    can carry a full replay and all its dependent predictor sweeps.
///  - addPredictor(): any concrete predictor type; predict()/update()
///    devirtualize into the tile loop exactly as in TraceReplayer.
///  - addQuickening(): JVM members own a fresh program copy + layout
///    and re-apply the recorded quicken rewrites at their exact event
///    positions (per-member record cursor), on the exact-LRU models.
///
/// Quicken-free members only *read* their DispatchProgram (sim::step
/// uses const accessors), so members of the same variant may share one
/// layout via shared_ptr — with the predictor state-size audit
/// (stateBytes()) this is what lets a 20+-member gang pack into cache
/// next to the tile.
///
/// run(Threads) with Threads > 1 replays the gang on a shared-tile
/// worker pool: the calling thread decodes tiles into a small ring and
/// Threads workers replay member work off the same decoded tile. The
/// decoder publishes a cost-weighted owner table with every tile, idle
/// workers steal whole members at tile boundaries, and the deferred
/// finish tail drains on the same pool. A member has exactly one owner
/// per tile and crosses tiles in stream order, so counters are
/// bit-identical for any thread count and any steal schedule
/// (tests/GangReplayTest.cpp pins the invariance).
///
//===----------------------------------------------------------------------===//

#ifndef VMIB_VMCORE_GANGREPLAYER_H
#define VMIB_VMCORE_GANGREPLAYER_H

#include "vmcore/TraceReplayer.h"
#include "vmcore/TraceSource.h"

#include <cassert>
#include <memory>
#include <utility>

namespace vmib {

namespace gang {

/// Replays one tile of events through the devirtualized kernel — the
/// tile-sized inner loop every gang member runs. The span may alias a
/// materialized trace arena or a streaming decode buffer; the kernel
/// only sees a contiguous (Cur, Next) window either way.
template <bool Full, class StateT, class PredictorT>
inline void runSpan(const EventSpan &Span, DispatchProgram &Layout,
                    StateT &S, PredictorT &Pred) {
  const DispatchTrace::Event *Events = Span.Data;
  sim::NullObserver Obs;
  for (size_t I = 0, N = Span.size(); I < N; ++I)
    sim::step<Full>(Layout, S, Pred, Obs, DispatchTrace::cur(Events[I]),
                    DispatchTrace::next(Events[I]));
}

/// runSpan dispatched on the slim-layout check, with the per-tile
/// overflow probe. \returns false if an optimistic model overflowed
/// (the member drops out of the gang).
///
/// The state and predictor are taken by value and moved back: gang
/// member state lives on the heap behind the member object, and a hot
/// loop storing counters through `this` cannot keep them in registers
/// (any u64 store into the model tables may alias them). Hoisting the
/// models into non-escaping stack locals for the duration of the tile
/// restores the per-config replayer's codegen — the moves are pointer
/// swaps, paid once per ~64K events. Without this the lean
/// predictor-only kernels run ~2.6x slower in a gang than per-config.
template <class StateT, class PredictorT>
inline bool runSpanChecked(const EventSpan &Span,
                           DispatchProgram &Layout, bool Slim, StateT &MemberS,
                           PredictorT &MemberPred) {
  StateT S = std::move(MemberS);
  PredictorT Pred = std::move(MemberPred);
  if (Slim)
    runSpan<false>(Span, Layout, S, Pred);
  else
    runSpan<true>(Span, Layout, S, Pred);
  bool Ok = !TraceReplayer::overflowed(S.ICache) &&
            !TraceReplayer::overflowed(Pred);
  MemberS = std::move(S);
  MemberPred = std::move(Pred);
  return Ok;
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
/// quickening tier, the deferred fallbacks) never consume it. Totals
/// and the overflow flag stay bit-identical; post-overflow state is
/// garbage in *both* models and is discarded by the exact fallback.
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

  /// Sizes the SoA arrays for \p ChunkCapacity events over a layout of
  /// \p NumPieces pieces. The parallel tile ring owns one chunk per
  /// (slot, group); GroupDecoder's internal scratch uses the same
  /// sizing.
  void reserve(size_t ChunkCapacity, uint32_t NumPieces) {
    Branches.resize(ChunkCapacity); // one dispatch per event, max
    // First-touch fetches: at most two per piece over the whole run.
    Fetches.resize(2 * (size_t{NumPieces} + 1));
  }

  /// Dispatch branch records in exact event order; [0, NumBranches).
  /// The vector is sized to tile capacity once and never resized — the
  /// decoder writes through raw pointers (a push_back per event costs
  /// more than the rest of the decode).
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

/// Per-layout decoder: owns the SoA scratch (allocated once, reused
/// across tiles), the fallback state machine, and the first-touch
/// bitmaps — all pure functions of (layout, events), carried once per
/// group instead of once per member.
class GroupDecoder {
public:
  GroupDecoder(const DispatchProgram &Layout, size_t ChunkCapacity)
      : Layout(Layout), Capacity(ChunkCapacity),
        Slim(TraceReplayer::isSlimLayout(Layout)) {
    SeenPiece.assign(Layout.numPieces(), 0);
    if (Layout.hasFallbacks())
      SeenFallback.assign(Layout.numPieces(), 0);
  }

  const DecodedChunk &chunk() const { return D; }

  /// A DecodedChunk sized for this decoder's layout and tile capacity
  /// (external decodeInto storage — the parallel tile ring allocates
  /// one per slot).
  DecodedChunk makeChunk() const {
    DecodedChunk C;
    C.reserve(Capacity, Layout.numPieces());
    return C;
  }

  /// Decodes one tile of events into \p Out. The fallback state
  /// machine and the first-touch bitmaps live in the decoder, so calls
  /// MUST cover the event stream in strict tile order regardless of
  /// where the output lands (the single decoder thread of a parallel
  /// run preserves this).
  void decodeInto(const EventSpan &Span, DecodedChunk &Out) {
    if (Slim)
      decodeSpan<false>(Span, Out);
    else
      decodeSpan<true>(Span, Out);
  }

  void decode(const EventSpan &Span) {
    // The internal scratch exists only for the serial path; parallel
    // runs decode into ring slots, so allocate it lazily rather than
    // carrying dead tile-capacity buffers per group.
    if (!ScratchReady) {
      D.reserve(Capacity, Layout.numPieces());
      ScratchReady = true;
    }
    decodeInto(Span, D);
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
  size_t Capacity;
  bool Slim;
  bool ScratchReady = false;
  bool InFallback = false;
  uint32_t FallbackUntil = 0;
  /// First-touch bitmaps: a piece's fetch footprint is constant for
  /// the quicken-free layouts groups are built over, so it enters the
  /// fetch stream exactly once (normal and fallback executions of the
  /// same index fetch different pieces, hence two maps).
  std::vector<uint8_t> SeenPiece;
  std::vector<uint8_t> SeenFallback;
  DecodedChunk D;
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

} // namespace gang

/// One configuration riding a gang: replays tiles as the cursor hands
/// them out, then finalizes (running its deferred exact-LRU fallback if
/// its optimistic models overflowed mid-gang).
class GangMember {
public:
  virtual ~GangMember() = default;

  /// Replays one tile of events. \returns false if this member's
  /// optimistic models overflowed — it then drops out of the gang and
  /// finish() re-runs it through the exact tier.
  virtual bool runChunk(const EventSpan &Span) = 0;

  /// The layout this member can share a GroupDecoder over, or nullptr
  /// if it must decode fused (quickening members mutate their layout
  /// mid-stream). When two or more members report the same layout, the
  /// gang decodes each tile once for the group and drives
  /// runChunkDecoded() instead of runChunk().
  virtual const DispatchProgram *soaLayout() const { return nullptr; }

  /// Replays one decoded tile (same drop-out contract as runChunk).
  /// Only called when soaLayout() returned non-null.
  virtual bool runChunkDecoded(const gang::DecodedChunk &D) {
    (void)D;
    return true;
  }

  /// Completes the member: deferred exact fallback if it dropped out,
  /// fetch-baseline patching for predictor-only members, counter
  /// finalization. \p Finished holds the results of all *earlier*
  /// members (baseline references resolve in member order; a parallel
  /// finish pass passes a full-size vector and guarantees only that
  /// the finishDependency() entry is already populated). Deferred
  /// re-runs read the whole stream again through \p Source — under a
  /// streaming source each fallback opens its own cursor, so deferred
  /// finishes stay O(tile) and may run concurrently.
  virtual PerfCounters finish(const TraceSource &Source,
                              const std::vector<PerfCounters> &Finished) = 0;

  /// Sentinel for finishDependency(): no earlier-member input needed.
  static constexpr size_t NoFinishDependency = static_cast<size_t>(-1);

  /// Index of the earlier gang member whose *finished* counters this
  /// member's finish() reads (the fetch baseline of predictor-only
  /// members), or NoFinishDependency. The parallel finish pass orders
  /// and gates tasks on exactly this edge.
  virtual size_t finishDependency() const { return NoFinishDependency; }

  /// Mutable per-member state (predictor + I-cache model + counters),
  /// excluding the (possibly shared) layout — the number the gang
  /// packing audit sums.
  virtual uint64_t stateBytes() const = 0;
};

namespace gang {

/// Full replay under a BTB geometry: no-evict fast path, deferred
/// exact fallback. Idealised configs (Entries == 0) keep the exact BTB
/// and only run the I-cache optimistically, mirroring
/// TraceReplayer::replayBtb.
class BtbMember final : public GangMember {
public:
  BtbMember(std::shared_ptr<DispatchProgram> Layout, const CpuConfig &Cpu,
            const BTBConfig &Config)
      : Layout(std::move(Layout)), Cpu(Cpu), Config(Config),
        Slim(TraceReplayer::isSlimLayout(*this->Layout)), S(Cpu.ICache) {
    if (Config.Entries != 0)
      FastPred = std::make_unique<NoEvictBTB>(Config);
    else
      IdealPred = std::make_unique<BTB>(Config);
  }

  bool runChunk(const EventSpan &Span) override {
    bool Ok = FastPred
                  ? runSpanChecked(Span, *Layout, Slim, S, *FastPred)
                  : runSpanChecked(Span, *Layout, Slim, S, *IdealPred);
    if (!Ok)
      ICacheOverflowed = S.ICache.overflowed();
    return Ok;
  }

  const DispatchProgram *soaLayout() const override { return Layout.get(); }

  bool runChunkDecoded(const DecodedChunk &D) override {
    bool Ok = FastPred ? consumeDecoded(D, *FastPred)
                       : consumeDecoded(D, *IdealPred);
    if (!Ok)
      ICacheOverflowed = S.ICache.overflowed();
    return Ok;
  }

  PerfCounters finish(const TraceSource &Source,
                      const std::vector<PerfCounters> &) override {
    if (!Dropped())
      return TraceReplayer::finalize(S.Counters, *Layout, Cpu);
    // Deferred per-member fallback on a fresh exact BTB. When only the
    // no-evict BTB overflowed, the optimistic I-cache tier inside
    // replay() still applies; a proven I-cache overflow is
    // deterministic, so go straight to the exact-LRU models.
    BTB Exact(Config);
    if (ICacheOverflowed)
      return TraceReplayer::replayExactNoQuicken(Source, *Layout, Cpu, Exact);
    return TraceReplayer::replay(Source, *Layout, /*MutableProgram=*/nullptr,
                                 Cpu, Exact);
  }

  uint64_t stateBytes() const override {
    return sizeof(*this) + modelStateBytes(S.ICache) +
           (FastPred ? modelStateBytes(*FastPred)
                     : modelStateBytes(*IdealPred));
  }

private:
  bool Dropped() const {
    return ICacheOverflowed ||
           (FastPred && FastPred->overflowed());
  }

  template <class PredictorT>
  bool consumeDecoded(const DecodedChunk &D, PredictorT &MemberPred) {
    // Stack-hoist the models (see runSpanChecked); the decoded fetch
    // and branch streams are independent state machines, so each runs
    // as its own tight loop.
    NoEvictICache ICache = std::move(S.ICache);
    PredictorT Pred = std::move(MemberPred);
    uint64_t FetchMisses = runDecodedFetches(D, ICache);
    uint64_t BranchMisses = runDecodedBranches(D, Pred);
    bool Ok = !ICache.overflowed() && !TraceReplayer::overflowed(Pred);
    S.ICache = std::move(ICache);
    MemberPred = std::move(Pred);
    S.Counters.ICacheMisses += FetchMisses;
    addDecodedAggregates(D, S.Counters, BranchMisses);
    return Ok;
  }

  std::shared_ptr<DispatchProgram> Layout;
  CpuConfig Cpu;
  BTBConfig Config;
  bool Slim;
  sim::DispatchStateT<NoEvictICache> S;
  std::unique_ptr<NoEvictBTB> FastPred; // Entries != 0
  std::unique_ptr<BTB> IdealPred;       // Entries == 0
  bool ICacheOverflowed = false;
};

/// Branch-stream-only replay of a BTB geometry (capacity sweeps):
/// fetch counters come from an earlier member's finished result.
class BtbPredictorOnlyMember final : public GangMember {
public:
  BtbPredictorOnlyMember(std::shared_ptr<DispatchProgram> Layout,
                         const CpuConfig &Cpu, const BTBConfig &Config,
                         size_t FetchBaseline)
      : Layout(std::move(Layout)), Cpu(Cpu), Config(Config),
        FetchBaseline(FetchBaseline),
        Slim(TraceReplayer::isSlimLayout(*this->Layout)), S(Cpu.ICache) {
    if (Config.Entries != 0)
      FastPred = std::make_unique<NoEvictBTB>(Config);
    else
      IdealPred = std::make_unique<BTB>(Config);
  }

  bool runChunk(const EventSpan &Span) override {
    if (FastPred) {
      bool Ok = runSpanChecked(Span, *Layout, Slim, S, *FastPred);
      Overflowed |= !Ok;
      return Ok;
    }
    return runSpanChecked(Span, *Layout, Slim, S, *IdealPred);
  }

  const DispatchProgram *soaLayout() const override { return Layout.get(); }

  bool runChunkDecoded(const DecodedChunk &D) override {
    // Branch stream only: the fetch counters come from the baseline.
    uint64_t BranchMisses;
    bool Ok = true;
    if (FastPred) {
      NoEvictBTB Pred = std::move(*FastPred);
      BranchMisses = runDecodedBranches(D, Pred);
      Ok = !Pred.overflowed();
      *FastPred = std::move(Pred);
      Overflowed |= !Ok;
    } else {
      BTB Pred = std::move(*IdealPred);
      BranchMisses = runDecodedBranches(D, Pred);
      *IdealPred = std::move(Pred);
    }
    addDecodedAggregates(D, S.Counters, BranchMisses);
    return Ok;
  }

  PerfCounters finish(const TraceSource &Source,
                      const std::vector<PerfCounters> &Finished) override {
    assert(FetchBaseline < Finished.size() &&
           "fetch baseline must be an earlier gang member");
    if (Overflowed) {
      BTB Exact(Config);
      return TraceReplayer::replayPredictorOnly(Source, *Layout, Cpu, Exact,
                                                Finished[FetchBaseline]);
    }
    S.Counters.ICacheMisses = Finished[FetchBaseline].ICacheMisses;
    return TraceReplayer::finalize(S.Counters, *Layout, Cpu);
  }

  size_t finishDependency() const override { return FetchBaseline; }

  uint64_t stateBytes() const override {
    return sizeof(*this) + (FastPred ? modelStateBytes(*FastPred)
                                     : modelStateBytes(*IdealPred));
  }

private:
  std::shared_ptr<DispatchProgram> Layout;
  CpuConfig Cpu;
  BTBConfig Config;
  size_t FetchBaseline;
  bool Slim;
  sim::DispatchStateT<sim::NullICache> S;
  std::unique_ptr<NoEvictBTB> FastPred;
  std::unique_ptr<BTB> IdealPred;
  bool Overflowed = false;
};

/// Full replay with an arbitrary concrete predictor type (two-level,
/// case-block, oracle/null baselines): the optimistic I-cache tier of
/// TraceReplayer::replay, chunk-major.
template <class PredictorT> class PredictorMember final : public GangMember {
public:
  PredictorMember(std::shared_ptr<DispatchProgram> Layout,
                  const CpuConfig &Cpu, PredictorT Pred)
      : Layout(std::move(Layout)), Cpu(Cpu), Pred(std::move(Pred)),
        Slim(TraceReplayer::isSlimLayout(*this->Layout)), S(Cpu.ICache) {}

  bool runChunk(const EventSpan &Span) override {
    bool Ok = runSpanChecked(Span, *Layout, Slim, S, Pred);
    Overflowed |= !Ok;
    return Ok;
  }

  const DispatchProgram *soaLayout() const override { return Layout.get(); }

  bool runChunkDecoded(const DecodedChunk &D) override {
    NoEvictICache ICache = std::move(S.ICache);
    PredictorT LocalPred = std::move(Pred);
    uint64_t FetchMisses = runDecodedFetches(D, ICache);
    uint64_t BranchMisses = runDecodedBranches(D, LocalPred);
    bool Ok = !ICache.overflowed() && !TraceReplayer::overflowed(LocalPred);
    S.ICache = std::move(ICache);
    Pred = std::move(LocalPred);
    S.Counters.ICacheMisses += FetchMisses;
    addDecodedAggregates(D, S.Counters, BranchMisses);
    Overflowed |= !Ok;
    return Ok;
  }

  PerfCounters finish(const TraceSource &Source,
                      const std::vector<PerfCounters> &) override {
    if (!Overflowed)
      return TraceReplayer::finalize(S.Counters, *Layout, Cpu);
    Pred.reset(); // discard the overflowed attempt, as replay() does
    return TraceReplayer::replayExactNoQuicken(Source, *Layout, Cpu, Pred);
  }

  uint64_t stateBytes() const override {
    return sizeof(*this) + modelStateBytes(S.ICache) +
           modelStateBytes(Pred);
  }

private:
  std::shared_ptr<DispatchProgram> Layout;
  CpuConfig Cpu;
  PredictorT Pred;
  bool Slim;
  sim::DispatchStateT<NoEvictICache> S;
  bool Overflowed = false;
};

/// Branch-stream-only replay with an arbitrary concrete predictor;
/// fetch counters from an earlier member (the predictor-sweep tier).
template <class PredictorT>
class PredictorOnlyMember final : public GangMember {
public:
  PredictorOnlyMember(std::shared_ptr<DispatchProgram> Layout,
                      const CpuConfig &Cpu, PredictorT Pred,
                      size_t FetchBaseline)
      : Layout(std::move(Layout)), Cpu(Cpu), Pred(std::move(Pred)),
        FetchBaseline(FetchBaseline),
        Slim(TraceReplayer::isSlimLayout(*this->Layout)), S(Cpu.ICache) {}

  bool runChunk(const EventSpan &Span) override {
    bool Ok = runSpanChecked(Span, *Layout, Slim, S, Pred);
    Overflowed |= !Ok;
    return Ok;
  }

  const DispatchProgram *soaLayout() const override { return Layout.get(); }

  bool runChunkDecoded(const DecodedChunk &D) override {
    PredictorT LocalPred = std::move(Pred);
    uint64_t BranchMisses = runDecodedBranches(D, LocalPred);
    bool Ok = !TraceReplayer::overflowed(LocalPred);
    Pred = std::move(LocalPred);
    addDecodedAggregates(D, S.Counters, BranchMisses);
    Overflowed |= !Ok;
    return Ok;
  }

  PerfCounters finish(const TraceSource &Source,
                      const std::vector<PerfCounters> &Finished) override {
    assert(FetchBaseline < Finished.size() &&
           "fetch baseline must be an earlier gang member");
    if (Overflowed) {
      Pred.reset();
      return TraceReplayer::replayPredictorOnly(Source, *Layout, Cpu, Pred,
                                                Finished[FetchBaseline]);
    }
    S.Counters.ICacheMisses = Finished[FetchBaseline].ICacheMisses;
    return TraceReplayer::finalize(S.Counters, *Layout, Cpu);
  }

  size_t finishDependency() const override { return FetchBaseline; }

  uint64_t stateBytes() const override {
    return sizeof(*this) + modelStateBytes(Pred);
  }

private:
  std::shared_ptr<DispatchProgram> Layout;
  CpuConfig Cpu;
  PredictorT Pred;
  size_t FetchBaseline;
  bool Slim;
  sim::DispatchStateT<sim::NullICache> S;
  bool Overflowed = false;
};

/// JVM member: owns a fresh program copy and the layout built over it,
/// re-applies the recorded quicken rewrites at their exact event
/// positions while replaying on the exact-LRU models (quickening
/// patches layout state, so the optimistic discard-and-retry tier can
/// never apply — same rule as TraceReplayer::replay).
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

  bool runChunk(const EventSpan &Span) override {
    const DispatchTrace::Event *Events = Span.Data;
    sim::NullObserver Obs;
    // Hoist the models into stack locals for the tile (see
    // runSpanChecked): heap member state cannot be registerized
    // across the event loop.
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
    return true; // exact models never overflow
  }

  PerfCounters finish(const TraceSource &Source,
                      const std::vector<PerfCounters> &) override {
    assert(QIdx == Source.numQuickens() && "unconsumed quicken records");
    (void)Source;
    return TraceReplayer::finalize(S.Counters, *Layout, Cpu);
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
/// to the corresponding per-config TraceReplayer calls.
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
  /// \p ChunkEvents sizes the tile; 0 uses
  /// DispatchTrace::defaultChunkEvents() (VMIB_GANG_CHUNK override).
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
    return adopt(std::make_unique<gang::BtbMember>(std::move(Layout), Cpu,
                                                   Config));
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
    return adopt(std::make_unique<gang::BtbPredictorOnlyMember>(
        std::move(Layout), Cpu, Config, FetchBaseline));
  }

  /// Full replay with a concrete predictor (moved into the member).
  template <class PredictorT>
  size_t addPredictor(std::shared_ptr<DispatchProgram> Layout,
                      const CpuConfig &Cpu, PredictorT Pred) {
    assert(Source.numQuickens() == 0 &&
           "quickening trace needs addQuickening members");
    return adopt(std::make_unique<gang::PredictorMember<PredictorT>>(
        std::move(Layout), Cpu, std::move(Pred)));
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
    return adopt(std::make_unique<gang::PredictorOnlyMember<PredictorT>>(
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
  /// who stole, and what the finish tail cost. Workers is empty for
  /// serial runs (no pool to account). The sweep layers aggregate this
  /// across gangs (merge) and sweep_driver --verify renders it as the
  /// `:loadbalance` timing line.
  struct Stats {
    struct Worker {
      /// Member-events this worker replayed (tile span summed per
      /// member execution, drop-outs included up to their drop tile).
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
    /// Members that dropped out and re-ran through the exact tier.
    uint64_t DeferredFinishes = 0;
    /// Wall clock of the completion pass (deferred fallbacks,
    /// baseline patching, finalization).
    double FinishSeconds = 0;
    /// Whether the finish pass drained on the worker pool.
    bool ParallelFinish = false;
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
      ParallelFinish |= O.ParallelFinish;
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
    for (const Slot &M : Members)
      Bytes += M.Member->stateBytes();
    return Bytes;
  }

  /// One chunk-tiled pass over the trace, then per-member completion
  /// (deferred exact fallbacks, baseline patching). \returns one
  /// finalized PerfCounters per member, in add order. The gang is
  /// spent afterwards; build a new one for another pass.
  ///
  /// \p Threads <= 1 is the serial pass, finishing members in add
  /// order. Threads > 1 runs the shared-tile worker pool: the calling
  /// thread decodes each tile once into a small ring and publishes a
  /// cost-weighted owner table with it (LPT over per-member replay cost
  /// measured on earlier tiles, or seeded by seedMemberCost); a worker
  /// first claims its planned members, then *steals* any member another
  /// worker has not claimed yet. Claims are per (member, tile) —
  /// exactly one owner per member per tile, serialized against the
  /// member's previous tile — so any steal schedule observes the serial
  /// event order. The finish tail (deferred exact-LRU fallbacks,
  /// baseline patching) then drains on the same pool as a
  /// dependency-ordered task list: baseline members before the
  /// predictor-only members that read their counters, deferred
  /// (expensive) re-runs first within a rank.
  ///
  /// Counters are bit-identical for every thread count. \p StatsOut,
  /// when non-null, receives the pool accounting of this run.
  std::vector<PerfCounters> run(unsigned Threads = 1,
                                Stats *StatsOut = nullptr);

private:
  size_t adopt(std::unique_ptr<GangMember> Member) {
    Members.push_back({std::move(Member), true});
    return Members.size() - 1;
  }

  struct Slot {
    std::unique_ptr<GangMember> Member;
    bool Active;
  };

  TraceSource Source;
  size_t ChunkEvents;
  std::vector<Slot> Members;
  std::vector<uint64_t> SeedCostNs;
  std::vector<uint64_t> FinalCostNs;
};

} // namespace vmib

#endif // VMIB_VMCORE_GANGREPLAYER_H
