//===- vmcore/GangReplayer.cpp --------------------------------------------===//

#include "vmcore/GangReplayer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <map>
#include <mutex>
#include <thread>

using namespace vmib;

uint64_t gang::decodeFingerprint(const DispatchProgram &Layout) {
  // FNV-1a over every field decodeSpan() reads, mixed field by field
  // (hashing raw structs would fold in padding bytes). Any layout
  // property the decoder starts consuming must be added here, or two
  // decode-distinct layouts could share a stream.
  uint64_t H = 0xcbf29ce484222325ULL;
  auto Mix = [&H](uint64_t V) {
    for (unsigned I = 0; I < 8; ++I) {
      H ^= (V >> (8 * I)) & 0xFF;
      H *= 0x100000001b3ULL;
    }
  };
  auto MixPiece = [&](const Piece &P) {
    Mix(P.EntryAddr);
    Mix(P.BranchSite);
    Mix(P.CodeBytes);
    Mix(P.WorkInstrs);
    Mix(P.DispatchInstrs);
    Mix(static_cast<uint64_t>(P.Kind));
    Mix(P.ExtraFetchAddr);
    Mix(P.ExtraFetchBytes);
    Mix(P.ColdStubBranch ? 1 : 0);
    Mix(P.FallbackEnd);
  };
  uint32_t N = Layout.numPieces();
  bool Fallbacks = Layout.hasFallbacks();
  Mix(N);
  Mix(Fallbacks ? 1 : 0);
  for (uint32_t I = 0; I < N; ++I) {
    MixPiece(Layout.piece(I));
    Mix(Layout.hintFor(I));
    if (Fallbacks)
      MixPiece(Layout.fallback(I));
  }
  return H;
}

namespace {

using Clock = std::chrono::steady_clock;

uint64_t elapsedNs(Clock::time_point Since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           Since)
          .count());
}

/// Members sharing one decoded stream: the members whose layouts carry
/// the same decode fingerprint. A shared group (two or more members)
/// amortizes one SoA decode per tile across its members, decoded by
/// the decoder thread; a group of one is decoded by whichever thread
/// replays its member, so its decode runs on the pool too.
struct Group {
  std::unique_ptr<gang::GroupDecoder> Decoder;
  std::vector<size_t> MemberIdx;
  bool shared() const { return MemberIdx.size() > 1; }
};

/// One slot of the parallel tile ring. The decoder publishes a tile by
/// storing its index into Seq (release) after filling Begin/End, the
/// shared groups' chunks and the owner plan; workers drain Pending (release)
/// — one decrement per member execution PLUS one sweep token per worker —
/// and the decoder refills the slot once Pending hits zero (acquire),
/// so chunk memory is never written while a worker reads it and a
/// claim ledger is never recycled under a worker that has not swept
/// the tile yet.
struct TileSlot {
  /// The tile's event window. Materialized sources alias the trace
  /// arena (Raw stays empty); streaming sources decode the tile into
  /// Raw and Span points at it — the slot owns the only copy of those
  /// events, so ring memory is O(tile x slots) regardless of trace
  /// length.
  EventSpan Span;
  std::vector<DispatchTrace::Event> Raw;
  std::vector<gang::DecodedChunk> Chunks; ///< one per shared group
  std::atomic<int64_t> Seq{-1};           ///< tile index this slot holds
  std::atomic<unsigned> Pending{0};       ///< drain count (see above)
  // The per-tile owner table. Order is the claim scan order (members by
  // descending measured cost), OwnerOf the cost-weighted plan, Claimed
  // the one-owner-per-member-per-tile ledger (exchange 0->1 wins the
  // member for this tile).
  std::vector<uint32_t> Order;
  std::vector<uint16_t> OwnerOf;
  std::unique_ptr<std::atomic<uint8_t>[]> Claimed;
};

} // namespace

std::vector<PerfCounters> GangReplayer::run(unsigned Threads,
                                            Stats *StatsOut) {
  // Scratch sizing: a tile never exceeds the trace, so clamp before
  // the decode buffers are sized (a huge spec `chunk` must degrade to
  // one whole-trace tile, not a multi-GB zeroed buffer).
  size_t ChunkCapacity =
      ChunkEvents == 0 ? DispatchTrace::defaultChunkEvents() : ChunkEvents;
  if (ChunkCapacity > Source.numEvents())
    ChunkCapacity = Source.numEvents();

  // Group the decoding members by decode fingerprint: a shared group
  // amortizes one SoA decode per tile across all of its members.
  // Pointer identity first (exact and cheap — the executor shares
  // layouts per variant already), then fingerprint merging, so members
  // that differ only in CPU geometry share a decoded stream even when
  // their layout objects were built independently. A member alone on
  // its layout still decodes: the decode pass elides its repeat
  // fetches, which beats probing the I-cache on every event.
  std::vector<Group> Groups;
  std::vector<int> GroupOf(Members.size(), -1);
  {
    std::map<const DispatchProgram *, std::vector<size_t>> ByLayout;
    for (size_t I = 0; I < Members.size(); ++I)
      if (const DispatchProgram *L = Members[I]->soaLayout())
        ByLayout[L].push_back(I);
    std::map<uint64_t, std::pair<const DispatchProgram *,
                                 std::vector<size_t>>> ByPrint;
    for (auto &[Layout, Idx] : ByLayout) {
      auto &Merged = ByPrint[gang::decodeFingerprint(*Layout)];
      if (Merged.first == nullptr)
        Merged.first = Layout; // representative: decode-identical
      Merged.second.insert(Merged.second.end(), Idx.begin(), Idx.end());
    }
    for (auto &[Print, Merged] : ByPrint) {
      (void)Print;
      std::vector<size_t> &Idx = Merged.second;
      std::sort(Idx.begin(), Idx.end()); // deterministic consume order
      for (size_t I : Idx)
        GroupOf[I] = static_cast<int>(Groups.size());
      Groups.push_back(
          {std::make_unique<gang::GroupDecoder>(*Merged.first),
           std::move(Idx)});
    }
  }

  const size_t M = Members.size();
  if (Threads > M)
    Threads = static_cast<unsigned>(M);

  Stats LocalStats;
  Stats &St = StatsOut ? *StatsOut : LocalStats;
  St = Stats();

  bool Pooled = Threads > 1 && Source.numEvents() != 0;
  St.MemberEvents = M * Source.numEvents();
  St.StreamedDecode = Source.streaming();
  // Source-read accounting costs two clock reads per tile: always pay
  // it when streaming (the decode-bandwidth number is the point of the
  // mode), otherwise only when the caller asked for stats.
  const bool TimedSource = Source.streaming() || StatsOut != nullptr;

  // Decoding-member count per group: once it reads zero, decoding for
  // the group stops. A member leaves the count only after it stopped
  // consuming (RunMemberTile), so the count never reads zero while a
  // consumer of a future tile remains.
  std::vector<std::atomic<unsigned>> GroupAlive(Groups.size());
  for (size_t G = 0; G < Groups.size(); ++G)
    GroupAlive[G].store(static_cast<unsigned>(Groups[G].MemberIdx.size()),
                        std::memory_order_relaxed);

  /// Advances member \p I over the tile in \p Span; \p C is the tile
  /// decoded for the member's group, or null when it reads raw events.
  /// An overflowing member restarts in place inside runTile(); once it
  /// runs the exact I-cache it stops decoding, and its group with it
  /// when it was the last decoding member.
  auto RunMemberTile = [&](size_t I, const gang::DecodedChunk *C,
                           const EventSpan &Span) {
    GangMember &Member = *Members[I];
    Member.runTile(Span, C, Source);
    if (C != nullptr && !Member.decodes())
      GroupAlive[GroupOf[I]].fetch_sub(1, std::memory_order_relaxed);
  };

  if (!Pooled) {
    // Serial chunk-major sweep: every member crosses the tile before
    // the cursor advances — raw-event members first, then each group
    // decodes once into the one scratch chunk and its members consume
    // the SoA streams while they are cache-hot. A streaming source
    // decodes each tile into Raw — the only resident event buffer —
    // before the members consume it.
    TraceSource::Cursor Cursor = Source.cursor(ChunkCapacity);
    std::vector<DispatchTrace::Event> Raw;
    gang::DecodedChunk Scratch;
    EventSpan Span;
    for (;;) {
      Clock::time_point T0;
      if (TimedSource)
        T0 = Clock::now();
      bool More = Cursor.nextInto(Raw, Span);
      if (TimedSource)
        St.SourceReadSeconds += static_cast<double>(elapsedNs(T0)) * 1e-9;
      if (!More)
        break;
      St.SourceEvents += Span.size();
      if (Source.streaming()) {
        uint64_t Bytes = Raw.capacity() * sizeof(DispatchTrace::Event);
        if (Bytes > St.PeakTileRingBytes)
          St.PeakTileRingBytes = Bytes;
      }
      // Raw-event members run first: a member that restarts onto the
      // exact I-cache in its group's pass below stops decoding, and
      // must not cross this tile a second time here.
      for (size_t I = 0; I < M; ++I)
        if (!Members[I]->decodes())
          RunMemberTile(I, nullptr, Span);
      for (size_t G = 0; G < Groups.size(); ++G) {
        if (GroupAlive[G].load(std::memory_order_relaxed) == 0)
          continue;
        Groups[G].Decoder->decodeInto(Span, Scratch);
        for (size_t I : Groups[G].MemberIdx)
          if (Members[I]->decodes())
            RunMemberTile(I, &Scratch, Span);
      }
    }
  } else {
    // Shared-tile worker pool: the calling thread decodes tiles into a
    // small ring; Threads workers replay members off the published
    // slots. A member has exactly one owner per tile and crosses tiles
    // in stream order, so every member sees exactly the serial event
    // sequence and counters are bit-identical for any thread count and
    // any steal schedule; the ring only bounds how far decode runs
    // ahead.
    size_t NumTiles =
        (Source.numEvents() + ChunkCapacity - 1) / ChunkCapacity;
    size_t Slots = std::min<size_t>(4, NumTiles);
    std::vector<TileSlot> Ring(Slots);
    for (TileSlot &S : Ring) {
      // Indexed by group; only shared groups' chunks are filled. They
      // are sized here, before the pool starts: growing them on the
      // decoder thread during the first tiles measured ~10% slower on
      // a 16-member, 4-group gang.
      S.Chunks.resize(Groups.size());
      for (size_t G = 0; G < Groups.size(); ++G)
        if (Groups[G].shared())
          Groups[G].Decoder->fit(S.Chunks[G], ChunkCapacity);
      S.Order.resize(M);
      S.OwnerOf.assign(M, 0);
      S.Claimed = std::make_unique<std::atomic<uint8_t>[]>(M);
      for (size_t I = 0; I < M; ++I)
        S.Claimed[I].store(0, std::memory_order_relaxed);
    }

    std::atomic<bool> Abort{false};
    std::exception_ptr FirstError;
    std::mutex ErrorMutex;
    auto Record = [&] {
      {
        std::lock_guard<std::mutex> Lock(ErrorMutex);
        if (!FirstError)
          FirstError = std::current_exception();
      }
      Abort.store(true, std::memory_order_relaxed);
    };

    const unsigned NumWorkers = Threads;
    St.Workers.assign(NumWorkers, Stats::Worker());
    // Per-worker decode scratch for groups of one: resident decode
    // buffers scale with the pool, not with the member count. Each
    // grows on its worker's first decode, so a worker that never
    // claims a group of one holds none.
    std::vector<gang::DecodedChunk> Scratch(NumWorkers);

    /// Replays member \p I over the published tile in \p S on worker
    /// \p W and accounts it — a group of one decodes into the worker's
    /// scratch first. \returns the measured nanoseconds (decode
    /// included) — the planner's cost sample.
    auto ReplayMemberTile = [&](size_t I, TileSlot &S, unsigned W,
                                Stats::Worker &WS) -> uint64_t {
      Clock::time_point T0 = Clock::now();
      const gang::DecodedChunk *C = nullptr;
      if (Members[I]->decodes()) {
        const Group &G = Groups[GroupOf[I]];
        if (G.shared()) {
          C = &S.Chunks[GroupOf[I]];
        } else {
          G.Decoder->decodeInto(S.Span, Scratch[W]);
          C = &Scratch[W];
        }
      }
      RunMemberTile(I, C, S.Span);
      uint64_t Ns = elapsedNs(T0);
      WS.BusySeconds += static_cast<double>(Ns) * 1e-9;
      WS.EventsReplayed += S.Span.size();
      return Ns;
    };

    /// Waits for slot \p S to carry tile \p T; \returns false on abort.
    auto AwaitTile = [&](TileSlot &S, size_t T, Stats::Worker &WS) {
      bool Waited = false;
      while (S.Seq.load(std::memory_order_acquire) <
             static_cast<int64_t>(T)) {
        if (Abort.load(std::memory_order_relaxed))
          return false;
        Waited = true;
        std::this_thread::yield();
      }
      if (Waited)
        ++WS.TilesWaited;
      return true;
    };

    // Per-member serialization and cost state of the scheduler.
    // DoneTile[I] counts the tiles member I completed: the claimant of
    // (I, T) spins until DoneTile[I] == T (acquire) and stores T+1
    // (release) afterwards — the happens-before edge that carries the
    // member's state between owners across tiles. CostNs[I] is a
    // relaxed EWMA of the member's per-tile replay cost; it only steers
    // the plan, never the results.
    auto DoneTile = std::make_unique<std::atomic<uint64_t>[]>(M);
    auto CostNs = std::make_unique<std::atomic<uint64_t>[]>(M);
    for (size_t I = 0; I < M; ++I) {
      DoneTile[I].store(0, std::memory_order_relaxed);
      // Seeded costs (persisted EWMAs of a previous run) make even tile
      // 0's plan cost-weighted; the EWMA update then absorbs them like
      // any other past sample.
      CostNs[I].store(I < SeedCostNs.size() ? SeedCostNs[I] : 0,
                      std::memory_order_relaxed);
    }

    auto Worker = [&](unsigned W) {
      Stats::Worker &WS = St.Workers[W];
      try {
        for (size_t T = 0; T < NumTiles; ++T) {
          TileSlot &S = Ring[T % Slots];
          if (!AwaitTile(S, T, WS))
            return;
          // Pass 0 claims the worker's cost-weighted plan slice; pass
          // 1 steals members other workers have not claimed yet AND
          // whose previous tile already completed (a stealer must not
          // park behind the hot member while ready work idles); pass 2
          // is the unconditional coverage sweep — it claims whatever
          // is left, waiting as needed. A single worker's pass-0 +
          // pass-2 sweeps cover every member, so by the time anyone
          // advances past tile T, all of tile T's members are claimed
          // by *someone* who will execute them — the progress argument
          // behind the DoneTile spins.
          for (int Pass = 0; Pass < 3; ++Pass) {
            for (size_t K = 0; K < M; ++K) {
              uint32_t I = S.Order[K];
              if ((S.OwnerOf[I] == W) != (Pass == 0))
                continue;
              if (Pass == 1 &&
                  DoneTile[I].load(std::memory_order_acquire) !=
                      static_cast<uint64_t>(T))
                continue; // not ready — leave it for a readier thief
              if (S.Claimed[I].exchange(1, std::memory_order_relaxed) != 0)
                continue;
              // One owner per member per tile: serialize against the
              // member's previous tile before touching its state.
              while (DoneTile[I].load(std::memory_order_acquire) != T) {
                if (Abort.load(std::memory_order_relaxed))
                  return;
                std::this_thread::yield();
              }
              uint64_t Ns = ReplayMemberTile(I, S, W, WS);
              uint64_t Prev = CostNs[I].load(std::memory_order_relaxed);
              CostNs[I].store(Prev == 0 ? Ns : (3 * Prev + Ns) / 4,
                              std::memory_order_relaxed);
              if (Pass != 0)
                ++WS.MembersStolen;
              DoneTile[I].store(T + 1, std::memory_order_release);
              S.Pending.fetch_sub(1, std::memory_order_release);
            }
          }
          // Sweep token: the slot also carries one Pending count per
          // WORKER, returned only after this worker's claim sweep of
          // the tile. Without it a worker that claimed nothing in tile
          // T would leave no trace, the decoder could recycle the slot
          // past it, and its late claim sweep would grab entries of
          // the ledger's NEXT tile while waiting for DoneTile == T —
          // a deadlock. With the token a slot never advances until
          // every worker has swept it, so AwaitTile always observes
          // exactly tile T.
          S.Pending.fetch_sub(1, std::memory_order_release);
        }
      } catch (...) {
        Record();
      }
    };

    // Cost-weighted plan for one tile: claim order is members by
    // descending measured cost, the owner table a greedy LPT
    // assignment onto the least-loaded worker. Tile 0 has no samples
    // yet (all costs zero), so the stable sort keeps add order and LPT
    // deals members round-robin; from tile 1 on the plan follows the
    // measured costs — the "cost-weighted initial slices from the
    // first tiles". Decoder-only state, published with the slot.
    std::vector<uint64_t> PlanLoad(NumWorkers);
    std::vector<uint64_t> CostSnap(M);
    auto PlanTile = [&](TileSlot &S) {
      // Snapshot the costs first: workers update the EWMAs while this
      // runs, and a comparator whose answers shift mid-sort violates
      // strict weak ordering.
      for (size_t I = 0; I < M; ++I) {
        CostSnap[I] = CostNs[I].load(std::memory_order_relaxed);
        S.Order[I] = static_cast<uint32_t>(I);
      }
      std::stable_sort(S.Order.begin(), S.Order.end(),
                       [&](uint32_t A, uint32_t B) {
                         return CostSnap[A] > CostSnap[B];
                       });
      std::fill(PlanLoad.begin(), PlanLoad.end(), 0);
      for (size_t K = 0; K < M; ++K) {
        uint32_t I = S.Order[K];
        unsigned Best = 0;
        for (unsigned W = 1; W < NumWorkers; ++W)
          if (PlanLoad[W] < PlanLoad[Best])
            Best = W;
        S.OwnerOf[I] = static_cast<uint16_t>(Best);
        PlanLoad[Best] += std::max<uint64_t>(CostSnap[I], 1);
      }
      for (size_t I = 0; I < M; ++I)
        S.Claimed[I].store(0, std::memory_order_relaxed);
    };

    std::vector<std::thread> Pool;
    Pool.reserve(NumWorkers);
    for (unsigned W = 0; W < NumWorkers; ++W)
      Pool.emplace_back(Worker, W);

    // Decoder loop (this thread): refill each ring slot once it
    // drained, decode the live shared groups, plan, publish. A slot drains
    // after M member executions plus one sweep token per worker (see
    // Worker).
    const unsigned PendingInit = static_cast<unsigned>(M) + NumWorkers;
    try {
      TraceSource::Cursor Cursor = Source.cursor(ChunkCapacity);
      for (size_t T = 0; T < NumTiles; ++T) {
        TileSlot &S = Ring[T % Slots];
        bool Bail = false;
        while (S.Pending.load(std::memory_order_acquire) != 0) {
          if (Abort.load(std::memory_order_relaxed)) {
            Bail = true;
            break;
          }
          std::this_thread::yield();
        }
        if (Bail)
          break;
        Clock::time_point T0;
        if (TimedSource)
          T0 = Clock::now();
        bool More = Cursor.nextInto(S.Raw, S.Span);
        if (TimedSource)
          St.SourceReadSeconds += static_cast<double>(elapsedNs(T0)) * 1e-9;
        assert(More && "cursor must yield exactly NumTiles tiles");
        (void)More;
        St.SourceEvents += S.Span.size();
        if (Source.streaming()) {
          // The whole resident event footprint is the ring's decode
          // buffers; only the decoder mutates them, so their
          // capacities are safe to read here.
          uint64_t RingBytes = 0;
          for (const TileSlot &RS : Ring)
            RingBytes += RS.Raw.capacity() * sizeof(DispatchTrace::Event);
          if (RingBytes > St.PeakTileRingBytes)
            St.PeakTileRingBytes = RingBytes;
        }
        for (size_t G = 0; G < Groups.size(); ++G)
          if (Groups[G].shared() &&
              GroupAlive[G].load(std::memory_order_relaxed) != 0)
            Groups[G].Decoder->decodeInto(S.Span, S.Chunks[G]);
        PlanTile(S);
        S.Pending.store(PendingInit, std::memory_order_relaxed);
        S.Seq.store(static_cast<int64_t>(T), std::memory_order_release);
      }
    } catch (...) {
      Record();
    }
    for (std::thread &Th : Pool)
      Th.join();
    if (FirstError)
      std::rethrow_exception(FirstError);
    FinalCostNs.assign(M, 0);
    for (size_t I = 0; I < M; ++I)
      FinalCostNs[I] = CostNs[I].load(std::memory_order_relaxed);
  }

  for (const std::unique_ptr<GangMember> &Member : Members)
    St.DeferredFinishes += Member->restarted() ? 1 : 0;

  // Completion in add order, so predictor-only members take their fetch
  // baseline from an earlier member's finished counters.
  Clock::time_point FinishStart = Clock::now();
  std::vector<PerfCounters> Finished;
  Finished.reserve(M);
  for (const std::unique_ptr<GangMember> &Member : Members)
    Finished.push_back(Member->finish(Finished));
  St.FinishSeconds = static_cast<double>(elapsedNs(FinishStart)) * 1e-9;
  return Finished;
}
