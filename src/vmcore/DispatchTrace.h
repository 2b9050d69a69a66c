//===- vmcore/DispatchTrace.h - Captured dispatch event stream --*- C++ -*-===//
///
/// \file
/// A compact recording of one VM execution's dispatch-relevant events.
/// The paper's §7.3 metrics depend only on the per-step (Cur, Next)
/// stream — which is a property of the *program*, not of the layout,
/// predictor or CPU being evaluated — so a workload is interpreted once
/// into a DispatchTrace and then replayed (GangReplayer) over every
/// (layout x predictor x CPU) configuration of a sweep.
///
/// Each event packs (Cur, Next) into one 64-bit word. JVM quickening
/// (§5.4) mutates the program mid-run; those rewrites are recorded as
/// side-band QuickenRecords keyed by event position so a replay can
/// re-apply them to its own program copy and layout at exactly the same
/// point in the stream, keeping replayed counters bit-identical to
/// direct simulation.
///
/// The buffers are arena-style: clear() keeps capacity so a trace
/// object can be refilled across workloads without reallocating.
///
/// Traces serialize to a versioned binary file (save()/load()): a
/// checksummed header carrying event/quicken counts, an FNV-1a content
/// hash and a caller-supplied workload identity hash, followed by delta
/// + LEB128 varint event frames of 64K events with per-frame checksums
/// and varint-packed quicken records (see DispatchTrace.cpp for the
/// exact layout). The *content hash is defined over the logical event
/// stream*, not the file bytes, so everything keyed by it (ResultStore
/// cells, WorkloadCache sidecars) survives a change of encoding: a file
/// of the retired version 1 is rejected as a stale cache entry, and the
/// recaptured file declares the same hash. The VMIB_TRACE_CACHE
/// environment variable names a directory the labs consult before
/// re-interpreting a workload, which makes a sweep a pure function of
/// (trace file, config list) — the prerequisite for sharding sweeps
/// across machines.
///
//===----------------------------------------------------------------------===//

#ifndef VMIB_VMCORE_DISPATCHTRACE_H
#define VMIB_VMCORE_DISPATCHTRACE_H

#include "vmcore/VMProgram.h"

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace vmib {

/// Captured event stream of one workload execution.
class DispatchTrace {
public:
  /// Packed step event: Cur in the high word, Next in the low word.
  using Event = uint64_t;

  static constexpr Event pack(uint32_t Cur, uint32_t Next) {
    return (static_cast<uint64_t>(Cur) << 32) | Next;
  }
  static constexpr uint32_t cur(Event E) {
    return static_cast<uint32_t>(E >> 32);
  }
  static constexpr uint32_t next(Event E) {
    return static_cast<uint32_t>(E);
  }

  /// A quickening rewrite: after the first \p AfterEvents events have
  /// been replayed, Code[Index] becomes NewInstr and the layout is told
  /// via onQuicken(Index) — mirroring the engine's step-then-quicken
  /// order.
  struct QuickenRecord {
    uint64_t AfterEvents = 0;
    uint32_t Index = 0;
    VMInstr NewInstr;
  };

  /// Appends one step event.
  void append(uint32_t Cur, uint32_t Next) {
    Events.push_back(pack(Cur, Next));
  }

  /// Records that the just-appended event quickened Code[Index] into
  /// \p NewInstr.
  void appendQuicken(uint32_t Index, const VMInstr &NewInstr) {
    Quickens.push_back({Events.size(), Index, NewInstr});
  }

  /// Drops all events but keeps the allocated arenas for reuse.
  void clear() {
    Events.clear();
    Quickens.clear();
    Sealed = false;
  }

  /// Reserves the event arena for a capture of \p NumEvents events.
  ///
  /// Process-wide side effect: the first reserve() or load() in a
  /// process pins glibc's mmap threshold at 4 MB (mallopt
  /// M_MMAP_THRESHOLD, which also turns off glibc's dynamic threshold
  /// and trim adjustment). From then on EVERY allocation of 4 MB or more
  /// in the process — trace arenas, but also result-store buffers, file
  /// payloads and gang scratch — gets its own mapping and is returned
  /// to the OS when freed. It lives here because event arenas are a
  /// sweep's largest buffers, each freed once per workload: under the
  /// dynamic threshold, freed traces were carved from per-thread malloc
  /// arenas whose pages stayed resident, and an in-process sweep peaked
  /// well above its live set. No-op on other C libraries.
  void reserve(size_t NumEvents);

  bool empty() const { return Events.empty(); }
  size_t numEvents() const { return Events.size(); }
  size_t numQuickens() const { return Quickens.size(); }

  const std::vector<Event> &events() const { return Events; }
  const std::vector<QuickenRecord> &quickens() const { return Quickens; }

  /// Bytes currently reserved by the arenas (capacity, not size).
  uint64_t memoryBytes() const {
    return Events.capacity() * sizeof(Event) +
           Quickens.capacity() * sizeof(QuickenRecord);
  }

  //===--- chunk-tiled iteration (gang replay) ----------------------------===//

  /// Events per gang tile when a spec's `chunk` is 0: 64K events
  /// (512KB of packed u64s — sized so one tile plus the gang's layouts
  /// and predictor state stay cache-resident while every gang member
  /// crosses it).
  static constexpr size_t defaultChunkEvents() { return size_t{1} << 16; }

  /// Walks [0, numEvents) in ChunkEvents-sized half-open ranges. The
  /// cursor is how GangReplayer tiles the stream: every gang member
  /// replays [begin, end) before the cursor advances, so each trace
  /// byte crosses the memory bus once per tile instead of once per
  /// configuration. The arithmetic lives here, parameterized on a bare
  /// event count, so the materialized and streaming replay paths tile
  /// through ONE implementation — a zero-event stream yields no tiles,
  /// a chunk larger than the stream yields exactly one, and the final
  /// partial tile ends exactly at NumEvents on both paths by
  /// construction.
  class ChunkCursor {
  public:
    ChunkCursor(size_t NumEvents, size_t ChunkEvents)
        : NumEvents(NumEvents),
          Chunk(ChunkEvents == 0 ? defaultChunkEvents() : ChunkEvents) {}
    ChunkCursor(const DispatchTrace &Trace, size_t ChunkEvents)
        : ChunkCursor(Trace.numEvents(), ChunkEvents) {}

    /// Advances to the next tile; \returns false when the stream is
    /// exhausted.
    bool next() {
      if (End >= NumEvents)
        return false;
      Start = End;
      End = NumEvents - Start < Chunk ? NumEvents : Start + Chunk;
      return true;
    }

    size_t begin() const { return Start; }
    size_t end() const { return End; }

  private:
    size_t NumEvents;
    size_t Chunk;
    size_t Start = 0;
    size_t End = 0;
  };

  //===--- binary serialization (trace cache / sweep sharding) ------------===//

  /// FNV-1a over the event words and quicken records; the save() header
  /// stores it and load() verifies it, so a truncated or bit-flipped
  /// trace file is rejected instead of silently corrupting a sweep.
  /// O(1) on a sealed trace (see seal()); otherwise a byte-serial pass
  /// over the whole event arena.
  uint64_t contentHash() const;

  /// Hashes the trace once and pins the result: until the next
  /// append(), appendQuicken() or clear(), contentHash() returns it in
  /// O(1). load() seals implicitly with the hash it verified, so only a
  /// freshly captured trace pays the pass — once, before it is shared.
  /// Sealing happens only here and in load(), never lazily inside the
  /// const accessor, so concurrent readers never race on the cache.
  void seal();

  /// Writes the trace to \p Path (format version 2). \p WorkloadHash
  /// identifies the workload the trace was captured from (the labs pass
  /// the reference output hash); load() refuses a file whose workload
  /// hash does not match, so a stale cache entry for a changed workload
  /// re-captures instead of lying.
  /// \returns false on any I/O failure (best-effort: callers fall back
  /// to the captured in-memory trace).
  bool save(const std::string &Path, uint64_t WorkloadHash) const;

  /// Replaces *this with the trace stored at \p Path: FrameReader::open()
  /// plus one read() of the whole stream into the reserved arena, sealed
  /// with the verified header hash — the streaming path's validator and
  /// decoder, materialized. \returns false (leaving *this cleared — a
  /// failed load never exposes partial state) if the file is missing,
  /// has a wrong magic/version (a version-1 file is a stale cache
  /// entry), fails a checksum or the workload hash, or is truncated /
  /// carries trailing garbage. When \p Diag is non-null, a failure
  /// stores a one-line description of exactly what was rejected
  /// (callers surface it instead of silently re-capturing on a corrupt
  /// cache). Like reserve(), the first call pins glibc's mmap threshold
  /// for the whole process (see reserve() for what that changes and
  /// why).
  bool load(const std::string &Path, uint64_t ExpectedWorkloadHash,
            std::string *Diag = nullptr);

  /// Reads just the header of the trace file at \p Path and returns
  /// the content hash it declares for its event stream (header word 5,
  /// what contentHash() of the loaded trace evaluates to) — without
  /// loading or verifying the event arrays. This is how a result-store
  /// probe keys a workload's cells from a cached trace file in O(1):
  /// the hash is only *declared* here, but anything derived from a
  /// wrong declaration simply misses in a content-addressed lookup.
  /// \returns false when the file is missing, shorter than a header,
  /// or has the wrong magic/version.
  static bool peekContentHash(const std::string &Path, uint64_t &Hash);

  /// Header facts of a trace file without decoding it: logical stream
  /// sizes and the on-disk footprint. LogicalBytes is the decoded
  /// footprint — the bytes load() materializes for the event and
  /// quicken arrays — so LogicalBytes / FileBytes is the compression
  /// ratio the `[cache-gc]` and trace_synth lines print.
  struct FileInfo {
    uint64_t NumEvents = 0;
    uint64_t NumQuickens = 0;
    uint64_t FileBytes = 0;
    uint64_t LogicalBytes = 0;
    double ratio() const {
      return FileBytes == 0 ? 0.0
                            : static_cast<double>(LogicalBytes) /
                                  static_cast<double>(FileBytes);
    }
  };

  /// Reads just the header (and file size) of the trace at \p Path.
  /// \returns false when the file is missing, shorter than a header,
  /// or has the wrong magic/version.
  static bool peekFileInfo(const std::string &Path, FileInfo &Info);

  //===--- streaming decode (O(tile) replay memory) ------------------------===//

  /// Incremental decoder over a serialized trace file — the one
  /// validator and decoder behind both streamed and materialized
  /// replay (load() is open() plus one read() of the whole stream).
  /// open() checks everything except the event payload: header
  /// checksum, pinned frame geometry, directory bounds, the exact
  /// file-size equation, and the quicken block (verified and fully
  /// decoded, it is side-band metadata orders of magnitude smaller
  /// than the events). read() then hands out events in stream order,
  /// verifying each frame's checksum immediately before decoding it,
  /// so working memory stays one frame (64K events) regardless of trace
  /// length and corruption is still loud before a single fabricated
  /// event escapes.
  class FrameReader {
  public:
    FrameReader();
    ~FrameReader();
    FrameReader(const FrameReader &) = delete;
    FrameReader &operator=(const FrameReader &) = delete;

    /// Opens and validates \p Path (see class comment for what is
    /// checked when). \returns false with \p Diag set to a one-line
    /// "<path>: <what was rejected>" on any rejection; the reader is
    /// then closed.
    bool open(const std::string &Path, uint64_t ExpectedWorkloadHash,
              std::string *Diag = nullptr);

    bool isOpen() const { return F != nullptr; }

    // Header facts, valid after a successful open().
    uint64_t numEvents() const { return NumEventsV; }
    uint64_t numQuickens() const { return QuickensV.size(); }
    uint64_t workloadHash() const { return WorkloadHashV; }
    /// The verified logical content hash (header word 5): the layered
    /// checksums make the declaration trustworthy without recomputing
    /// it over the events.
    uint64_t contentHash() const { return ContentHashV; }
    /// All quicken records, decoded and verified at open() time.
    const std::vector<QuickenRecord> &quickens() const { return QuickensV; }

    /// Appends up to \p MaxEvents next events (in stream order) to
    /// \p Out. Fewer are appended only at end of stream; zero appended
    /// with a true return means the stream is exhausted. \returns
    /// false — with error() describing the failure in open()'s
    /// grammar — on I/O error or a frame that fails its checksum
    /// or decode; the reader is then closed and stays failed.
    bool read(size_t MaxEvents, std::vector<Event> &Out);

    /// Events not yet handed out by read().
    uint64_t eventsRemaining() const { return NumEventsV - EventsOut; }

    /// Rewinds to the first event for a fresh pass (the already-
    /// verified open() state is reused). \returns false on seek
    /// failure.
    bool rewind();

    /// The failure description of the first failed read()/rewind().
    const std::string &error() const { return ErrorV; }

  private:
    bool fail(std::string Why);

    std::FILE *F = nullptr;
    std::string PathV;
    std::string ErrorV;
    uint64_t NumEventsV = 0;
    uint64_t WorkloadHashV = 0;
    uint64_t ContentHashV = 0;
    std::vector<QuickenRecord> QuickensV;
    long PayloadStart = 0;   ///< file offset of the first event payload
    uint64_t EventsOut = 0;  ///< events handed out since open/rewind
    // Frame directory, the current frame's raw bytes, and
    // decoded-but-not-yet-handed-out events of a partially consumed
    // frame (tiles need not align with frames).
    std::vector<uint64_t> Dir;
    uint64_t NextFrame = 0;
    std::vector<uint8_t> Scratch;
    std::vector<Event> Pending;
    size_t PendingPos = 0;
  };

  /// The trace-cache directory (VMIB_TRACE_CACHE), or "" when unset.
  /// A configured directory that does not exist yet is created
  /// (including parents); "" is returned if creation fails, so cache
  /// misconfiguration degrades to "no cache", never to lost traces.
  static std::string cacheDir();

  /// Canonical cache file path for workload \p Key, or "" when the
  /// cache is disabled. Key is "<suite>-<benchmark>".
  static std::string cachePathFor(const std::string &Key);

private:
  bool write(std::FILE *F, uint64_t WorkloadHash) const;
  void sealWith(uint64_t Hash);

  std::vector<Event> Events;
  std::vector<QuickenRecord> Quickens;
  /// seal() state: the content hash of the first SealedEvents events and
  /// SealedQuickens quicken records. The arenas only grow until clear()
  /// (which unseals), so matching sizes mean the hash is still current.
  uint64_t SealedHash = 0;
  size_t SealedEvents = 0;
  size_t SealedQuickens = 0;
  bool Sealed = false;
};

} // namespace vmib

#endif // VMIB_VMCORE_DISPATCHTRACE_H
