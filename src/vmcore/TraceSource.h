//===- vmcore/TraceSource.h - Materialized-or-streaming replay input -------===//
///
/// \file
/// One replay-input abstraction over the two ways a gang can consume a
/// trace: a fully materialized in-memory DispatchTrace (the classic
/// path — tiles are zero-copy pointer windows into the event arena),
/// or a streaming view over a serialized trace file, where each tile
/// is decoded on demand through DispatchTrace::FrameReader and working
/// memory is O(tile), independent of trace length. Both hand replay
/// loops the same thing — an EventSpan per tile, in strict stream
/// order, tiled by the SAME ChunkCursor arithmetic — so the decoded
/// event sequence (and therefore every replayed counter) is
/// bit-identical by construction.
///
/// Quicken records are always materialized at open time: they are
/// side-band metadata orders of magnitude smaller than the event
/// stream, and replays need them resident across the whole pass.
///
/// The `decode` field of a SweepSpec (`--decode=stream|materialize|
/// auto` overrides it) picks the path; `auto` streams only when the
/// decoded event footprint would exceed AutoDecodeBudgetBytes — small
/// traces keep the zero-copy fast path, billion-event traces stop
/// needing 8+ GB of RAM.
///
//===----------------------------------------------------------------------===//

#ifndef VMIB_VMCORE_TRACESOURCE_H
#define VMIB_VMCORE_TRACESOURCE_H

#include "vmcore/DispatchTrace.h"

#include <memory>
#include <string>
#include <vector>

namespace vmib {

/// One gang tile of events. \c Data[0] is event number \c Begin of the
/// stream — the absolute indices are preserved so consumers that count
/// stream positions (quickening replay, tile accounting) work the same
/// whether the span aliases a materialized arena or a decode buffer.
struct EventSpan {
  const DispatchTrace::Event *Data = nullptr;
  size_t Begin = 0;
  size_t End = 0;
  size_t size() const { return End - Begin; }
};

/// How replay acquires its event stream.
enum class TraceDecodeMode {
  Materialize, ///< decode the whole trace into memory up front
  Stream,      ///< decode tile-by-tile from the trace file
  Auto,        ///< stream iff the decoded footprint exceeds the budget
};

/// Canonical id ("materialize"/"stream"/"auto") for specs and flags.
const char *traceDecodeModeId(TraceDecodeMode Mode);

/// Parses a mode id. \returns false on anything unknown.
bool traceDecodeModeFromId(const std::string &Id, TraceDecodeMode &Out);

/// Decoded-footprint budget for TraceDecodeMode::Auto: Auto streams a
/// trace whose decoded event bytes (numEvents * 8) exceed 256 MiB.
constexpr uint64_t AutoDecodeBudgetBytes = uint64_t{256} << 20;

/// The replay input handle: either a borrowed materialized trace or a
/// validated streaming view of a trace file. Copyable (copies share
/// the quicken vector); each cursor() opens its own file descriptor,
/// so concurrent cursors — the gang decoder thread plus the catch-up
/// replay of any member that restarted on an exact tier — never
/// contend on shared read state.
class TraceSource {
public:
  /// An empty source behaves as a zero-event materialized trace.
  TraceSource();

  /// Borrows \p Trace (must outlive the source): the materialized
  /// zero-copy path.
  /*implicit*/ TraceSource(const DispatchTrace &Trace);

  /// Opens a streaming source over the trace file at \p Path,
  /// performing full open-time validation (see
  /// DispatchTrace::FrameReader::open). \returns false with \p Diag
  /// set on rejection; \p Out is untouched.
  static bool openStreaming(const std::string &Path, uint64_t WorkloadHash,
                            TraceSource &Out, std::string *Diag = nullptr);

  bool streaming() const { return Trace == nullptr && !Path.empty(); }

  /// The borrowed materialized trace. Only valid when !streaming().
  const DispatchTrace &trace() const;

  size_t numEvents() const;
  size_t numQuickens() const { return quickens().size(); }
  const std::vector<DispatchTrace::QuickenRecord> &quickens() const;

  /// The logical content hash — the trace's own contentHash() when
  /// materialized (O(1) for the labs' sealed traces), the verified
  /// header declaration when streaming.
  /// Identical for the same logical stream either way, so everything
  /// keyed by it (ResultStore cells, cost sidecars) is path-agnostic.
  uint64_t contentHash() const;

  /// The trace file path ("" when materialized).
  const std::string &path() const { return Path; }

  /// Sequential tile iterator: same tile boundaries as
  /// DispatchTrace::ChunkCursor on both paths. Move-only (streaming
  /// cursors own a file descriptor).
  class Cursor {
  public:
    Cursor(Cursor &&) = default;
    Cursor &operator=(Cursor &&) = default;

    /// Advances to the next tile. Materialized: \p Span aliases the
    /// trace arena and \p Storage is untouched. Streaming: the tile is
    /// decoded into \p Storage (clobbering it) and \p Span points at
    /// it. \returns false when the stream is exhausted. \throws
    /// std::runtime_error on a streaming I/O/corruption failure — the
    /// gang's worker-pool error plumbing already propagates exceptions
    /// from the decoder thread.
    bool nextInto(std::vector<DispatchTrace::Event> &Storage,
                  EventSpan &Span);

  private:
    friend class TraceSource;
    Cursor() = default;

    const DispatchTrace *Trace = nullptr;
    std::unique_ptr<DispatchTrace::FrameReader> Reader;
    DispatchTrace::ChunkCursor Tiles{0, 1};
  };

  /// Opens a cursor over the stream tiled at \p ChunkEvents (0 =
  /// DispatchTrace::defaultChunkEvents()). \throws std::runtime_error when a streaming
  /// source's file can no longer be opened/validated (it was validated
  /// once at openStreaming time; loss afterwards is an I/O fault, not
  /// a fall-back-silently condition).
  Cursor cursor(size_t ChunkEvents) const;

private:
  const DispatchTrace *Trace = nullptr; ///< materialized (borrowed)
  std::string Path;                     ///< streaming: validated file
  uint64_t WorkloadHash = 0;
  uint64_t NumEventsV = 0;
  uint64_t ContentHashV = 0;
  /// Streaming: quickens decoded once at open, shared across copies.
  std::shared_ptr<const std::vector<DispatchTrace::QuickenRecord>> QuickensV;
};

} // namespace vmib

#endif // VMIB_VMCORE_TRACESOURCE_H
