//===- vmcore/TraceSource.cpp - Materialized-or-streaming replay input ----===//

#include "vmcore/TraceSource.h"

#include <stdexcept>

using namespace vmib;

namespace {

/// Shared by every materialized source with no quickens and by empty
/// sources, so quickens() can always return a reference.
const std::vector<DispatchTrace::QuickenRecord> NoQuickens;

} // namespace

const char *vmib::traceDecodeModeId(TraceDecodeMode Mode) {
  switch (Mode) {
  case TraceDecodeMode::Materialize:
    return "materialize";
  case TraceDecodeMode::Stream:
    return "stream";
  case TraceDecodeMode::Auto:
    break;
  }
  return "auto";
}

bool vmib::traceDecodeModeFromId(const std::string &Id,
                                 TraceDecodeMode &Out) {
  if (Id == "materialize") {
    Out = TraceDecodeMode::Materialize;
    return true;
  }
  if (Id == "stream") {
    Out = TraceDecodeMode::Stream;
    return true;
  }
  if (Id == "auto") {
    Out = TraceDecodeMode::Auto;
    return true;
  }
  return false;
}

TraceSource::TraceSource() = default;

TraceSource::TraceSource(const DispatchTrace &Trace) : Trace(&Trace) {}

bool TraceSource::openStreaming(const std::string &Path,
                                uint64_t WorkloadHash, TraceSource &Out,
                                std::string *Diag) {
  // One full-validation open up front: header facts and the quicken
  // block land here; cursors re-open the (now known-good) file for
  // their own sequential event reads.
  DispatchTrace::FrameReader Reader;
  if (!Reader.open(Path, WorkloadHash, Diag))
    return false;
  TraceSource S;
  S.Path = Path;
  S.WorkloadHash = WorkloadHash;
  S.NumEventsV = Reader.numEvents();
  S.ContentHashV = Reader.contentHash();
  S.QuickensV =
      std::make_shared<const std::vector<DispatchTrace::QuickenRecord>>(
          Reader.quickens());
  Out = std::move(S);
  return true;
}

const DispatchTrace &TraceSource::trace() const {
  static const DispatchTrace Empty;
  if (streaming())
    throw std::logic_error("TraceSource::trace() on a streaming source");
  return Trace ? *Trace : Empty;
}

size_t TraceSource::numEvents() const {
  return Trace ? Trace->numEvents() : static_cast<size_t>(NumEventsV);
}

const std::vector<DispatchTrace::QuickenRecord> &
TraceSource::quickens() const {
  if (Trace)
    return Trace->quickens();
  return QuickensV ? *QuickensV : NoQuickens;
}

uint64_t TraceSource::contentHash() const {
  return Trace ? Trace->contentHash() : ContentHashV;
}

TraceSource::Cursor TraceSource::cursor(size_t ChunkEvents) const {
  Cursor C;
  C.Trace = Trace;
  C.Tiles = DispatchTrace::ChunkCursor(numEvents(), ChunkEvents);
  if (streaming()) {
    C.Reader = std::make_unique<DispatchTrace::FrameReader>();
    std::string Diag;
    if (!C.Reader->open(Path, WorkloadHash, &Diag))
      throw std::runtime_error("trace stream: " + Diag);
  }
  return C;
}

bool TraceSource::Cursor::nextInto(
    std::vector<DispatchTrace::Event> &Storage, EventSpan &Span) {
  if (!Tiles.next())
    return false;
  Span.Begin = Tiles.begin();
  Span.End = Tiles.end();
  if (!Reader) {
    Span.Data = Trace ? Trace->events().data() + Span.Begin : nullptr;
    return true;
  }
  Storage.clear();
  size_t Want = Span.End - Span.Begin;
  if (!Reader->read(Want, Storage) || Storage.size() != Want)
    throw std::runtime_error(
        "trace stream: " +
        (Reader->error().empty() ? "short tile read" : Reader->error()));
  Span.Data = Storage.data();
  return true;
}
