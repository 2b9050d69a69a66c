//===- vmcore/DispatchTrace.cpp - Trace serialization ---------------------===//
///
/// Binary trace file format, version 2 (all header fields little-endian
/// u64):
///
///   [0] magic "VMIBTRC\1"
///   [1] format version (2)
///   [2] number of events
///   [3] number of quicken records
///   [4] workload identity hash (reference output hash of the workload)
///   [5] FNV-1a content hash over the LOGICAL stream: the packed event
///       words followed by the four packed words of each quicken record
///       (AfterEvents, Op << 32 | Index, A, B). Because the hash is
///       defined over the logical stream rather than the file bytes,
///       every content-keyed derivation (ResultStore cells) survives
///       a change of encoding — the retired version-1 flat dump
///       declared the same hash here.
///   [6] events per frame (FrameEvents at write time)
///   [7] number of frames = ceil(numEvents / eventsPerFrame)
///   [8] quicken block payload bytes
///   [9] quicken block FNV-1a checksum
///   [10] FNV-1a checksum over header words [0..9]
///   [11..11+2*numFrames)        frame directory: (payload bytes,
///                               FNV-1a checksum) per frame
///   then the frame payloads, concatenated, byte-aligned
///   then the quicken block payload
///
/// Events are delta + LEB128 varint encoded in independently decodable
/// frames of FrameEvents (64K) events, aligned with the default gang
/// tile so one frame feeds one replay tile. Per-event encoding inside a
/// frame (PrevNext starts at 0 at every frame boundary): dispatch is a
/// walk — almost every event starts where the previous one landed — so
/// one token usually suffices:
///
///   token  = zigzag(Next - Cur) << 1 | (Cur != PrevNext)
///   extra  = zigzag(Cur - PrevNext)      only when the low bit is set
///
/// Quicken records delta the (nondecreasing) event position and varint
/// the rest: AfterEvents-delta, Index, Op, zigzag(A), zigzag(B).
///
/// The per-frame checksums make any payload corruption loud before a
/// single decoded value is trusted, and the header checksum [10] makes
/// every header byte load-bearing — including the stored logical hash
/// [5], which nothing else cross-checks. Together they let a load skip
/// the O(N) logical-hash recompute: the frame checksums pin the payload
/// bytes, the exact size equation and per-frame event counts pin the
/// payload structure, and the header checksum pins the declarations.
/// FrameReader is the one validator and decoder; load() is open() plus
/// one read() of the whole stream. A failed load never exposes partial
/// state. Only same-endianness interchange is supported — the trace
/// cache is a local/cluster artifact, not an archival one.
///
//===----------------------------------------------------------------------===//

#include "vmcore/DispatchTrace.h"

#include "support/FileSync.h"
#include "support/Format.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sys/stat.h>
#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

using namespace vmib;

namespace {

/// Event arenas are the largest buffers a sweep allocates (8–40 MB per
/// paper trace), each allocated and freed once per workload. glibc
/// raises its mmap threshold to the size of every mmapped block it
/// frees, so once one trace has been released the next ones are carved
/// from the per-thread arena heaps, whose freed pages stay resident and
/// are not reused across arenas: an in-process sweep running spec after
/// spec then peaks at up to ~1.8× its live set, depending on which arena
/// each loader thread happens to draw. Pinning the threshold (which
/// also stops the adjustment) keeps every block of 4 MB or more in its
/// own mapping, returned to the OS when freed.
void pinLargeBlocksToMmap() {
#if defined(__GLIBC__)
  static const bool Pinned = mallopt(M_MMAP_THRESHOLD, 4 << 20) == 1;
  (void)Pinned;
#endif
}

constexpr uint64_t FileMagic = 0x0143525442494d56ULL; // "VMIBTRC\1"
/// Bump on ANY change that invalidates cached traces: the serialized
/// layout, but also capture *semantics* (what the VMs emit per step,
/// quicken recording). The workload hash only ties a file to a
/// program's output, which does not change when event emission does —
/// the version word is what retires every stale cache entry at once.
/// Version 1 (a flat u64 dump) is retired this way: its files are
/// rejected as stale and recaptured, and because both versions declare
/// the same logical hash, the recaptured file keys the same cells.
constexpr uint64_t FileVersion = 2;
/// Words [0..5], the prefix every version has shared: what the header
/// peeks read, and enough to reject another version as stale.
constexpr size_t PrefixWords = 6;
constexpr size_t HeaderWords = 11;
constexpr size_t WordsPerQuicken = 4;
/// Frame granularity. Matches DispatchTrace::defaultChunkEvents() so
/// one decoded frame covers one default gang tile, but is a file
/// format constant: a spec's `chunk` must never change what save()
/// writes (the encoding stays canonical per content).
constexpr size_t FrameEvents = size_t{1} << 16;

uint64_t fnv1a(uint64_t Hash, const void *Data, size_t Bytes) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < Bytes; ++I) {
    Hash ^= P[I];
    Hash *= 0x100000001b3ULL;
  }
  return Hash;
}

constexpr uint64_t Fnv1aOffset = 0xcbf29ce484222325ULL;

/// Serializes one quicken record into its four file words.
void packQuicken(const DispatchTrace::QuickenRecord &Q, uint64_t Out[4]) {
  Out[0] = Q.AfterEvents;
  Out[1] = (static_cast<uint64_t>(Q.NewInstr.Op) << 32) | Q.Index;
  Out[2] = static_cast<uint64_t>(Q.NewInstr.A);
  Out[3] = static_cast<uint64_t>(Q.NewInstr.B);
}

/// RAII stdio handle so every early return closes the file.
struct File {
  std::FILE *F;
  explicit File(const char *Path, const char *Mode)
      : F(std::fopen(Path, Mode)) {}
  ~File() {
    if (F)
      std::fclose(F);
  }
  File(const File &) = delete;
  File &operator=(const File &) = delete;
};

//===--- v2 varint / zigzag primitives -------------------------------------===//

constexpr uint64_t zigzag(int64_t V) {
  return (static_cast<uint64_t>(V) << 1) ^
         static_cast<uint64_t>(V >> 63);
}
constexpr int64_t unzigzag(uint64_t V) {
  return static_cast<int64_t>(V >> 1) ^ -static_cast<int64_t>(V & 1);
}

void putVarint(std::vector<uint8_t> &Out, uint64_t V) {
  while (V >= 0x80) {
    Out.push_back(static_cast<uint8_t>(V) | 0x80);
    V >>= 7;
  }
  Out.push_back(static_cast<uint8_t>(V));
}

/// Bounds-checked LEB128 reader over one frame payload. Every decode
/// error (truncated varint, over-long continuation) sets Fail instead
/// of reading past the frame, so a corrupted length in the directory
/// can never walk the parser out of its buffer.
struct ByteReader {
  const uint8_t *P;
  const uint8_t *End;
  bool Fail = false;

  ByteReader(const uint8_t *Data, size_t Bytes)
      : P(Data), End(Data + Bytes) {}

  uint64_t varint() {
    uint64_t V = 0;
    for (unsigned Shift = 0; Shift < 64 && P != End; Shift += 7) {
      uint8_t B = *P++;
      V |= static_cast<uint64_t>(B & 0x7f) << Shift;
      if ((B & 0x80) == 0)
        return V;
    }
    Fail = true;
    return 0;
  }

  bool exhausted() const { return P == End; }
};

/// Appends the varint encoding of events [Begin, End) — one frame —
/// to \p Out. PrevNext resets to 0 here so every frame is decodable
/// without its predecessors.
void encodeEventFrame(const std::vector<DispatchTrace::Event> &Events,
                      size_t Begin, size_t End, std::vector<uint8_t> &Out) {
  uint32_t PrevNext = 0;
  for (size_t I = Begin; I < End; ++I) {
    uint32_t Cur = DispatchTrace::cur(Events[I]);
    uint32_t Next = DispatchTrace::next(Events[I]);
    int64_t DCur =
        static_cast<int64_t>(Cur) - static_cast<int64_t>(PrevNext);
    int64_t DNext = static_cast<int64_t>(Next) - static_cast<int64_t>(Cur);
    putVarint(Out, (zigzag(DNext) << 1) | (DCur != 0 ? 1 : 0));
    if (DCur != 0)
      putVarint(Out, zigzag(DCur));
    PrevNext = Next;
  }
}

/// Decodes one frame of \p NumEvents events from \p R, appending to
/// \p Events. \returns false on any malformed payload (the per-frame
/// checksum makes this unreachable short of an FNV collision, but the
/// decoder still refuses to fabricate events from garbage).
bool decodeEventFrame(ByteReader &R, size_t NumEvents,
                      std::vector<DispatchTrace::Event> &Events) {
  uint32_t PrevNext = 0;
  for (size_t I = 0; I < NumEvents; ++I) {
    uint64_t Token = R.varint();
    int64_t DNext = unzigzag(Token >> 1);
    int64_t Cur = static_cast<int64_t>(PrevNext);
    if (Token & 1)
      Cur += unzigzag(R.varint());
    if (R.Fail)
      return false;
    int64_t Next = Cur + DNext;
    if (Cur < 0 || Cur > 0xffffffffll || Next < 0 || Next > 0xffffffffll)
      return false;
    Events.push_back(DispatchTrace::pack(static_cast<uint32_t>(Cur),
                                         static_cast<uint32_t>(Next)));
    PrevNext = static_cast<uint32_t>(Next);
  }
  // A frame must spell out exactly its events: trailing payload bytes
  // mean the directory length and the content disagree.
  return R.exhausted();
}

} // namespace

uint64_t DispatchTrace::contentHash() const {
  if (Sealed && SealedEvents == Events.size() &&
      SealedQuickens == Quickens.size())
    return SealedHash;
  uint64_t Hash = Fnv1aOffset;
  Hash = fnv1a(Hash, Events.data(), Events.size() * sizeof(Event));
  for (const QuickenRecord &Q : Quickens) {
    uint64_t Words[WordsPerQuicken];
    packQuicken(Q, Words);
    Hash = fnv1a(Hash, Words, sizeof(Words));
  }
  return Hash;
}

void DispatchTrace::reserve(size_t NumEvents) {
  pinLargeBlocksToMmap();
  Events.reserve(NumEvents);
}

void DispatchTrace::seal() { sealWith(contentHash()); }

void DispatchTrace::sealWith(uint64_t Hash) {
  SealedHash = Hash;
  SealedEvents = Events.size();
  SealedQuickens = Quickens.size();
  Sealed = true;
}

bool DispatchTrace::save(const std::string &Path,
                         uint64_t WorkloadHash) const {
  // Write to a writer-unique temp name and rename so a crashed writer
  // never leaves a half-written file under the canonical key, and
  // concurrent capturing writers (two benches racing on a cold cache,
  // or two threads of one process) don't interleave into one temp
  // file — last rename wins with a complete trace either way. The
  // process-wide counter makes the name unique across threads; the
  // pid makes it unique across processes sharing the cache directory.
  static std::atomic<unsigned> SaveSerial{0};
  std::string Tmp = Path + ".tmp." +
                    std::to_string(static_cast<long>(::getpid())) + "." +
                    std::to_string(SaveSerial.fetch_add(1));
  {
    File Out(Tmp.c_str(), "wb");
    if (!Out.F)
      return false;
    // fsync before rename: rename orders only the directory entry, so
    // without this a crash after the rename could surface a complete-
    // looking name over still-unwritten data blocks.
    if (!write(Out.F, WorkloadHash) || !flushAndSync(Out.F)) {
      std::remove(Tmp.c_str());
      return false;
    }
  }
  if (!renameDurable(Tmp, Path)) {
    std::remove(Tmp.c_str());
    return false;
  }
  return true;
}

bool DispatchTrace::write(std::FILE *F, uint64_t WorkloadHash) const {
  const size_t NumFrames =
      Events.empty() ? 0 : (Events.size() + FrameEvents - 1) / FrameEvents;

  // Encode every frame into one contiguous payload buffer, recording
  // (bytes, checksum) per frame in the directory. Dispatch streams are
  // walks, so a one-byte token per event is the common case; reserving
  // two bytes per event avoids rehearsal growth on hot traces.
  std::vector<uint8_t> Payload;
  Payload.reserve(2 * Events.size() + 16);
  std::vector<uint64_t> Dir;
  Dir.reserve(2 * NumFrames);
  for (size_t Frame = 0; Frame < NumFrames; ++Frame) {
    size_t Begin = Frame * FrameEvents;
    size_t End = std::min(Events.size(), Begin + FrameEvents);
    size_t Start = Payload.size();
    encodeEventFrame(Events, Begin, End, Payload);
    Dir.push_back(Payload.size() - Start);
    Dir.push_back(fnv1a(Fnv1aOffset, Payload.data() + Start,
                        Payload.size() - Start));
  }

  // Quicken block: AfterEvents is nondecreasing in append order, so
  // the position deltas stay small.
  std::vector<uint8_t> QBlock;
  uint64_t PrevAfter = 0;
  for (const QuickenRecord &Q : Quickens) {
    putVarint(QBlock, Q.AfterEvents - PrevAfter);
    putVarint(QBlock, Q.Index);
    putVarint(QBlock, Q.NewInstr.Op);
    putVarint(QBlock, zigzag(Q.NewInstr.A));
    putVarint(QBlock, zigzag(Q.NewInstr.B));
    PrevAfter = Q.AfterEvents;
  }

  uint64_t Header[HeaderWords] = {
      FileMagic,     FileVersion,
      Events.size(), Quickens.size(),
      WorkloadHash,  contentHash(),
      FrameEvents,   NumFrames,
      QBlock.size(), fnv1a(Fnv1aOffset, QBlock.data(), QBlock.size())};
  // Header checksum over words [0..9]: the stored logical hash [5] is
  // the one declaration no downstream check cross-validates, and
  // covering it here is what lets a load trust the stored hash without
  // recomputing it over the decoded stream.
  Header[HeaderWords - 1] =
      fnv1a(Fnv1aOffset, Header, (HeaderWords - 1) * sizeof(uint64_t));
  if (std::fwrite(Header, sizeof(uint64_t), HeaderWords, F) != HeaderWords)
    return false;
  if (!Dir.empty() &&
      std::fwrite(Dir.data(), sizeof(uint64_t), Dir.size(), F) != Dir.size())
    return false;
  if (!Payload.empty() &&
      std::fwrite(Payload.data(), 1, Payload.size(), F) != Payload.size())
    return false;
  if (!QBlock.empty() &&
      std::fwrite(QBlock.data(), 1, QBlock.size(), F) != QBlock.size())
    return false;
  return true;
}

namespace {

/// Reads the shared header prefix of the trace at \p Path, plus the
/// file size. \returns false when the file is missing, shorter than
/// the prefix, or is not a current-version trace file.
bool peekPrefix(const std::string &Path, uint64_t (&Prefix)[PrefixWords],
                uint64_t *FileBytes) {
  File In(Path.c_str(), "rb");
  if (!In.F ||
      std::fread(Prefix, sizeof(uint64_t), PrefixWords, In.F) != PrefixWords ||
      Prefix[0] != FileMagic || Prefix[1] != FileVersion)
    return false;
  if (FileBytes == nullptr)
    return true;
  if (std::fseek(In.F, 0, SEEK_END) != 0)
    return false;
  long Bytes = std::ftell(In.F);
  if (Bytes < 0)
    return false;
  *FileBytes = static_cast<uint64_t>(Bytes);
  return true;
}

} // namespace

bool DispatchTrace::peekContentHash(const std::string &Path, uint64_t &Hash) {
  uint64_t Prefix[PrefixWords];
  if (!peekPrefix(Path, Prefix, nullptr))
    return false;
  Hash = Prefix[5];
  return true;
}

bool DispatchTrace::peekFileInfo(const std::string &Path, FileInfo &Info) {
  uint64_t Prefix[PrefixWords];
  uint64_t FileBytes = 0;
  if (!peekPrefix(Path, Prefix, &FileBytes))
    return false;
  Info.NumEvents = Prefix[2];
  Info.NumQuickens = Prefix[3];
  Info.FileBytes = FileBytes;
  Info.LogicalBytes = Info.NumEvents * sizeof(Event) +
                      Info.NumQuickens * sizeof(QuickenRecord);
  return true;
}

bool DispatchTrace::load(const std::string &Path,
                         uint64_t ExpectedWorkloadHash, std::string *Diag) {
  pinLargeBlocksToMmap();
  clear();
  // The streaming reader is the one validator and decoder: open()
  // checks everything but the frame payloads, and one read() of the
  // whole stream verifies each frame's checksum before decoding it
  // straight into the reserved arena. Every failure clears the trace
  // again, so a partially filled buffer never leaks out.
  FrameReader Reader;
  if (!Reader.open(Path, ExpectedWorkloadHash, Diag))
    return false;
  Events.reserve(Reader.numEvents());
  if (!Reader.read(Reader.numEvents(), Events)) {
    clear();
    if (Diag)
      *Diag = Reader.error();
    return false;
  }
  Quickens = Reader.quickens();
  // No logical-hash recompute here, deliberately: recomputing FNV-1a
  // over the decoded stream is byte-serial and costs more than the
  // whole varint decode, and it is redundant — the header checksum
  // pinned every declaration (counts, sizes, the stored hash), the
  // per-frame checksums pinned every payload byte, and the exact size
  // equation plus per-frame event counts pinned the structure. The
  // verified declaration is therefore this trace's logical identity
  // without being re-derived: it seals the trace.
  sealWith(Reader.contentHash());
  return true;
}

namespace {

/// mkdir -p: creates \p Dir and any missing parents. \returns false if
/// any component could not be created.
bool ensureDirExists(const std::string &Dir) {
  struct stat St;
  if (::stat(Dir.c_str(), &St) == 0)
    return S_ISDIR(St.st_mode);
  for (size_t Pos = 1; Pos <= Dir.size(); ++Pos) {
    if (Pos != Dir.size() && Dir[Pos] != '/')
      continue;
    std::string Prefix = Dir.substr(0, Pos);
    if (::mkdir(Prefix.c_str(), 0777) != 0 && errno != EEXIST)
      return false;
  }
  return ::stat(Dir.c_str(), &St) == 0 && S_ISDIR(St.st_mode);
}

} // namespace

std::string DispatchTrace::cacheDir() {
  const char *Env = std::getenv("VMIB_TRACE_CACHE");
  if (Env == nullptr || Env[0] == '\0')
    return std::string();
  std::string Dir(Env);
  // Auto-create the configured directory: a missing cache dir used to
  // make every save() fail silently, which read as "caching works but
  // nothing persists". Creation failure disables the cache loudly.
  if (!ensureDirExists(Dir)) {
    static bool Warned = false;
    if (!Warned) {
      Warned = true;
      std::fprintf(stderr,
                   "warning: VMIB_TRACE_CACHE=%s cannot be created (%s); "
                   "trace caching disabled\n",
                   Dir.c_str(), std::strerror(errno));
    }
    return std::string();
  }
  return Dir;
}

std::string DispatchTrace::cachePathFor(const std::string &Key) {
  std::string Dir = cacheDir();
  if (Dir.empty())
    return std::string();
  if (Dir.back() != '/')
    Dir += '/';
  return Dir + Key + ".vmibtrace";
}

//===--- FrameReader: streaming decode --------------------------------------===//

DispatchTrace::FrameReader::FrameReader() = default;

DispatchTrace::FrameReader::~FrameReader() {
  if (F)
    std::fclose(F);
}

bool DispatchTrace::FrameReader::fail(std::string Why) {
  if (F) {
    std::fclose(F);
    F = nullptr;
  }
  if (ErrorV.empty())
    ErrorV = PathV + ": " + std::move(Why);
  return false;
}

bool DispatchTrace::FrameReader::open(const std::string &Path,
                                      uint64_t ExpectedWorkloadHash,
                                      std::string *Diag) {
  if (F) {
    std::fclose(F);
    F = nullptr;
  }
  PathV = Path;
  ErrorV.clear();
  NumEventsV = WorkloadHashV = ContentHashV = 0;
  QuickensV.clear();
  Dir.clear();
  Pending.clear();
  PendingPos = 0;
  NextFrame = 0;
  EventsOut = 0;
  PayloadStart = 0;
  // One failure funnel: one line naming exactly what was rejected, and
  // never a half-open reader.
  auto Fail = [&](std::string Why) {
    if (F) {
      std::fclose(F);
      F = nullptr;
    }
    ErrorV = Path + ": " + std::move(Why);
    if (Diag)
      *Diag = ErrorV;
    return false;
  };
  F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return Fail(format("cannot open: %s", std::strerror(errno)));
  if (std::fseek(F, 0, SEEK_END) != 0)
    return Fail("seek failed");
  long FileBytes = std::ftell(F);
  if (FileBytes < 0 || std::fseek(F, 0, SEEK_SET) != 0)
    return Fail("seek failed");
  // The version-independent prefix first, so a file of another version
  // is named as a stale cache entry however its payload is laid out.
  uint64_t Header[HeaderWords];
  if (std::fread(Header, sizeof(uint64_t), PrefixWords, F) != PrefixWords)
    return Fail(format("truncated: %ld bytes is shorter than the %zu-byte "
                       "header",
                       FileBytes, PrefixWords * sizeof(uint64_t)));
  if (Header[0] != FileMagic)
    return Fail("bad magic (not a trace file)");
  if (Header[1] != FileVersion)
    return Fail(format("format version %llu, expected %llu (stale cache "
                       "entry)",
                       (unsigned long long)Header[1],
                       (unsigned long long)FileVersion));
  if (Header[4] != ExpectedWorkloadHash)
    return Fail(format("workload hash %016llx does not match expected "
                       "%016llx (trace was captured from a different "
                       "workload)",
                       (unsigned long long)Header[4],
                       (unsigned long long)ExpectedWorkloadHash));
  uint64_t NumEvents = Header[2], NumQuickens = Header[3];

  if (std::fread(Header + PrefixWords, sizeof(uint64_t),
                 HeaderWords - PrefixWords, F) != HeaderWords - PrefixWords)
    return Fail(format("truncated: %ld bytes is shorter than the %zu-byte "
                       "header",
                       FileBytes, HeaderWords * sizeof(uint64_t)));
  // Header checksum first, before a single extension word is trusted:
  // it is what covers the stored logical hash [5] — every other word is
  // cross-checked by a downstream structural comparison, but [5] is
  // only ever declared, and verifying the declaration here is what lets
  // the decode skip the O(N) logical-hash recompute.
  if (fnv1a(Fnv1aOffset, Header, (HeaderWords - 1) * sizeof(uint64_t)) !=
      Header[HeaderWords - 1])
    return Fail("header checksum mismatch (bit corruption)");
  uint64_t EventsPerFrame = Header[6], NumFrames = Header[7];
  uint64_t QuickenBytes = Header[8], QuickenChecksum = Header[9];
  uint64_t FileBytesU = static_cast<uint64_t>(FileBytes);
  // The writer only ever emits FrameEvents; any other value is header
  // corruption today (a future frame-size change is a version bump).
  // Pinning it keeps every header byte load-bearing — a flipped
  // events-per-frame byte must not load, not even "accidentally
  // equivalently" when the trace happens to fit one frame either way.
  if (EventsPerFrame != FrameEvents)
    return Fail(format("corrupt header: %llu events per frame (expected "
                       "%llu)",
                       (unsigned long long)EventsPerFrame,
                       (unsigned long long)FrameEvents));
  uint64_t WantFrames =
      NumEvents == 0 ? 0 : (NumEvents + EventsPerFrame - 1) / EventsPerFrame;
  // Bound the directory by the file size before trusting NumFrames for
  // an allocation: each directory entry is 16 bytes, so a frame count
  // the file cannot even index is a corrupt header, full stop.
  if (NumFrames != WantFrames ||
      NumFrames > FileBytesU / (2 * sizeof(uint64_t)))
    return Fail(format("corrupt header: %llu frames for %llu events at "
                       "%llu events/frame",
                       (unsigned long long)NumFrames,
                       (unsigned long long)NumEvents,
                       (unsigned long long)EventsPerFrame));
  Dir.resize(2 * NumFrames);
  if (!Dir.empty() &&
      std::fread(Dir.data(), sizeof(uint64_t), Dir.size(), F) != Dir.size())
    return Fail("short read on frame directory");
  uint64_t PayloadBytes = 0;
  for (uint64_t Frame = 0; Frame < NumFrames; ++Frame) {
    uint64_t Bytes = Dir[2 * Frame];
    PayloadBytes += Bytes;
    if (Bytes > FileBytesU || PayloadBytes > FileBytesU)
      return Fail(format("corrupt directory: frame %llu claims %llu bytes",
                         (unsigned long long)Frame,
                         (unsigned long long)Bytes));
  }
  // Exact total-size check: truncation and trailing garbage are both
  // rejected before any payload is decoded.
  uint64_t Expect = sizeof(uint64_t) * (HeaderWords + 2 * NumFrames) +
                    PayloadBytes + QuickenBytes;
  if (Expect != FileBytesU)
    return Fail(format("size mismatch: header claims %llu payload + %llu "
                       "quicken bytes but the file holds %ld bytes "
                       "(truncated or trailing garbage)",
                       (unsigned long long)PayloadBytes,
                       (unsigned long long)QuickenBytes, FileBytes));
  // Every event costs at least one payload byte (its token varint) and
  // every quicken record at least five, so counts the payloads cannot
  // even spell are corrupt headers — checked before anything is sized
  // from them, so a corrupted count fails the open instead of throwing
  // out of an allocation.
  if (NumEvents > PayloadBytes)
    return Fail(format("corrupt header: %llu events cannot fit in %llu "
                       "payload bytes",
                       (unsigned long long)NumEvents,
                       (unsigned long long)PayloadBytes));
  if (NumQuickens > QuickenBytes / 5)
    return Fail(format("corrupt header: %llu quicken records cannot fit in "
                       "%llu quicken bytes",
                       (unsigned long long)NumQuickens,
                       (unsigned long long)QuickenBytes));
  // The quicken block sits after every frame payload; verify and
  // decode it now (it is small side-band metadata, and replays need it
  // random-access), then park the file position on the first frame.
  PayloadStart =
      static_cast<long>(sizeof(uint64_t) * (HeaderWords + 2 * NumFrames));
  if (std::fseek(F, PayloadStart + static_cast<long>(PayloadBytes),
                 SEEK_SET) != 0)
    return Fail("seek failed");
  Scratch.resize(QuickenBytes);
  if (QuickenBytes != 0 &&
      std::fread(Scratch.data(), 1, QuickenBytes, F) != QuickenBytes)
    return Fail("short read on quicken block");
  if (fnv1a(Fnv1aOffset, Scratch.data(), QuickenBytes) != QuickenChecksum)
    return Fail("quicken block checksum mismatch (bit corruption)");
  ByteReader QR(Scratch.data(), QuickenBytes);
  QuickensV.reserve(NumQuickens);
  uint64_t PrevAfter = 0;
  for (uint64_t I = 0; I < NumQuickens; ++I) {
    QuickenRecord Q;
    Q.AfterEvents = PrevAfter + QR.varint();
    uint64_t Index = QR.varint();
    uint64_t Op = QR.varint();
    int64_t A = unzigzag(QR.varint());
    int64_t B = unzigzag(QR.varint());
    if (QR.Fail || Index > 0xffffffffull || Op > 0xffffull)
      return Fail("quicken block is malformed");
    Q.Index = static_cast<uint32_t>(Index);
    Q.NewInstr.Op = static_cast<Opcode>(Op);
    Q.NewInstr.A = A;
    Q.NewInstr.B = B;
    PrevAfter = Q.AfterEvents;
    QuickensV.push_back(Q);
  }
  if (!QR.exhausted())
    return Fail("quicken block is malformed");
  if (std::fseek(F, PayloadStart, SEEK_SET) != 0)
    return Fail("seek failed");
  NumEventsV = NumEvents;
  WorkloadHashV = Header[4];
  ContentHashV = Header[5];
  return true;
}

bool DispatchTrace::FrameReader::read(size_t MaxEvents,
                                      std::vector<Event> &Out) {
  if (!F)
    return false; // never opened, or a previous failure closed us
  uint64_t Want64 = NumEventsV - EventsOut;
  if (Want64 > MaxEvents)
    Want64 = MaxEvents;
  size_t Want = static_cast<size_t>(Want64);
  size_t OutStart = Out.size();
  while (Want != 0) {
    if (PendingPos < Pending.size()) {
      size_t Take = Pending.size() - PendingPos;
      if (Take > Want)
        Take = Want;
      Out.insert(Out.end(), Pending.begin() + PendingPos,
                 Pending.begin() + PendingPos + Take);
      PendingPos += Take;
      EventsOut += Take;
      Want -= Take;
      continue;
    }
    // Next frame: checksum BEFORE decode — no decoded value is trusted
    // (or even computed) from a payload that fails it. A read that
    // consumes the whole frame decodes straight into Out; a partial
    // need decodes into Pending and hands out a prefix.
    uint64_t Bytes = Dir[2 * NextFrame];
    Scratch.resize(Bytes);
    if (Bytes != 0 && std::fread(Scratch.data(), 1, Bytes, F) != Bytes) {
      Out.resize(OutStart);
      return fail("short read on event frame");
    }
    if (fnv1a(Fnv1aOffset, Scratch.data(), Bytes) != Dir[2 * NextFrame + 1]) {
      Out.resize(OutStart);
      return fail(format("frame %llu checksum mismatch (bit corruption)",
                         (unsigned long long)NextFrame));
    }
    uint64_t Remaining = NumEventsV - NextFrame * uint64_t{FrameEvents};
    size_t FrameN = static_cast<size_t>(
        Remaining < FrameEvents ? Remaining : FrameEvents);
    ByteReader R(Scratch.data(), Bytes);
    if (Want >= FrameN) {
      if (!decodeEventFrame(R, FrameN, Out)) {
        Out.resize(OutStart);
        return fail(format("frame %llu payload is malformed",
                           (unsigned long long)NextFrame));
      }
      EventsOut += FrameN;
      Want -= FrameN;
    } else {
      Pending.clear();
      PendingPos = 0;
      if (!decodeEventFrame(R, FrameN, Pending)) {
        Out.resize(OutStart);
        return fail(format("frame %llu payload is malformed",
                           (unsigned long long)NextFrame));
      }
    }
    ++NextFrame;
  }
  return true;
}

bool DispatchTrace::FrameReader::rewind() {
  if (!F)
    return false;
  if (std::fseek(F, PayloadStart, SEEK_SET) != 0)
    return fail("seek failed");
  NextFrame = 0;
  Pending.clear();
  PendingPos = 0;
  EventsOut = 0;
  return true;
}
