//===- tests/TraceCodecTest.cpp - Trace file encoding ----------------------===//
///
/// Pins the trace file format under the bit-identity contract:
///
///  - the delta/varint encoding round-trips every trace shape (frame
///    boundaries, wild deltas, halt sentinels, quickens)
///    bit-identically, declares the FNV-1a hash of the logical stream,
///    and actually compresses walk-shaped dispatch streams (the ratio
///    the `[cache-gc]` lines report);
///  - streamed (FrameReader/TraceSource) and materialized (load())
///    decode hand out the identical event sequence;
///  - a file of the retired flat version 1 is rejected as a stale cache
///    entry everywhere, and the lab's recapture declares the same
///    logical hash, so ResultStore cells recorded under the old file
///    are still served without replay.
///
//===----------------------------------------------------------------------===//

#include "harness/ForthLab.h"
#include "harness/JavaLab.h"
#include "harness/ResultStore.h"
#include "harness/SweepExecutor.h"
#include "harness/SweepSpec.h"
#include "harness/Variants.h"
#include "support/Random.h"
#include "vmcore/DispatchTrace.h"
#include "vmcore/TraceSource.h"
#include "workloads/ForthSuite.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unistd.h>
#include <vector>

using namespace vmib;

namespace {

constexpr uint64_t WorkloadHash = 0xabcddcba1234ULL;

std::string tempPath(const char *Tag) {
  return "/tmp/vmib-codec-" + std::string(Tag) + "-" +
         std::to_string(::getpid()) + ".vmibtrace";
}

/// Round-trips \p T through a trace file and checks that the load is
/// bit-identical and the file declares the logical content hash.
void expectRoundTrip(const DispatchTrace &T, const std::string &What) {
  std::string Path = tempPath("roundtrip");
  ASSERT_TRUE(T.save(Path, WorkloadHash)) << What;
  DispatchTrace::FileInfo Info;
  ASSERT_TRUE(DispatchTrace::peekFileInfo(Path, Info)) << What;
  EXPECT_EQ(T.numEvents(), Info.NumEvents) << What;
  EXPECT_EQ(T.numQuickens(), Info.NumQuickens) << What;
  uint64_t Peeked = 0;
  ASSERT_TRUE(DispatchTrace::peekContentHash(Path, Peeked)) << What;
  EXPECT_EQ(T.contentHash(), Peeked) << What;
  DispatchTrace Loaded;
  std::string Diag;
  ASSERT_TRUE(Loaded.load(Path, WorkloadHash, &Diag)) << What << ": "
                                                      << Diag;
  EXPECT_EQ(T.events(), Loaded.events()) << What;
  EXPECT_EQ(T.numQuickens(), Loaded.numQuickens()) << What;
  EXPECT_EQ(T.contentHash(), Loaded.contentHash()) << What;
  std::remove(Path.c_str());
}

/// FNV-1a over the logical stream exactly as the file header defines
/// it: the packed event words, then four words per quicken record.
uint64_t logicalStreamHash(const DispatchTrace &T) {
  uint64_t H = 0xcbf29ce484222325ULL;
  auto Mix = [&H](uint64_t Word) {
    for (unsigned B = 0; B < 8; ++B) {
      H ^= (Word >> (8 * B)) & 0xFF;
      H *= 0x100000001b3ULL;
    }
  };
  for (DispatchTrace::Event E : T.events())
    Mix(E);
  for (const DispatchTrace::QuickenRecord &Q : T.quickens()) {
    Mix(Q.AfterEvents);
    Mix((static_cast<uint64_t>(Q.NewInstr.Op) << 32) | Q.Index);
    Mix(static_cast<uint64_t>(Q.NewInstr.A));
    Mix(static_cast<uint64_t>(Q.NewInstr.B));
  }
  return H;
}

constexpr uint64_t TraceMagic = 0x0143525442494d56ULL; // "VMIBTRC\1"

/// Writes \p T at \p Path in the retired version-1 flat layout — the
/// six header words, then the raw event words, then four words per
/// quicken record — which no writer in the library produces any more.
/// \returns the header words it wrote.
std::vector<uint64_t> writeV1(const DispatchTrace &T, const std::string &Path,
                              uint64_t Workload) {
  std::vector<uint64_t> Words = {TraceMagic,     1,
                                 T.numEvents(),  T.numQuickens(),
                                 Workload,       logicalStreamHash(T)};
  std::vector<uint64_t> Header = Words;
  Words.insert(Words.end(), T.events().begin(), T.events().end());
  for (const DispatchTrace::QuickenRecord &Q : T.quickens()) {
    Words.push_back(Q.AfterEvents);
    Words.push_back((static_cast<uint64_t>(Q.NewInstr.Op) << 32) | Q.Index);
    Words.push_back(static_cast<uint64_t>(Q.NewInstr.A));
    Words.push_back(static_cast<uint64_t>(Q.NewInstr.B));
  }
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  EXPECT_NE(nullptr, F);
  if (F) {
    EXPECT_EQ(Words.size(),
              std::fwrite(Words.data(), sizeof(uint64_t), Words.size(), F));
    EXPECT_EQ(0, std::fclose(F));
  }
  return Header;
}

} // namespace

TEST(TraceCodecTest, LoadedTraceHashIsTheVerifiedDeclaration) {
  // contentHash() of a loaded trace is the hash load() verified — O(1),
  // never re-derived: it equals the header declaration and the FNV-1a
  // over the logical stream, and it stops applying the moment the
  // trace grows.
  DispatchTrace T;
  for (uint32_t I = 0; I < 70000; ++I) // spans two frames
    T.append(I % 113, (I * 7 + 1) % 113);
  VMInstr Q;
  Q.Op = 5;
  Q.A = -3;
  Q.B = int64_t{1} << 40;
  T.appendQuicken(17, Q);
  const uint64_t Logical = logicalStreamHash(T);
  EXPECT_EQ(T.contentHash(), Logical);
  T.seal();
  EXPECT_EQ(T.contentHash(), Logical);

  std::string Path = tempPath("sealed");
  ASSERT_TRUE(T.save(Path, WorkloadHash));
  uint64_t Peeked = 0;
  ASSERT_TRUE(DispatchTrace::peekContentHash(Path, Peeked));
  DispatchTrace Loaded;
  ASSERT_TRUE(Loaded.load(Path, WorkloadHash));
  EXPECT_EQ(Loaded.contentHash(), Peeked);
  EXPECT_EQ(Loaded.contentHash(), Logical);
  EXPECT_EQ(logicalStreamHash(Loaded), Logical);

  Loaded.append(1, 2);
  EXPECT_NE(Loaded.contentHash(), Logical);
  EXPECT_EQ(Loaded.contentHash(), logicalStreamHash(Loaded));
  Loaded.appendQuicken(3, Q);
  EXPECT_EQ(Loaded.contentHash(), logicalStreamHash(Loaded));
  Loaded.clear();
  EXPECT_EQ(Loaded.contentHash(), logicalStreamHash(DispatchTrace()));

  // The load trusts the checksummed declaration outright: re-declare a
  // different hash under a valid header checksum and the loaded trace
  // reports it — proof that nothing re-derives the hash from events.
  uint64_t Header[11];
  std::FILE *F = std::fopen(Path.c_str(), "r+b");
  ASSERT_NE(nullptr, F);
  ASSERT_EQ(11u, std::fread(Header, sizeof(uint64_t), 11, F));
  Header[5] = ~Logical;
  uint64_t Check = 0xcbf29ce484222325ULL;
  const unsigned char *Bytes = reinterpret_cast<const unsigned char *>(Header);
  for (size_t I = 0; I < 10 * sizeof(uint64_t); ++I) {
    Check ^= Bytes[I];
    Check *= 0x100000001b3ULL;
  }
  Header[10] = Check;
  std::fseek(F, 0, SEEK_SET);
  ASSERT_EQ(11u, std::fwrite(Header, sizeof(uint64_t), 11, F));
  std::fclose(F);
  DispatchTrace Redeclared;
  std::string Diag;
  ASSERT_TRUE(Redeclared.load(Path, WorkloadHash, &Diag)) << Diag;
  EXPECT_EQ(Redeclared.contentHash(), ~Logical);
  std::remove(Path.c_str());
}

TEST(TraceCodecTest, RoundTripShapes) {
  // Empty.
  expectRoundTrip(DispatchTrace(), "empty trace");

  // One event, ending in the halt sentinel (next = 0xffffffff).
  {
    DispatchTrace T;
    T.append(7, 0xffffffffu);
    expectRoundTrip(T, "single halt event");
  }

  // Exactly one frame, one frame + 1, and one frame - 1 (the frame
  // size is 65536 events; boundary off-by-ones are where framed codecs
  // break).
  for (uint32_t N : {65535u, 65536u, 65537u}) {
    DispatchTrace T;
    uint32_t Ip = 0;
    for (uint32_t I = 0; I < N; ++I) {
      uint32_t Next = I % 16 == 15 ? (Ip * 2654435761u) % 4096 : Ip + 1;
      T.append(Ip, Next);
      Ip = Next;
    }
    expectRoundTrip(T, "frame boundary " + std::to_string(N));
  }

  // Adversarial deltas: maximal forward/backward jumps in both cur and
  // next, so every varint width and both zigzag signs appear.
  {
    DispatchTrace T;
    Xoroshiro128 Rng(0x636f646563ULL);
    for (int I = 0; I < 5000; ++I)
      T.append(static_cast<uint32_t>(Rng.next()),
               static_cast<uint32_t>(Rng.next()));
    expectRoundTrip(T, "random jumps");
  }

  // Quicken records: clustered, sign-mixed operands, wide indices.
  {
    DispatchTrace T;
    for (uint32_t I = 0; I < 300; ++I) {
      T.append(I, I + 1);
      if (I % 3 == 0) {
        VMInstr Q;
        Q.Op = static_cast<Opcode>(I % 31);
        Q.A = I % 2 == 0 ? -(int64_t{1} << 40) - I : (int64_t{1} << 50) + I;
        Q.B = -static_cast<int64_t>(I) * 7;
        T.appendQuicken(I * 9973 % 100000, Q);
      }
    }
    expectRoundTrip(T, "quicken stress");
  }
}

TEST(TraceCodecTest, WalkTraceCompressesAtLeastTwofold) {
  // A dispatch-shaped walk (straight-line runs broken by indirect
  // jumps, like every real and synthetic workload) must compress >= 2x
  // against its decoded footprint — the floor the `[cache-gc]`
  // ratio= field is expected to show.
  DispatchTrace T;
  Xoroshiro128 Rng(0x77616c6bULL);
  uint32_t Ip = 0;
  for (uint32_t I = 0; I < 300000; ++I) {
    uint32_t Next = Ip % 16 == 15
                        ? static_cast<uint32_t>(Rng.nextBelow(4096)) * 16
                        : Ip + 1;
    T.append(Ip, Next);
    Ip = Next;
  }
  std::string Path = tempPath("ratio");
  ASSERT_TRUE(T.save(Path, WorkloadHash));
  DispatchTrace::FileInfo Info;
  ASSERT_TRUE(DispatchTrace::peekFileInfo(Path, Info));
  EXPECT_GE(Info.ratio(), 2.0) << "trace encoding stopped compressing: "
                               << Info.FileBytes << " bytes for "
                               << Info.LogicalBytes << " logical";
  std::remove(Path.c_str());
}

TEST(TraceCodecTest, VersionOneFileIsAStaleCacheEntry) {
  // No writer emits version 1 any more, so the file is spelled out by
  // hand. Every reader refuses it: the two loaders name it a stale
  // cache entry, and the header peeks that key store probes see no
  // trace at all.
  DispatchTrace T;
  for (uint32_t I = 0; I < 3000; ++I)
    T.append(I % 61, (I + 1) % 61);
  VMInstr Q;
  Q.Op = 9;
  Q.A = -7;
  Q.B = 11;
  T.appendQuicken(42, Q);
  std::string Path = tempPath("v1");
  writeV1(T, Path, WorkloadHash);
  const std::string Stale = "format version 1, expected 2 (stale cache entry)";

  DispatchTrace Loaded;
  Loaded.append(1, 2); // a failed load must clear this
  std::string Diag;
  EXPECT_FALSE(Loaded.load(Path, WorkloadHash, &Diag));
  EXPECT_NE(std::string::npos, Diag.find(Stale)) << Diag;
  EXPECT_EQ(0u, Loaded.numEvents());

  DispatchTrace::FrameReader R;
  Diag.clear();
  EXPECT_FALSE(R.open(Path, WorkloadHash, &Diag));
  EXPECT_NE(std::string::npos, Diag.find(Stale)) << Diag;
  EXPECT_FALSE(R.isOpen());

  uint64_t Hash = 0;
  EXPECT_FALSE(DispatchTrace::peekContentHash(Path, Hash));
  DispatchTrace::FileInfo Info;
  EXPECT_FALSE(DispatchTrace::peekFileInfo(Path, Info));
  std::remove(Path.c_str());
}

TEST(TraceCodecTest, VersionOneCacheEntryRecapturesOntoItsStoreCells) {
  // The upgrade path end to end: a trace cache still holding a
  // version-1 file, and a result store whose cells were recorded under
  // the hash that file declares.
  char DirTemplate[] = "/tmp/vmib-codec-upgrade-XXXXXX";
  ASSERT_NE(nullptr, ::mkdtemp(DirTemplate));
  const std::string Dir = DirTemplate;
  ASSERT_EQ(0, ::setenv("VMIB_TRACE_CACHE", (Dir + "/cache").c_str(), 1));

  SweepSpec Spec;
  Spec.Name = "codec-upgrade";
  Spec.Suite = "forth";
  Spec.Benchmarks = {forthSuite()[0].Name};
  Spec.Variants = {makeVariant(DispatchStrategy::Threaded),
                   makeVariant(DispatchStrategy::StaticRepl)};
  Spec.Cpus = {"p4northwood"};
  const std::string &B = Spec.Benchmarks[0];
  const std::string Path = DispatchTrace::cachePathFor("forth-" + B);

  // Capture once, then put the entry back in its version-1 form.
  std::vector<uint64_t> V1Header;
  {
    ForthLab Capture;
    V1Header = writeV1(Capture.trace(B), Path, Capture.referenceHash(B));
  }

  // Cells recorded while the version-1 file was current. Sentinel
  // values: no replay produces them.
  const std::string StoreDir = Dir + "/results";
  std::vector<PerfCounters> Stored(Spec.Variants.size());
  std::string Diag;
  {
    ResultStore Store;
    ASSERT_TRUE(Store.open(StoreDir, &Diag)) << Diag;
    for (size_t M = 0; M < Stored.size(); ++M) {
      Stored[M].Cycles = 1000 + M;
      Stored[M].DispatchCount = 4096;
      Store.record(cellStoreKey(Spec, M, V1Header[5]), Stored[M]);
    }
    ASSERT_TRUE(Store.flush());
  }

  // The lab warns, recaptures, and leaves a current-version file that
  // declares the same logical hash.
  {
    ForthLab Lab;
    ::testing::internal::CaptureStderr();
    uint64_t Recaptured = Lab.trace(B).contentHash();
    std::string Err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(std::string::npos,
              Err.find("format version 1, expected 2 (stale cache entry)"))
        << Err;
    EXPECT_EQ(V1Header[5], Recaptured);
  }
  DispatchTrace Reloaded;
  ASSERT_TRUE(Reloaded.load(Path, V1Header[4], &Diag)) << Diag;
  EXPECT_EQ(V1Header[5], Reloaded.contentHash());

  // So the cells recorded under the old file are served, and nothing
  // replays.
  {
    ResultStore Store;
    ASSERT_TRUE(Store.open(StoreDir, &Diag)) << Diag;
    SweepExecutor Executor;
    Executor.setResultStore(&Store);
    std::vector<PerfCounters> Cells;
    SweepRunStats Stats = Executor.runAll(Spec, 1, Cells);
    EXPECT_EQ(0u, Stats.ReplayedEvents);
    EXPECT_EQ(Spec.numCells(), Store.stats().Hits);
    ASSERT_EQ(Spec.numCells(), Cells.size());
    for (size_t M = 0; M < Stored.size(); ++M)
      EXPECT_EQ(Stored[M].Cycles, Cells[Spec.cellIndex(0, M)].Cycles)
          << "member " << M;
  }
  ::unsetenv("VMIB_TRACE_CACHE");
  std::string Cleanup = "rm -rf '" + Dir + "'";
  ASSERT_EQ(0, std::system(Cleanup.c_str()));
}

namespace {

/// A multi-frame walk with quicken records clustered around the
/// 64K-event frame boundaries — the shapes where a streaming decoder
/// with per-frame state is most likely to diverge from load().
DispatchTrace makeMultiFrameTrace(uint32_t NumEvents) {
  DispatchTrace T;
  Xoroshiro128 Rng(0x73747265616dULL);
  uint32_t Ip = 0;
  for (uint32_t I = 0; I < NumEvents; ++I) {
    uint32_t Next = Ip % 16 == 15
                        ? static_cast<uint32_t>(Rng.nextBelow(4096)) * 16
                        : Ip + 1;
    T.append(Ip, Next);
    Ip = Next;
    // Quickens at, just before, and just after each frame boundary,
    // plus a sparse background population.
    uint32_t InFrame = I % 65536;
    if (InFrame == 65535 || InFrame == 0 || InFrame == 1 || I % 9973 == 0) {
      VMInstr Q;
      Q.Op = static_cast<Opcode>(I % 31);
      Q.A = static_cast<int64_t>(I) * 3 - 1000;
      Q.B = -static_cast<int64_t>(InFrame);
      T.appendQuicken(I, Q);
    }
  }
  return T;
}

} // namespace

TEST(TraceCodecTest, StreamingDecodeBitIdenticalToMaterialized) {
  // ~2.3 frames of events, quickens straddling both frame boundaries.
  DispatchTrace T = makeMultiFrameTrace(150000);
  std::string Path = tempPath("stream");
  ASSERT_TRUE(T.save(Path, WorkloadHash));
  TraceSource Stream;
  std::string Diag;
  ASSERT_TRUE(TraceSource::openStreaming(Path, WorkloadHash, Stream, &Diag))
      << Diag;
  ASSERT_TRUE(Stream.streaming());
  EXPECT_EQ(T.numEvents(), Stream.numEvents());
  EXPECT_EQ(T.contentHash(), Stream.contentHash());
  ASSERT_EQ(T.numQuickens(), Stream.numQuickens());
  for (size_t I = 0; I < T.numQuickens(); ++I) {
    EXPECT_EQ(T.quickens()[I].AfterEvents, Stream.quickens()[I].AfterEvents);
    EXPECT_EQ(T.quickens()[I].Index, Stream.quickens()[I].Index);
    // Field by field: VMInstr has padding after Op, whose bytes are
    // indeterminate and never serialized.
    const VMInstr &Want = T.quickens()[I].NewInstr;
    const VMInstr &Got = Stream.quickens()[I].NewInstr;
    EXPECT_EQ(Want.Op, Got.Op);
    EXPECT_EQ(Want.A, Got.A);
    EXPECT_EQ(Want.B, Got.B);
  }

  TraceSource Mat(T);
  // Tile sizes chosen to hit every boundary class: odd (tiles
  // straddle frames), the default, one frame exactly, and oversize
  // (one tile spanning the whole trace).
  for (size_t Chunk : {size_t(999), size_t(0), size_t(65536),
                       size_t(1) << 21}) {
    TraceSource::Cursor SC = Stream.cursor(Chunk);
    TraceSource::Cursor MC = Mat.cursor(Chunk);
    std::vector<DispatchTrace::Event> SBuf, MBuf;
    EventSpan SSpan, MSpan;
    size_t Tiles = 0;
    for (;;) {
      bool SMore = SC.nextInto(SBuf, SSpan);
      bool MMore = MC.nextInto(MBuf, MSpan);
      ASSERT_EQ(MMore, SMore) << "tile count diverged at tile " << Tiles
                              << " chunk " << Chunk;
      if (!SMore)
        break;
      ASSERT_EQ(MSpan.Begin, SSpan.Begin) << "chunk " << Chunk;
      ASSERT_EQ(MSpan.End, SSpan.End) << "chunk " << Chunk;
      ASSERT_EQ(0, std::memcmp(MSpan.Data, SSpan.Data,
                               SSpan.size() * sizeof(DispatchTrace::Event)))
          << "tile " << Tiles << " chunk " << Chunk;
      ++Tiles;
    }
  }
  std::remove(Path.c_str());
}

TEST(TraceCodecTest, FrameReaderIncrementalApi) {
  DispatchTrace T = makeMultiFrameTrace(70000); // frame + partial frame
  std::string Path = tempPath("reader");
  ASSERT_TRUE(T.save(Path, WorkloadHash));

  DispatchTrace::FrameReader R;
  std::string Diag;
  ASSERT_TRUE(R.open(Path, WorkloadHash, &Diag)) << Diag;
  EXPECT_EQ(T.numEvents(), R.numEvents());
  EXPECT_EQ(T.numQuickens(), R.numQuickens());
  EXPECT_EQ(WorkloadHash, R.workloadHash());
  EXPECT_EQ(T.contentHash(), R.contentHash());

  // Odd-sized bites across the frame boundary; read() appends.
  std::vector<DispatchTrace::Event> Got;
  while (R.eventsRemaining() > 0) {
    size_t Before = Got.size();
    ASSERT_TRUE(R.read(777, Got)) << R.error();
    ASSERT_GT(Got.size(), Before) << "no progress before end of stream";
  }
  ASSERT_EQ(T.numEvents(), Got.size());
  EXPECT_EQ(0, std::memcmp(T.events().data(), Got.data(),
                           Got.size() * sizeof(DispatchTrace::Event)));
  // Exhausted: a further read appends nothing but still succeeds.
  size_t AtEnd = Got.size();
  ASSERT_TRUE(R.read(100, Got));
  EXPECT_EQ(AtEnd, Got.size());

  // Rewind, second pass in one gulp: identical bytes.
  ASSERT_TRUE(R.rewind());
  EXPECT_EQ(T.numEvents(), R.eventsRemaining());
  std::vector<DispatchTrace::Event> Again;
  ASSERT_TRUE(R.read(T.numEvents(), Again)) << R.error();
  EXPECT_EQ(0, std::memcmp(T.events().data(), Again.data(),
                           Again.size() * sizeof(DispatchTrace::Event)));
  std::remove(Path.c_str());
}

TEST(TraceCodecTest, StreamingZeroEventsAndOversizeChunk) {
  DispatchTrace Empty;
  std::string Path = tempPath("empty");
  ASSERT_TRUE(Empty.save(Path, WorkloadHash));
  TraceSource S;
  std::string Diag;
  ASSERT_TRUE(TraceSource::openStreaming(Path, WorkloadHash, S, &Diag))
      << Diag;
  EXPECT_EQ(0u, S.numEvents());
  TraceSource::Cursor C = S.cursor(4096);
  std::vector<DispatchTrace::Event> Buf;
  EventSpan Span;
  EXPECT_FALSE(C.nextInto(Buf, Span)) << "zero-event trace yielded a tile";
  std::remove(Path.c_str());
}

TEST(TraceCodecTest, StreamingRejectsBitCorruption) {
  DispatchTrace T = makeMultiFrameTrace(100000);
  std::string Path = tempPath("corrupt");

  // open() validates header/directory/quickens; a flipped byte in an
  // event frame is caught by that frame's checksum at read() time,
  // before any decoded event escapes.
  ASSERT_TRUE(T.save(Path, WorkloadHash));
  // Find the payload region: flip a byte well inside the event
  // frames (half-way through the file is always event payload for
  // this shape — quickens are a tiny tail).
  FILE *F = std::fopen(Path.c_str(), "r+b");
  ASSERT_NE(nullptr, F);
  std::fseek(F, 0, SEEK_END);
  long Size = std::ftell(F);
  std::fseek(F, Size / 2, SEEK_SET);
  int Byte = std::fgetc(F);
  std::fseek(F, Size / 2, SEEK_SET);
  std::fputc(Byte ^ 0x40, F);
  std::fclose(F);

  DispatchTrace::FrameReader R;
  std::string Diag;
  ASSERT_TRUE(R.open(Path, WorkloadHash, &Diag))
      << "open should defer payload verification: " << Diag;
  std::vector<DispatchTrace::Event> Out;
  bool Failed = false;
  while (R.eventsRemaining() > 0)
    if (!R.read(65536, Out)) {
      Failed = true;
      break;
    }
  ASSERT_TRUE(Failed) << "corrupt frame decoded without complaint";
  EXPECT_NE(std::string::npos, R.error().find("checksum"))
      << "unexpected diagnostic: " << R.error();

  std::remove(Path.c_str());
}
