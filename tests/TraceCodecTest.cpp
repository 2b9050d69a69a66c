//===- tests/TraceCodecTest.cpp - Trace encoding + batched kernels --------===//
///
/// Pins the two bandwidth layers PR 8 added under the existing
/// bit-identity contract:
///
///  - the v2 delta/varint trace encoding round-trips every trace shape
///    (frame boundaries, wild deltas, halt sentinels, quickens)
///    bit-identically, declares the same logical content hash as the
///    v1 flat encoding of the same trace, and actually compresses
///    walk-shaped dispatch streams (the ratio the :decodebandwidth
///    line reports);
///  - ResultStore cell keys are derived from that logical hash, so
///    re-encoding a cached trace serves the SAME store cells with zero
///    recompute;
///  - the batched (AoSoA) gang kernel leaves every lane's NoEvictBTB
///    in the identical state, with identical miss counts, as the
///    scalar per-member kernel — including the 2-bit-counter and
///    overflow paths the AVX2 tag search must not shortcut.
///
//===----------------------------------------------------------------------===//

#include "harness/ResultStore.h"
#include "harness/SweepSpec.h"
#include "harness/Variants.h"
#include "support/Random.h"
#include "vmcore/DispatchTrace.h"
#include "vmcore/GangKernels.h"
#include "vmcore/TraceSource.h"

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

/// Round-trips \p T through both encodings at \p Path and checks that
/// the loads are bit-identical and both files declare the identical
/// logical content hash.
void expectRoundTrip(const DispatchTrace &T, const std::string &What) {
  std::string Path = tempPath("roundtrip");
  for (bool Compressed : {false, true}) {
    ASSERT_TRUE(T.saveEncoded(Path, WorkloadHash, Compressed)) << What;
    DispatchTrace::FileInfo Info;
    ASSERT_TRUE(DispatchTrace::peekFileInfo(Path, Info)) << What;
    EXPECT_EQ(Compressed ? 2u : 1u, Info.Version) << What;
    EXPECT_EQ(T.numEvents(), Info.NumEvents) << What;
    EXPECT_EQ(T.numQuickens(), Info.NumQuickens) << What;
    if (!Compressed)
      EXPECT_EQ(Info.FileBytes, Info.LogicalBytes) << What;
    uint64_t Peeked = 0;
    ASSERT_TRUE(DispatchTrace::peekContentHash(Path, Peeked)) << What;
    EXPECT_EQ(T.contentHash(), Peeked)
        << What << (Compressed ? " (compressed)" : " (flat)");
    DispatchTrace Loaded;
    std::string Diag;
    ASSERT_TRUE(Loaded.load(Path, WorkloadHash, &Diag)) << What << ": "
                                                        << Diag;
    EXPECT_EQ(T.events(), Loaded.events()) << What;
    EXPECT_EQ(T.numQuickens(), Loaded.numQuickens()) << What;
    EXPECT_EQ(T.contentHash(), Loaded.contentHash()) << What;
  }
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

} // namespace

TEST(TraceCodecTest, LoadedTraceHashIsTheVerifiedDeclaration) {
  // contentHash() of a loaded trace is the hash load() verified — O(1),
  // never re-derived: under both encodings it equals the header
  // declaration and the FNV-1a over the logical stream, it survives
  // re-encoding, and it stops applying the moment the trace grows.
  DispatchTrace T;
  for (uint32_t I = 0; I < 70000; ++I) // spans two v2 frames
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
  for (bool Compressed : {false, true}) {
    const char *Enc = Compressed ? "v2" : "v1";
    ASSERT_TRUE(T.saveEncoded(Path, WorkloadHash, Compressed)) << Enc;
    uint64_t Peeked = 0;
    ASSERT_TRUE(DispatchTrace::peekContentHash(Path, Peeked)) << Enc;
    DispatchTrace Loaded;
    ASSERT_TRUE(Loaded.load(Path, WorkloadHash)) << Enc;
    EXPECT_EQ(Loaded.contentHash(), Peeked) << Enc;
    EXPECT_EQ(Loaded.contentHash(), Logical) << Enc;
    EXPECT_EQ(logicalStreamHash(Loaded), Logical) << Enc;

    ASSERT_TRUE(Loaded.saveEncoded(Path, WorkloadHash, !Compressed)) << Enc;
    ASSERT_TRUE(DispatchTrace::peekContentHash(Path, Peeked)) << Enc;
    EXPECT_EQ(Peeked, Logical) << Enc << " re-encoded";

    Loaded.append(1, 2);
    EXPECT_NE(Loaded.contentHash(), Logical) << Enc;
    EXPECT_EQ(Loaded.contentHash(), logicalStreamHash(Loaded)) << Enc;
    Loaded.appendQuicken(3, Q);
    EXPECT_EQ(Loaded.contentHash(), logicalStreamHash(Loaded)) << Enc;
    Loaded.clear();
    EXPECT_EQ(Loaded.contentHash(), logicalStreamHash(DispatchTrace()))
        << Enc;
  }

  // The v2 load trusts the checksummed declaration outright: re-declare
  // a different hash under a valid header checksum and the loaded trace
  // reports it — proof that nothing re-derives the hash from events.
  ASSERT_TRUE(T.saveEncoded(Path, WorkloadHash, /*Compressed=*/true));
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

  // Exactly one frame, one frame + 1, and one frame - 1 (the v2 frame
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
  // against its v1 flat footprint — the floor the :decodebandwidth
  // line is expected to show in CI.
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
  ASSERT_TRUE(T.saveEncoded(Path, WorkloadHash, /*Compressed=*/true));
  DispatchTrace::FileInfo Info;
  ASSERT_TRUE(DispatchTrace::peekFileInfo(Path, Info));
  EXPECT_GE(Info.ratio(), 2.0) << "v2 encoding stopped compressing: "
                               << Info.FileBytes << " bytes for "
                               << Info.LogicalBytes << " logical";
  std::remove(Path.c_str());
}

TEST(TraceCodecTest, ReencodedTraceHitsSameStoreCells) {
  // The encoding-invariance satellite end to end: record cells keyed
  // by a compressed trace file, re-encode the file flat, and the store
  // must serve the same cells — the key is the logical content hash,
  // not the bytes on disk.
  SweepSpec Spec;
  Spec.Name = "codec";
  Spec.Suite = "forth";
  Spec.Benchmarks = {"fib"};
  Spec.Variants = {makeVariant(DispatchStrategy::Threaded),
                   makeVariant(DispatchStrategy::StaticRepl)};
  Spec.Cpus = {"p4northwood"};

  DispatchTrace T;
  for (uint32_t I = 0; I < 4096; ++I)
    T.append(I % 97, (I + 1) % 97);
  std::string TracePath = tempPath("store");

  char StoreTemplate[] = "/tmp/vmib-codec-store-XXXXXX";
  ASSERT_NE(nullptr, ::mkdtemp(StoreTemplate));
  std::string StoreDir = StoreTemplate;
  {
    ResultStore Store;
    std::string Diag;
    ASSERT_TRUE(Store.open(StoreDir, &Diag)) << Diag;

    ASSERT_TRUE(T.saveEncoded(TracePath, WorkloadHash, /*Compressed=*/true));
    uint64_t CompressedHash = 0;
    ASSERT_TRUE(DispatchTrace::peekContentHash(TracePath, CompressedHash));
    for (size_t M = 0; M < Spec.Variants.size(); ++M) {
      PerfCounters C;
      C.Cycles = 1000 + M;
      C.DispatchCount = 4096;
      Store.record(cellStoreKey(Spec, M, CompressedHash), C);
    }
    ASSERT_TRUE(Store.flush());

    ASSERT_TRUE(T.saveEncoded(TracePath, WorkloadHash, /*Compressed=*/false));
    uint64_t FlatHash = 0;
    ASSERT_TRUE(DispatchTrace::peekContentHash(TracePath, FlatHash));
    EXPECT_EQ(CompressedHash, FlatHash);
    for (size_t M = 0; M < Spec.Variants.size(); ++M) {
      PerfCounters C;
      EXPECT_TRUE(Store.probe(cellStoreKey(Spec, M, FlatHash), C))
          << "member " << M << " missed after re-encoding";
      EXPECT_EQ(1000 + M, C.Cycles);
    }
  }
  std::remove(TracePath.c_str());
  std::string Cleanup = "rm -rf '" + StoreDir + "'";
  ASSERT_EQ(0, std::system(Cleanup.c_str()));
}

TEST(TraceCodecTest, BatchedKernelMatchesScalarLanes) {
  // Eight lanes with deliberately mixed geometries: 4-way lanes take
  // the AVX2 tag search (when the host has it), everything else the
  // scalar step inside the same pass. Each must finish with the exact
  // per-member miss count, table contents and overflow flag the scalar
  // kernel produces.
  std::vector<BTBConfig> Geometries;
  {
    BTBConfig C;
    C.Entries = 64;
    C.Ways = 4;
    Geometries.push_back(C); // AVX2-eligible, overflows under pressure
    C.Entries = 512;
    C.Ways = 4;
    C.TwoBitCounters = true;
    Geometries.push_back(C); // AVX2-eligible, hysteresis path
    C.Entries = 512;
    C.Ways = 2;
    C.TwoBitCounters = false;
    Geometries.push_back(C); // scalar-in-batch lane
    C.Entries = 513;
    C.Ways = 3;
    Geometries.push_back(C); // non-power-of-two sets, scalar lane
  }

  gang::DecodedChunk D;
  Xoroshiro128 Rng(0x6b65726eULL);
  const size_t NumRecords = 20000;
  D.Branches.resize(NumRecords);
  for (size_t I = 0; I < NumRecords; ++I) {
    // ~600 distinct sites: enough reuse for hits, enough spread for
    // conflict-driven overflow in the 64-entry geometry.
    Addr Site = 0x1000 + (Rng.nextBelow(600) << 2);
    Addr Target = 0x200000 + (Rng.nextBelow(900) << 4);
    D.Branches[I].Site = Site;
    D.Branches[I].TargetHint = Target;
  }
  D.NumBranches = NumRecords;

  // Scalar reference: one member at a time through the shared
  // runDecodedBranches path every non-batched replay uses.
  std::vector<NoEvictBTB> Reference;
  std::vector<uint64_t> ReferenceMisses;
  for (size_t L = 0; L < 8; ++L)
    Reference.emplace_back(Geometries[L % Geometries.size()]);
  for (NoEvictBTB &B : Reference)
    ReferenceMisses.push_back(gang::runDecodedBranches(D, B));

  // Batched: all eight lanes in one pass.
  std::vector<NoEvictBTB> Batched;
  for (size_t L = 0; L < 8; ++L)
    Batched.emplace_back(Geometries[L % Geometries.size()]);
  gang::BtbLane Lanes[gang::MaxBatchLanes];
  for (size_t L = 0; L < 8; ++L)
    Lanes[L].V = Batched[L].kernelView();
  gang::runDecodedBranchesBatched(D, Lanes, 8);

  for (size_t L = 0; L < 8; ++L) {
    EXPECT_EQ(ReferenceMisses[L], Lanes[L].Misses) << "lane " << L;
    EXPECT_EQ(Reference[L].overflowed(), Batched[L].overflowed())
        << "lane " << L;
    // The tables themselves: replay a probe stream through both and
    // compare predictions — any hidden state divergence surfaces as a
    // differing prediction within one set scan.
    gang::DecodedChunk Probe;
    Probe.Branches.resize(600);
    for (size_t I = 0; I < 600; ++I) {
      Probe.Branches[I].Site = 0x1000 + ((I * 7 % 600) << 2);
      Probe.Branches[I].TargetHint = 0x300000;
    }
    Probe.NumBranches = Probe.Branches.size();
    EXPECT_EQ(gang::runDecodedBranches(Probe, Reference[L]),
              gang::runDecodedBranches(Probe, Batched[L]))
        << "lane " << L << " tables diverged";
  }
  EXPECT_TRUE(Reference[0].overflowed())
      << "pressure geometry never overflowed; the overflow path went "
         "untested";
}

namespace {

/// A multi-frame walk with quicken records clustered around the v2
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
  for (bool Compressed : {false, true}) {
    ASSERT_TRUE(T.saveEncoded(Path, WorkloadHash, Compressed));

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
            << "tile " << Tiles << " chunk " << Chunk
            << (Compressed ? " (compressed)" : " (flat)");
        ++Tiles;
      }
    }
  }
  std::remove(Path.c_str());
}

TEST(TraceCodecTest, FrameReaderIncrementalApi) {
  DispatchTrace T = makeMultiFrameTrace(70000); // frame + partial frame
  std::string Path = tempPath("reader");
  ASSERT_TRUE(T.saveEncoded(Path, WorkloadHash, /*Compressed=*/true));

  DispatchTrace::FrameReader R;
  std::string Diag;
  ASSERT_TRUE(R.open(Path, WorkloadHash, &Diag)) << Diag;
  EXPECT_EQ(2u, R.version());
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
  for (bool Compressed : {false, true}) {
    ASSERT_TRUE(Empty.saveEncoded(Path, WorkloadHash, Compressed));
    TraceSource S;
    std::string Diag;
    ASSERT_TRUE(TraceSource::openStreaming(Path, WorkloadHash, S, &Diag))
        << Diag;
    EXPECT_EQ(0u, S.numEvents());
    TraceSource::Cursor C = S.cursor(4096);
    std::vector<DispatchTrace::Event> Buf;
    EventSpan Span;
    EXPECT_FALSE(C.nextInto(Buf, Span)) << "zero-event trace yielded a tile";
  }
  std::remove(Path.c_str());
}

TEST(TraceCodecTest, StreamingRejectsBitCorruption) {
  DispatchTrace T = makeMultiFrameTrace(100000);
  std::string Path = tempPath("corrupt");

  // v2: open() validates header/directory/quickens; a flipped byte in
  // an event frame is caught by that frame's checksum at read() time,
  // before any decoded event escapes.
  ASSERT_TRUE(T.saveEncoded(Path, WorkloadHash, /*Compressed=*/true));
  {
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
        << "v2 open should defer payload verification: " << Diag;
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
  }

  // v1: no per-frame checksums, so open() pays a whole-file hash
  // pre-pass and rejects up front.
  ASSERT_TRUE(T.saveEncoded(Path, WorkloadHash, /*Compressed=*/false));
  {
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
    EXPECT_FALSE(R.open(Path, WorkloadHash, &Diag))
        << "v1 open accepted a corrupt file";
  }
  std::remove(Path.c_str());
}
