//===- tests/TraceFuzzTest.cpp - Serialized-trace mutation fuzzing --------===//
///
/// Randomized hardening of DispatchTrace::load over the exact contract
/// PR-3's hand-picked corrupt-trace checks pinned: for ANY single-byte
/// mutation of a serialized trace file, load() must either
///
///   (a) succeed bit-identically (only possible when the mutation
///       wrote the byte that was already there), or
///   (b) fail with a one-line diagnostic and NO partial state — the
///       trace object must come back empty, never half-filled.
///
/// Every header word is covered by an explicit check (magic, version,
/// counts vs file size, workload hash, and the header checksum, which
/// pins the stored content hash too) and every payload byte by an
/// FNV-1a checksum (per frame and over the quicken block), so a crash
/// or a silent wrong load on any seeded mutation is a real bug, not
/// fuzz noise. Seeded truncations and bit flips extend the same
/// contract. load() is FrameReader::open() plus one read() of the whole
/// stream, so the contract covers the streaming reader as well.
///
//===----------------------------------------------------------------------===//

#include "support/Random.h"
#include "vmcore/DispatchTrace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <unistd.h>
#include <vector>

using namespace vmib;

namespace {

constexpr uint64_t WorkloadHash = 0x5eed5eed5eedULL;

/// A small but structurally complete trace: events plus interleaved
/// quicken records, so mutations land in every file region.
DispatchTrace makeTrace() {
  DispatchTrace T;
  for (uint32_t I = 0; I < 2000; ++I) {
    T.append(I % 131, (I + 1) % 131);
    if (I % 257 == 0) {
      VMInstr Q;
      Q.Op = static_cast<Opcode>(I % 17);
      Q.A = -static_cast<int64_t>(I);
      Q.B = I * 3;
      T.appendQuicken(I % 131, Q);
    }
  }
  return T;
}

/// The header checksum plus per-frame checksums must catch every
/// corruption, even though the load never recomputes the logical hash.
class TraceFuzzTest : public ::testing::Test {
protected:
  void SetUp() override {
    Trace = makeTrace();
    Path = "/tmp/vmib-trace-fuzz-" + std::to_string(::getpid()) +
           ".vmibtrace";
    ASSERT_TRUE(Trace.save(Path, WorkloadHash));
    // Keep the pristine image in memory; each case patches the file
    // and restores it from this buffer.
    std::FILE *F = std::fopen(Path.c_str(), "rb");
    ASSERT_NE(nullptr, F);
    std::fseek(F, 0, SEEK_END);
    Pristine.resize(static_cast<size_t>(std::ftell(F)));
    std::fseek(F, 0, SEEK_SET);
    ASSERT_EQ(Pristine.size(),
              std::fread(Pristine.data(), 1, Pristine.size(), F));
    std::fclose(F);
  }
  void TearDown() override { std::remove(Path.c_str()); }

  void writeFile(const std::vector<unsigned char> &Bytes) {
    std::FILE *F = std::fopen(Path.c_str(), "wb");
    ASSERT_NE(nullptr, F);
    ASSERT_EQ(Bytes.size(), std::fwrite(Bytes.data(), 1, Bytes.size(), F));
    ASSERT_EQ(0, std::fclose(F));
  }

  /// Loads the (mutated) file and asserts the contract: bit-identical
  /// success or clean diagnosed failure, never partial state.
  void checkContract(bool MustBeIdentical, const std::string &What) {
    DispatchTrace T;
    T.append(0xAAAA, 0xBBBB); // sentinel: a failed load must clear this
    std::string Diag;
    bool Ok = T.load(Path, WorkloadHash, &Diag);
    if (MustBeIdentical) {
      EXPECT_TRUE(Ok) << What << ": " << Diag;
      EXPECT_EQ(T.numEvents(), Trace.numEvents()) << What;
      EXPECT_EQ(T.numQuickens(), Trace.numQuickens()) << What;
      EXPECT_EQ(T.events(), Trace.events()) << What;
      EXPECT_EQ(T.contentHash(), Trace.contentHash()) << What;
    } else {
      EXPECT_FALSE(Ok) << What << ": corrupt file loaded";
      EXPECT_FALSE(Diag.empty()) << What << ": failure without diagnostic";
    }
    if (!Ok) {
      EXPECT_EQ(T.numEvents(), 0u) << What << ": partial state after "
                                              "failed load";
      EXPECT_EQ(T.numQuickens(), 0u) << What;
    }
  }

  std::string Path;
  DispatchTrace Trace;
  std::vector<unsigned char> Pristine;
};

} // namespace

TEST_F(TraceFuzzTest, SeededSingleByteOverwrites) {
  // 512 seeded single-byte overwrites at uniform offsets. When the
  // random byte equals the original, the file is untouched and must
  // load bit-identically; any actual change must be rejected.
  Xoroshiro128 Rng(0x7261636546757a7aULL);
  for (int Case = 0; Case < 512; ++Case) {
    size_t Offset = static_cast<size_t>(Rng.nextBelow(Pristine.size()));
    unsigned char NewByte = static_cast<unsigned char>(Rng.next() & 0xFF);
    std::vector<unsigned char> Mutated = Pristine;
    bool Unchanged = Mutated[Offset] == NewByte;
    Mutated[Offset] = NewByte;
    writeFile(Mutated);
    checkContract(Unchanged,
                  "case " + std::to_string(Case) + " offset " +
                      std::to_string(Offset) + " byte " +
                      std::to_string(NewByte));
  }
  writeFile(Pristine);
  checkContract(true, "pristine after overwrite fuzz");
}

TEST_F(TraceFuzzTest, SeededSingleBitFlips) {
  // Bit flips always change the file, so every case must be rejected —
  // including flips inside the stored hashes themselves.
  Xoroshiro128 Rng(0x626974666c697073ULL);
  for (int Case = 0; Case < 256; ++Case) {
    size_t Offset = static_cast<size_t>(Rng.nextBelow(Pristine.size()));
    unsigned Bit = static_cast<unsigned>(Rng.nextBelow(8));
    std::vector<unsigned char> Mutated = Pristine;
    Mutated[Offset] = static_cast<unsigned char>(Mutated[Offset] ^
                                                 (1u << Bit));
    writeFile(Mutated);
    checkContract(false, "flip case " + std::to_string(Case) + " offset " +
                             std::to_string(Offset) + " bit " +
                             std::to_string(Bit));
  }
}

TEST_F(TraceFuzzTest, SeededTruncationsAndExtensions) {
  // Random truncations (any length short of the full file) and random
  // trailing garbage must both be rejected by the exact size check.
  Xoroshiro128 Rng(0x7472756e63617465ULL);
  for (int Case = 0; Case < 128; ++Case) {
    size_t Len = static_cast<size_t>(Rng.nextBelow(Pristine.size()));
    std::vector<unsigned char> Mutated(Pristine.begin(),
                                       Pristine.begin() + Len);
    writeFile(Mutated);
    checkContract(false, "truncate to " + std::to_string(Len));
  }
  for (int Case = 0; Case < 128; ++Case) {
    std::vector<unsigned char> Mutated = Pristine;
    size_t Extra = 1 + static_cast<size_t>(Rng.nextBelow(64));
    for (size_t I = 0; I < Extra; ++I)
      Mutated.push_back(static_cast<unsigned char>(Rng.next() & 0xFF));
    writeFile(Mutated);
    checkContract(false, "extend by " + std::to_string(Extra));
  }
}
