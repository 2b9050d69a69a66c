//===- tests/SidecarFuzzTest.cpp - Sidecar & segment mutation fuzzing -----===//
///
/// TraceFuzzTest's mutation contract, extended to every other durable
/// artifact the cache directory holds:
///
///  - the `.vmibmeta` and `.vmibprofile` sidecars
///    (harness/WorkloadCache) are all-or-nothing: for ANY single-byte
///    overwrite, bit flip, truncation or extension, load must either
///    succeed bit-identically (only when the mutation rewrote the byte
///    that was already there) or return false leaving the out-param
///    untouched — never partial state;
///  - result-store segments (harness/ResultStore) are salvageable
///    journals, so their contract is weaker on purpose: recovery of a
///    mutated segment may serve any *subset* of the original records,
///    but every record it serves must be bit-identical to what was
///    written — a mutation can lose data (quarantined, never deleted),
///    it can never corrupt a served counter.
///
/// Every word of every format is covered by a magic/version/size/
/// checksum check, so a silent wrong load on any seeded mutation is a
/// real bug, not fuzz noise.
///
//===----------------------------------------------------------------------===//

#include "harness/ResultStore.h"
#include "harness/SweepSpec.h"
#include "harness/WorkloadCache.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <functional>
#include <string>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

using namespace vmib;

namespace {

constexpr uint64_t BindingHash = 0xb1d1b1d1b1d1ULL;

std::vector<unsigned char> readBytes(const std::string &Path) {
  std::vector<unsigned char> Bytes;
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return Bytes;
  std::fseek(F, 0, SEEK_END);
  Bytes.resize(static_cast<size_t>(std::ftell(F)));
  std::fseek(F, 0, SEEK_SET);
  if (std::fread(Bytes.data(), 1, Bytes.size(), F) != Bytes.size())
    Bytes.clear();
  std::fclose(F);
  return Bytes;
}

bool writeBytes(const std::string &Path, const std::vector<unsigned char> &B) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  bool Ok = std::fwrite(B.data(), 1, B.size(), F) == B.size();
  return std::fclose(F) == 0 && Ok;
}

void removeTree(const std::string &Dir) {
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return;
  while (struct dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    if (Name == "." || Name == "..")
      continue;
    std::string Path = Dir + "/" + Name;
    struct stat St;
    if (::stat(Path.c_str(), &St) == 0 && S_ISDIR(St.st_mode))
      removeTree(Path);
    else
      ::unlink(Path.c_str());
  }
  ::closedir(D);
  ::rmdir(Dir.c_str());
}

bool sameCounters(const PerfCounters &A, const PerfCounters &B) {
  return A.Cycles == B.Cycles && A.Instructions == B.Instructions &&
         A.VMInstructions == B.VMInstructions &&
         A.IndirectBranches == B.IndirectBranches &&
         A.Mispredictions == B.Mispredictions &&
         A.ICacheMisses == B.ICacheMisses && A.MissCycles == B.MissCycles &&
         A.CodeBytes == B.CodeBytes && A.DispatchCount == B.DispatchCount;
}

/// Drives the shared mutation schedule over one artifact. \p Check
/// receives whether the current file content is byte-identical to the
/// pristine image and asserts the artifact's own contract.
void fuzzArtifact(const std::string &Path,
                  const std::vector<unsigned char> &Pristine, uint64_t Seed,
                  const std::function<void(bool, const std::string &)> &Check) {
  Xoroshiro128 Rng(Seed);
  for (int Case = 0; Case < 192; ++Case) {
    size_t Offset = static_cast<size_t>(Rng.nextBelow(Pristine.size()));
    unsigned char NewByte = static_cast<unsigned char>(Rng.next() & 0xFF);
    std::vector<unsigned char> Mutated = Pristine;
    bool Unchanged = Mutated[Offset] == NewByte;
    Mutated[Offset] = NewByte;
    ASSERT_TRUE(writeBytes(Path, Mutated));
    Check(Unchanged, "overwrite case " + std::to_string(Case) + " offset " +
                         std::to_string(Offset));
  }
  for (int Case = 0; Case < 128; ++Case) {
    size_t Offset = static_cast<size_t>(Rng.nextBelow(Pristine.size()));
    unsigned Bit = static_cast<unsigned>(Rng.nextBelow(8));
    std::vector<unsigned char> Mutated = Pristine;
    Mutated[Offset] =
        static_cast<unsigned char>(Mutated[Offset] ^ (1u << Bit));
    ASSERT_TRUE(writeBytes(Path, Mutated));
    Check(false, "flip case " + std::to_string(Case) + " offset " +
                     std::to_string(Offset) + " bit " + std::to_string(Bit));
  }
  for (int Case = 0; Case < 64; ++Case) {
    size_t Len = static_cast<size_t>(Rng.nextBelow(Pristine.size()));
    std::vector<unsigned char> Mutated(Pristine.begin(),
                                       Pristine.begin() + Len);
    ASSERT_TRUE(writeBytes(Path, Mutated));
    Check(false, "truncate to " + std::to_string(Len));
  }
  for (int Case = 0; Case < 64; ++Case) {
    std::vector<unsigned char> Mutated = Pristine;
    size_t Extra = 1 + static_cast<size_t>(Rng.nextBelow(48));
    for (size_t I = 0; I < Extra; ++I)
      Mutated.push_back(static_cast<unsigned char>(Rng.next() & 0xFF));
    ASSERT_TRUE(writeBytes(Path, Mutated));
    Check(false, "extend by " + std::to_string(Extra));
  }
  ASSERT_TRUE(writeBytes(Path, Pristine));
  Check(true, "pristine after fuzz");
}

class SidecarFuzzTest : public ::testing::Test {
protected:
  void SetUp() override {
    CacheDir = "/tmp/vmib-sidecar-fuzz-" + std::to_string(::getpid());
    removeTree(CacheDir);
    ASSERT_EQ(0, ::mkdir(CacheDir.c_str(), 0777));
    ::setenv("VMIB_TRACE_CACHE", CacheDir.c_str(), 1);
    ::unsetenv("VMIB_FAULT");
  }
  void TearDown() override {
    ::unsetenv("VMIB_TRACE_CACHE");
    removeTree(CacheDir);
  }

  std::string CacheDir;
};

} // namespace

TEST_F(SidecarFuzzTest, WorkloadMetaAllOrNothing) {
  const std::string Key = "forth-fuzzmeta";
  WorkloadMeta Meta;
  Meta.ReferenceHash = 0xfeedfacecafef00dULL;
  Meta.ReferenceSteps = 123457;
  ASSERT_TRUE(saveWorkloadMeta(Key, BindingHash, Meta));
  std::string Path = workloadMetaPath(Key);
  std::vector<unsigned char> Pristine = readBytes(Path);
  ASSERT_EQ(Pristine.size(), 6 * sizeof(uint64_t));

  fuzzArtifact(Path, Pristine, 0x6d65746146757a7aULL,
               [&](bool Identical, const std::string &What) {
                 WorkloadMeta Out;
                 Out.ReferenceHash = 0xAAAA; // sentinels: a failed load
                 Out.ReferenceSteps = 0xBBBB; // must leave these alone
                 bool Ok = loadWorkloadMeta(Key, BindingHash, Out);
                 if (Identical) {
                   EXPECT_TRUE(Ok) << What;
                   EXPECT_EQ(Out.ReferenceHash, Meta.ReferenceHash) << What;
                   EXPECT_EQ(Out.ReferenceSteps, Meta.ReferenceSteps) << What;
                 } else {
                   EXPECT_FALSE(Ok) << What << ": corrupt sidecar loaded";
                   EXPECT_EQ(Out.ReferenceHash, 0xAAAAu) << What;
                   EXPECT_EQ(Out.ReferenceSteps, 0xBBBBu) << What;
                 }
               });
}

TEST_F(SidecarFuzzTest, TrainedProfileAllOrNothing) {
  const std::string Key = "forth-fuzzprofile";
  SequenceProfile Profile;
  Profile.OpcodeWeight.assign(24, 0);
  for (size_t I = 0; I < Profile.OpcodeWeight.size(); ++I)
    Profile.OpcodeWeight[I] = I * 17 + 1;
  for (uint64_t S = 0; S < 6; ++S) {
    std::vector<Opcode> Seq;
    for (uint64_t I = 0; I < 2 + S % 3; ++I)
      Seq.push_back(static_cast<Opcode>((S + I) % 24));
    Profile.SequenceWeight[Seq] = 1000 + S;
  }
  ASSERT_TRUE(saveTrainedProfile(Key, BindingHash, Profile));
  std::string Path = CacheDir + "/" + Key + ".vmibprofile";
  std::vector<unsigned char> Pristine = readBytes(Path);
  ASSERT_GT(Pristine.size(), 7 * sizeof(uint64_t));

  fuzzArtifact(Path, Pristine, 0x70726f6646757a7aULL,
               [&](bool Identical, const std::string &What) {
                 SequenceProfile Out;
                 Out.OpcodeWeight.assign(3, 0x1234); // sentinel
                 bool Ok = loadTrainedProfile(Key, BindingHash, Out);
                 if (Identical) {
                   EXPECT_TRUE(Ok) << What;
                   EXPECT_EQ(Out.OpcodeWeight, Profile.OpcodeWeight) << What;
                   EXPECT_EQ(Out.SequenceWeight, Profile.SequenceWeight)
                       << What;
                 } else {
                   EXPECT_FALSE(Ok) << What << ": corrupt sidecar loaded";
                   EXPECT_EQ(Out.OpcodeWeight.size(), 3u)
                       << What << ": partial state after failed load";
                   EXPECT_TRUE(Out.SequenceWeight.empty()) << What;
                 }
               });
}

TEST_F(SidecarFuzzTest, StoreSegmentNeverServesCorruptCounters) {
  // Build one pristine segment through the store itself.
  SweepSpec Spec;
  Spec.Name = "segfuzz";
  Spec.Suite = "forth";
  Spec.Benchmarks = {"w"};
  Spec.Cpus = {"p4northwood"};
  for (int V = 0; V < 5; ++V) {
    VariantSpec Var;
    Var.Name = "v" + std::to_string(V);
    Var.Config.Kind = DispatchStrategy::Threaded;
    Var.Config.Seed = 0x5eed + V; // distinct keys
    Spec.Variants.push_back(Var);
  }
  const uint64_t TraceHash = 0x7472ace7472ace0ULL;
  std::vector<StoreKey> Keys;
  std::vector<PerfCounters> Expected;
  const std::string StoreDir = CacheDir + "/results";
  std::string SegName;
  {
    ResultStore S;
    ASSERT_TRUE(S.open(StoreDir));
    for (size_t M = 0; M < Spec.Variants.size(); ++M) {
      PerfCounters C;
      C.Cycles = 10000 + M;
      C.Instructions = 777 * (M + 1);
      C.Mispredictions = M;
      C.DispatchCount = 42 + M;
      Keys.push_back(cellStoreKey(Spec, M, TraceHash));
      Expected.push_back(C);
      S.record(Keys.back(), C);
    }
    ASSERT_TRUE(S.flush());
    S.close();
    DIR *D = ::opendir(StoreDir.c_str());
    ASSERT_NE(nullptr, D);
    while (struct dirent *E = ::readdir(D)) {
      std::string Name = E->d_name;
      const std::string Suffix = ".vmibstore";
      if (Name.size() > Suffix.size() &&
          Name.compare(Name.size() - Suffix.size(), Suffix.size(), Suffix) ==
              0)
        SegName = Name;
    }
    ::closedir(D);
  }
  ASSERT_FALSE(SegName.empty());
  std::vector<unsigned char> Pristine = readBytes(StoreDir + "/" + SegName);
  ASSERT_EQ(Pristine.size(), (4 + 5 * 12) * sizeof(uint64_t));

  // Each fuzz case rebuilds a scratch store holding only the mutated
  // segment (recovery mutates the directory: salvaged rewrites,
  // quarantine moves), then opens it and checks the journal contract.
  const std::string Scratch = CacheDir + "/segfuzz-scratch";
  std::string SegPath = Scratch + "/" + SegName;
  auto Check = [&](bool Identical, const std::string &What) {
    ResultStore S;
    ASSERT_TRUE(S.open(Scratch)) << What; // recovery never fails an open
    size_t Served = 0;
    for (size_t M = 0; M < Keys.size(); ++M) {
      PerfCounters C;
      if (!S.probe(Keys[M], C))
        continue;
      ++Served;
      EXPECT_TRUE(sameCounters(C, Expected[M]))
          << What << ": member " << M << " served corrupt counters";
    }
    if (Identical) {
      EXPECT_EQ(Served, Keys.size()) << What;
      EXPECT_EQ(S.stats().Quarantined, 0u) << What;
    }
    S.close();
  };
  auto FuzzCheck = [&](bool Identical, const std::string &What) {
    std::vector<unsigned char> Mutated = readBytes(SegPath);
    removeTree(Scratch);
    ASSERT_EQ(0, ::mkdir(Scratch.c_str(), 0777));
    ASSERT_TRUE(writeBytes(SegPath, Mutated));
    Check(Identical, What);
  };
  removeTree(Scratch);
  ASSERT_EQ(0, ::mkdir(Scratch.c_str(), 0777));
  ASSERT_TRUE(writeBytes(SegPath, Pristine));
  fuzzArtifact(SegPath, Pristine, 0x7365676d46757a7aULL, FuzzCheck);
}
