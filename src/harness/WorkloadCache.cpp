//===- harness/WorkloadCache.cpp - Persisted warm-up state ----------------===//
///
/// Both sidecar formats are flat little-endian u64 words under the
/// trace file's loader discipline: validate sizes before sizing
/// buffers, checksum everything, reject — never partially apply —
/// anything that does not verify.
///
///   meta:     [magic, version, binding, refhash, refsteps, checksum]
///   profile:  [magic, version, boundhash, numOpcodeWeights,
///              numSequences, payloadWords, checksum]
///             payload: weights...,
///                      per sequence: length, opcodes..., weight
///
//===----------------------------------------------------------------------===//

#include "harness/WorkloadCache.h"

#include "support/FileSync.h"
#include "vmcore/DispatchTrace.h"

#include <cstdio>
#include <unistd.h>
#include <vector>

using namespace vmib;

namespace {

constexpr uint64_t MetaMagic = 0x0154454d42494d56ULL;    // "VMIBMET\1"
constexpr uint64_t ProfileMagic = 0x014f524250494d56ULL; // "VMIPBRO\1"
/// Bump on any change to the sidecar layout OR to what the numbers
/// mean (reference hashing, profile construction): the version word is
/// what retires every stale entry at once.
constexpr uint64_t SidecarVersion = 1;

uint64_t fnv1aWords(const uint64_t *Words, size_t N) {
  uint64_t Hash = 0xcbf29ce484222325ULL;
  for (size_t I = 0; I < N; ++I) {
    uint64_t V = Words[I];
    for (unsigned B = 0; B < 8; ++B) {
      Hash ^= (V >> (8 * B)) & 0xFF;
      Hash *= 0x100000001b3ULL;
    }
  }
  return Hash;
}

std::string sidecarPath(const std::string &Key, const char *Ext) {
  std::string Dir = DispatchTrace::cacheDir();
  if (Dir.empty())
    return std::string();
  if (Dir.back() != '/')
    Dir += '/';
  return Dir + Key + Ext;
}

/// Writes \p Words to \p Path via a writer-unique temp name, fsync and
/// rename (support/FileSync), so a crashed writer never leaves a torn
/// sidecar under the key and a crash after the rename can never
/// surface an empty or partial file as committed.
bool writeWords(const std::string &Path, const std::vector<uint64_t> &Words) {
  std::string Tmp =
      Path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F)
    return false;
  bool Ok = std::fwrite(Words.data(), sizeof(uint64_t), Words.size(), F) ==
            Words.size();
  Ok &= flushAndSync(F);
  Ok &= std::fclose(F) == 0;
  if (!Ok || !renameDurable(Tmp, Path)) {
    std::remove(Tmp.c_str());
    return false;
  }
  return true;
}

/// Reads the whole file as u64 words; false on open failure or a size
/// that is not word-aligned.
bool readWords(const std::string &Path, std::vector<uint64_t> &Words) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  std::fseek(F, 0, SEEK_END);
  long Bytes = std::ftell(F);
  std::fseek(F, 0, SEEK_SET);
  if (Bytes < 0 || Bytes % sizeof(uint64_t) != 0) {
    std::fclose(F);
    return false;
  }
  Words.resize(static_cast<size_t>(Bytes) / sizeof(uint64_t));
  bool Ok = Words.empty() ||
            std::fread(Words.data(), sizeof(uint64_t), Words.size(), F) ==
                Words.size();
  std::fclose(F);
  return Ok;
}

} // namespace

std::string vmib::workloadKey(const std::string &Suite,
                              const std::string &Benchmark) {
  return Suite + "-" + Benchmark;
}

std::string vmib::workloadMetaPath(const std::string &Key) {
  return sidecarPath(Key, ".vmibmeta");
}

uint64_t vmib::programBindingHash(const VMProgram &Program) {
  std::vector<uint64_t> Words;
  Words.reserve(1 + Program.Code.size() * 3);
  Words.push_back(Program.Code.size());
  for (const VMInstr &I : Program.Code) {
    Words.push_back(I.Op);
    Words.push_back(static_cast<uint64_t>(I.A));
    Words.push_back(static_cast<uint64_t>(I.B));
  }
  return fnv1aWords(Words.data(), Words.size());
}

bool vmib::saveWorkloadMeta(const std::string &Key, uint64_t BindingHash,
                            const WorkloadMeta &Meta) {
  std::string Path = workloadMetaPath(Key);
  if (Path.empty())
    return false;
  std::vector<uint64_t> Words = {MetaMagic,          SidecarVersion,
                                 BindingHash,        Meta.ReferenceHash,
                                 Meta.ReferenceSteps, 0};
  Words[5] = fnv1aWords(Words.data(), 5);
  return writeWords(Path, Words);
}

bool vmib::loadWorkloadMeta(const std::string &Key,
                            uint64_t ExpectedBindingHash,
                            WorkloadMeta &Meta) {
  std::string Path = workloadMetaPath(Key);
  if (Path.empty())
    return false;
  std::vector<uint64_t> Words;
  if (!readWords(Path, Words) || Words.size() != 6)
    return false;
  if (Words[0] != MetaMagic || Words[1] != SidecarVersion ||
      Words[5] != fnv1aWords(Words.data(), 5))
    return false;
  if (Words[2] != ExpectedBindingHash)
    return false; // recorded for a different compiled program (stale)
  Meta.ReferenceHash = Words[3];
  Meta.ReferenceSteps = Words[4];
  return true;
}

void vmib::removeWorkloadMeta(const std::string &Key) {
  std::string Path = workloadMetaPath(Key);
  if (!Path.empty())
    std::remove(Path.c_str());
}

bool vmib::saveTrainedProfile(const std::string &Key, uint64_t BoundHash,
                              const SequenceProfile &Profile) {
  std::string Path = sidecarPath(Key, ".vmibprofile");
  if (Path.empty())
    return false;
  std::vector<uint64_t> Payload;
  Payload.reserve(Profile.OpcodeWeight.size() +
                  Profile.SequenceWeight.size() * 4);
  for (uint64_t W : Profile.OpcodeWeight)
    Payload.push_back(W);
  for (const auto &[Seq, Weight] : Profile.SequenceWeight) {
    Payload.push_back(Seq.size());
    for (Opcode Op : Seq)
      Payload.push_back(Op);
    Payload.push_back(Weight);
  }
  std::vector<uint64_t> Words(7);
  Words[0] = ProfileMagic;
  Words[1] = SidecarVersion;
  Words[2] = BoundHash;
  Words[3] = Profile.OpcodeWeight.size();
  Words[4] = Profile.SequenceWeight.size();
  Words[5] = Payload.size();
  Words[6] = fnv1aWords(Words.data(), 6) ^ fnv1aWords(Payload.data(),
                                                      Payload.size());
  Words.insert(Words.end(), Payload.begin(), Payload.end());
  return writeWords(Path, Words);
}

bool vmib::loadTrainedProfile(const std::string &Key,
                              uint64_t ExpectedBoundHash,
                              SequenceProfile &Profile) {
  std::string Path = sidecarPath(Key, ".vmibprofile");
  if (Path.empty())
    return false;
  std::vector<uint64_t> Words;
  if (!readWords(Path, Words) || Words.size() < 7)
    return false;
  if (Words[0] != ProfileMagic || Words[1] != SidecarVersion ||
      Words[2] != ExpectedBoundHash)
    return false;
  uint64_t NumWeights = Words[3], NumSeqs = Words[4], PayloadWords = Words[5];
  if (Words.size() != 7 + PayloadWords)
    return false;
  const uint64_t *Payload = Words.data() + 7;
  if (Words[6] != (fnv1aWords(Words.data(), 6) ^
                   fnv1aWords(Payload, PayloadWords)))
    return false;
  // Structural walk with exact-consumption check: a checksum-valid file
  // whose counts do not line up is rejected, never partially applied.
  if (NumWeights > PayloadWords)
    return false;
  SequenceProfile P;
  P.OpcodeWeight.assign(Payload, Payload + NumWeights);
  size_t Pos = NumWeights;
  for (uint64_t S = 0; S < NumSeqs; ++S) {
    if (Pos >= PayloadWords)
      return false;
    uint64_t Len = Payload[Pos++];
    if (Len < 2 || Len > SequenceProfile::MaxSequenceLength ||
        Pos + Len + 1 > PayloadWords)
      return false;
    std::vector<Opcode> Seq;
    Seq.reserve(Len);
    for (uint64_t I = 0; I < Len; ++I) {
      if (Payload[Pos] > 0xFFFF)
        return false;
      Seq.push_back(static_cast<Opcode>(Payload[Pos++]));
    }
    P.SequenceWeight.emplace(std::move(Seq), Payload[Pos++]);
  }
  if (Pos != PayloadWords || P.SequenceWeight.size() != NumSeqs)
    return false;
  Profile = std::move(P);
  return true;
}
