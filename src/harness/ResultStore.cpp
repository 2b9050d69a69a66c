//===- harness/ResultStore.cpp - Durable per-cell result cache ------------===//
///
/// Segment format — flat little-endian u64 words, the same loader
/// discipline as the trace file and sidecars (validate sizes before
/// sizing buffers, checksum everything, never partially apply):
///
///   header:  [SegMagic, StoreVersion, RecordCount, headerChecksum]
///            headerChecksum = fnv1aWords over the first 3 words
///   record:  [KeyHi, KeyLo,
///             Cycles, Instructions, VMInstructions, IndirectBranches,
///             Mispredictions, ICacheMisses, MissCycles, CodeBytes,
///             DispatchCount,
///             recordChecksum]               — 12 words
///            recordChecksum = fnv1aWords over the first 11 words
///
/// Per-record checksums are what make torn-tail *salvage* possible: a
/// segment whose header verifies but whose tail doesn't still yields
/// its valid record prefix, and the salvaged prefix is committed as a
/// brand-new segment BEFORE the damaged file moves to quarantine — so
/// a crash mid-recovery loses nothing (the damaged original is still
/// in place, and re-running recovery is idempotent because segments
/// merge last-wins into one key space).
///
//===----------------------------------------------------------------------===//

#include "harness/ResultStore.h"

#include "support/CommandLine.h"
#include "support/FileSync.h"
#include "vmcore/DispatchTrace.h"
#include "vmcore/Strategy.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace vmib;

namespace {

constexpr uint64_t SegMagic = 0x0153455242494d56ULL; // "VMIBRES\1"
/// Cell-quarantine tombstone files (`tomb-*.vmibtomb`):
///   header:  [TombMagic, StoreVersion, RecordCount, headerChecksum]
///   record:  [KeyHi, KeyLo, ValueFingerprint, recordChecksum] — 4 words
/// A tombstone retires one (key, value-fingerprint) pair at load time.
constexpr uint64_t TombMagic = 0x01424d5442494d56ULL; // "VMIBTMB\1"
constexpr size_t TombRecordWords = 4;
/// Bump on any change to the segment layout, the key derivation, OR the
/// meaning of any counter a cell stores: the version participates in
/// every key, so a bump retires the entire store content at once
/// (old segments keep verifying — their keys just stop being asked
/// for).
constexpr uint64_t StoreVersion = 1;
constexpr size_t SegHeaderWords = 4;
constexpr size_t RecordWords = 12;

constexpr uint64_t FnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t FnvPrime = 0x100000001b3ULL;
/// Second-stream offset for the key's Lo half: FNV-1a mixes its
/// starting state into every output byte, so two streams over the same
/// feed with different offsets fail independently enough for a
/// 128-bit-collision trust argument.
constexpr uint64_t FnvOffsetLo = 0x84222325cbf29ce4ULL;

uint64_t fnv1aWords(const uint64_t *Words, size_t N) {
  uint64_t Hash = FnvOffset;
  for (size_t I = 0; I < N; ++I) {
    uint64_t V = Words[I];
    for (unsigned B = 0; B < 8; ++B) {
      Hash ^= (V >> (8 * B)) & 0xFF;
      Hash *= FnvPrime;
    }
  }
  return Hash;
}

void feedWord(uint64_t &Hash, uint64_t V) {
  for (unsigned B = 0; B < 8; ++B) {
    Hash ^= (V >> (8 * B)) & 0xFF;
    Hash *= FnvPrime;
  }
}

/// Length-prefixed so adjacent strings cannot alias ("ab","c" vs
/// "a","bc").
void feedString(uint64_t &Hash, const std::string &S) {
  feedWord(Hash, S.size());
  for (char C : S) {
    Hash ^= static_cast<unsigned char>(C);
    Hash *= FnvPrime;
  }
}

/// Everything that determines a member's counters besides the trace:
/// the strategy configuration, the static-resource counts, the
/// predictor kind + active geometry, and the CPU id. Deliberately NOT
/// the variant display name (cosmetic) and NOT chunk size / thread
/// count / schedule (bit-identity invariants — caching across them is
/// the point).
void feedMemberConfig(uint64_t &Hash, const SweepSpec &Spec, size_t Member) {
  size_t CpuIdx = 0, VarIdx = 0, PredIdx = 0;
  Spec.decodeMember(Member, CpuIdx, VarIdx, PredIdx);
  feedString(Hash, Spec.Cpus[CpuIdx]);

  const VariantSpec &V = Spec.Variants[VarIdx];
  feedString(Hash, strategyId(V.Config.Kind));
  feedWord(Hash, V.Config.ReplicaCount);
  feedWord(Hash, V.Config.SuperCount);
  feedWord(Hash, static_cast<uint64_t>(V.Config.Policy));
  feedWord(Hash, static_cast<uint64_t>(V.Config.Parse));
  feedWord(Hash, V.Config.Seed);
  feedWord(Hash, V.SuperCount);
  feedWord(Hash, V.ReplicaCount);
  feedWord(Hash, V.ReplicateSupers ? 1 : 0);

  if (Spec.Predictors.empty()) {
    feedWord(Hash, static_cast<uint64_t>(PredictorGeometry::Kind::Default));
    return;
  }
  const PredictorGeometry &G = Spec.Predictors[PredIdx];
  feedWord(Hash, static_cast<uint64_t>(G.PredKind));
  // Only the active kind's geometry feeds the key: a Default member's
  // identity must not shift when an unrelated axis default changes.
  switch (G.PredKind) {
  case PredictorGeometry::Kind::Default:
    break;
  case PredictorGeometry::Kind::Btb:
    feedWord(Hash, G.Btb.Entries);
    feedWord(Hash, G.Btb.Ways);
    feedWord(Hash, G.Btb.IndexShift);
    feedWord(Hash, G.Btb.TwoBitCounters ? 1 : 0);
    break;
  case PredictorGeometry::Kind::TwoLevel:
    feedWord(Hash, G.TwoLevel.TableEntries);
    feedWord(Hash, G.TwoLevel.HistoryLength);
    break;
  case PredictorGeometry::Kind::CaseBlock:
    feedWord(Hash, G.CaseBlockEntries);
    break;
  }
}

std::string joinPath(const std::string &Dir, const std::string &Name) {
  if (Dir.empty() || Dir.back() == '/')
    return Dir + Name;
  return Dir + "/" + Name;
}

bool ensureDir(const std::string &Path) {
  if (::mkdir(Path.c_str(), 0777) == 0 || errno == EEXIST)
    return true;
  // Create missing parents, mkdir -p style.
  std::string Partial;
  size_t Pos = 0;
  while (Pos < Path.size()) {
    size_t Slash = Path.find('/', Pos + 1);
    if (Slash == std::string::npos)
      Slash = Path.size();
    Partial = Path.substr(0, Slash);
    if (!Partial.empty() && ::mkdir(Partial.c_str(), 0777) != 0 &&
        errno != EEXIST)
      return false;
    Pos = Slash;
  }
  return true;
}

/// Process-wide serial so every flush — from any store instance in this
/// process — names a distinct segment; combined with the pid the name
/// is unique across concurrent orchestrators sharing one store.
std::atomic<uint64_t> SegmentSerial{0};

/// Kill-anywhere hook: VMIB_STORE_KILL_AFTER=N SIGKILLs the process
/// the moment the Nth record (counted process-wide, across flushes)
/// has been written to a temp segment — before that segment's fsync
/// and rename, i.e. at the worst possible instant for durability. 0
/// (unset, or malformed after one warning) disables it.
uint64_t storeKillAfter() {
  static const uint64_t N = envCount("VMIB_STORE_KILL_AFTER", 0);
  return N;
}
std::atomic<uint64_t> RecordsEverWritten{0};

bool readWordsAndSize(const std::string &Path, std::vector<uint64_t> &Words,
                      bool &WordAligned) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  std::fseek(F, 0, SEEK_END);
  long Bytes = std::ftell(F);
  std::fseek(F, 0, SEEK_SET);
  if (Bytes < 0) {
    std::fclose(F);
    return false;
  }
  WordAligned = Bytes % sizeof(uint64_t) == 0;
  Words.resize(static_cast<size_t>(Bytes) / sizeof(uint64_t));
  bool Ok = Words.empty() ||
            std::fread(Words.data(), sizeof(uint64_t), Words.size(), F) ==
                Words.size();
  std::fclose(F);
  return Ok;
}

void countersToWords(const PerfCounters &C, uint64_t *W) {
  W[0] = C.Cycles;
  W[1] = C.Instructions;
  W[2] = C.VMInstructions;
  W[3] = C.IndirectBranches;
  W[4] = C.Mispredictions;
  W[5] = C.ICacheMisses;
  W[6] = C.MissCycles;
  W[7] = C.CodeBytes;
  W[8] = C.DispatchCount;
}

PerfCounters countersFromWords(const uint64_t *W) {
  PerfCounters C;
  C.Cycles = W[0];
  C.Instructions = W[1];
  C.VMInstructions = W[2];
  C.IndirectBranches = W[3];
  C.Mispredictions = W[4];
  C.ICacheMisses = W[5];
  C.MissCycles = W[6];
  C.CodeBytes = W[7];
  C.DispatchCount = W[8];
  return C;
}

/// Brief-hold exclusive lock on <dir>/store.lock: serializes recovery
/// scans and segment commits across processes sharing the store.
class StoreLock {
public:
  explicit StoreLock(const std::string &Dir) {
    Fd = ::open(joinPath(Dir, "store.lock").c_str(), O_RDWR | O_CREAT | O_CLOEXEC,
                0666);
    if (Fd >= 0 && ::flock(Fd, LOCK_EX) != 0) {
      ::close(Fd);
      Fd = -1;
    }
  }
  ~StoreLock() {
    if (Fd >= 0)
      ::close(Fd); // closing drops the flock
  }
  bool held() const { return Fd >= 0; }

private:
  int Fd = -1;
};

} // namespace

StoreKey vmib::cellStoreKey(const SweepSpec &Spec, size_t Member,
                            uint64_t TraceContentHash) {
  StoreKey K;
  K.Hi = FnvOffset;
  K.Lo = FnvOffsetLo;
  for (uint64_t *H : {&K.Hi, &K.Lo}) {
    feedWord(*H, StoreVersion);
    feedWord(*H, TraceContentHash);
    feedString(*H, Spec.Suite);
    feedMemberConfig(*H, Spec, Member);
  }
  return K;
}

uint64_t vmib::memberCostKey(const SweepSpec &Spec, size_t Member) {
  uint64_t H = FnvOffset;
  feedString(H, Spec.Suite);
  feedMemberConfig(H, Spec, Member);
  return H;
}

std::string ResultStore::resolveDir(const std::string &FlagDir,
                                    bool FlagEnable, bool FlagDisable,
                                    std::string *Why) {
  if (FlagDisable)
    return std::string();
  if (!FlagDir.empty())
    return FlagDir;
  if (!FlagEnable)
    return std::string();
  std::string Cache = DispatchTrace::cacheDir();
  if (Cache.empty()) {
    if (Why)
      *Why = "result store needs a location: set VMIB_TRACE_CACHE (the "
             "store defaults to <cache>/results) or pass --store-dir";
    return std::string();
  }
  return joinPath(Cache, "results");
}

ResultStore::~ResultStore() { close(); }

bool ResultStore::open(const std::string &Dir, std::string *Diag) {
  close();
  if (Dir.empty()) {
    if (Diag)
      *Diag = "empty result-store directory";
    return false;
  }
  if (!ensureDir(Dir)) {
    if (Diag)
      *Diag = "cannot create result-store directory '" + Dir + "': " +
              std::strerror(errno);
    return false;
  }
  std::string FaultError;
  if (!parseFaultPlan(std::getenv("VMIB_FAULT"), FsPlan, FaultError)) {
    // The worker protocol validates VMIB_FAULT loudly; the store only
    // consumes the fs mass, so a malformed plan here degrades to no
    // injected faults rather than refusing the store.
    FsPlan = FaultPlan();
  }
  // Lifetime-shared in-use lock first: from this moment --cache-gc
  // sees the store as busy and will not evict under us.
  InUseFd = ::open(joinPath(Dir, "inuse.lock").c_str(),
                   O_RDWR | O_CREAT | O_CLOEXEC, 0666);
  if (InUseFd < 0 || ::flock(InUseFd, LOCK_SH) != 0) {
    if (Diag)
      *Diag = "cannot lock result store '" + Dir + "': " +
              std::strerror(errno);
    if (InUseFd >= 0)
      ::close(InUseFd);
    InUseFd = -1;
    return false;
  }
  StoreDir = Dir;
  recoverAll();
  return true;
}

void ResultStore::recoverAll() {
  StoreLock Lock(StoreDir);
  // Proceeding unlocked is still safe (segments are immutable and
  // temp names are writer-unique); the lock only defends against a
  // concurrent opener quarantining the same damaged file twice.
  DIR *D = ::opendir(StoreDir.c_str());
  if (!D)
    return;
  std::vector<std::string> Segments;
  std::vector<std::string> TombFiles;
  auto HasSuffix = [](const std::string &Name, const std::string &Suffix) {
    return Name.size() > Suffix.size() &&
           Name.compare(Name.size() - Suffix.size(), Suffix.size(),
                        Suffix) == 0;
  };
  while (struct dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    if (HasSuffix(Name, ".vmibstore"))
      Segments.push_back(Name);
    else if (HasSuffix(Name, ".vmibtomb"))
      TombFiles.push_back(Name);
  }
  ::closedir(D);
  // Directory order is filesystem-dependent; sorted load order makes
  // recovery (and its last-wins merge) deterministic.
  std::sort(Segments.begin(), Segments.end());
  std::sort(TombFiles.begin(), TombFiles.end());

  // Tombstones load BEFORE segments so retired (key, fingerprint)
  // pairs are filtered per record as segments merge: a clean record
  // for a quarantined key survives no matter where its segment sorts.
  for (const std::string &Name : TombFiles) {
    std::string Path = joinPath(StoreDir, Name);
    std::vector<uint64_t> Words;
    bool Aligned = true;
    bool HeaderOk = readWordsAndSize(Path, Words, Aligned) &&
                    Words.size() >= SegHeaderWords && Words[0] == TombMagic &&
                    Words[1] == StoreVersion &&
                    Words[3] == fnv1aWords(Words.data(), 3);
    std::vector<std::pair<StoreKey, uint64_t>> Valid;
    size_t Declared = 0;
    bool Damaged = !HeaderOk;
    if (HeaderOk) {
      Declared = Words[2];
      for (size_t I = 0; I < Declared; ++I) {
        size_t Off = SegHeaderWords + I * TombRecordWords;
        if (Off + TombRecordWords > Words.size() ||
            Words[Off + TombRecordWords - 1] !=
                fnv1aWords(Words.data() + Off, TombRecordWords - 1)) {
          Damaged = true;
          break;
        }
        Valid.emplace_back(StoreKey{Words[Off], Words[Off + 1]},
                           Words[Off + 2]);
      }
      if (!Aligned || (!Damaged && Words.size() !=
                                       SegHeaderWords +
                                           Declared * TombRecordWords))
        Damaged = true;
    }
    for (const auto &[K, Fp] : Valid)
      Tombstones[K].push_back(Fp);
    if (!Damaged)
      continue;
    // Same salvage-then-quarantine discipline as segments — losing a
    // tombstone would re-serve proven corruption, so the valid prefix
    // is durably rewritten before the damaged file moves aside.
    if (!Valid.empty())
      writeTombstones(Valid);
    std::string QDir = joinPath(StoreDir, "quarantine");
    ensureDir(QDir);
    std::string QPath = joinPath(
        QDir, Name + "." + std::to_string(static_cast<long>(::getpid())) +
                  "." + std::to_string(SegmentSerial.fetch_add(1)));
    if (::rename(Path.c_str(), QPath.c_str()) == 0)
      ++Stats.Quarantined;
  }

  for (const std::string &Name : Segments) {
    std::string Path = joinPath(StoreDir, Name);
    std::vector<uint64_t> Words;
    bool Aligned = true;
    bool HeaderOk = readWordsAndSize(Path, Words, Aligned) &&
                    Words.size() >= SegHeaderWords && Words[0] == SegMagic &&
                    Words[1] == StoreVersion &&
                    Words[3] == fnv1aWords(Words.data(), 3);
    std::vector<std::pair<StoreKey, PerfCounters>> Valid;
    size_t Declared = 0;
    bool Damaged = !HeaderOk;
    if (HeaderOk) {
      Declared = Words[2];
      for (size_t I = 0; I < Declared; ++I) {
        size_t Off = SegHeaderWords + I * RecordWords;
        if (Off + RecordWords > Words.size() ||
            Words[Off + RecordWords - 1] !=
                fnv1aWords(Words.data() + Off, RecordWords - 1)) {
          Damaged = true;
          break; // salvage stops at the first record that fails
        }
        StoreKey K{Words[Off], Words[Off + 1]};
        Valid.emplace_back(K, countersFromWords(Words.data() + Off + 2));
      }
      // Trailing garbage past the declared records (or a non-aligned
      // tail) also marks the segment damaged: the valid records are
      // kept, the file is not.
      if (!Aligned ||
          (!Damaged && Words.size() != SegHeaderWords + Declared * RecordWords))
        Damaged = true;
    }
    for (const auto &[K, C] : Valid) {
      if (tombstoned(K, C.fingerprint())) {
        ++Stats.TombstonedRecords;
        continue;
      }
      Records[K] = C;
      ++Stats.RecordsLoaded;
    }
    if (!Damaged)
      continue;
    // Salvage-then-quarantine, in that order: the salvaged prefix is
    // durably committed as a new segment BEFORE the damaged original
    // moves, so a crash between the two steps duplicates data instead
    // of losing it.
    if (!Valid.empty()) {
      if (writeSegment(Valid, FsFaultMode::None))
        Stats.Recovered += Valid.size();
    }
    std::string QDir = joinPath(StoreDir, "quarantine");
    ensureDir(QDir);
    std::string QPath = joinPath(
        QDir, Name + "." + std::to_string(static_cast<long>(::getpid())) +
                  "." + std::to_string(SegmentSerial.fetch_add(1)));
    if (::rename(Path.c_str(), QPath.c_str()) == 0)
      ++Stats.Quarantined;
  }
}

bool ResultStore::tombstoned(const StoreKey &K, uint64_t Fingerprint) const {
  auto It = Tombstones.find(K);
  if (It == Tombstones.end())
    return false;
  return std::find(It->second.begin(), It->second.end(), Fingerprint) !=
         It->second.end();
}

void ResultStore::applyServeFlip(const StoreKey &K, PerfCounters &C) const {
  // flipstore corrupts the *served copy* only — the in-memory map and
  // the disk bytes stay clean, modelling latent media corruption below
  // the segment checksums. Keyed on the store key, so re-serving the
  // cell reproduces the same corruption instead of washing it out.
  unsigned Word = 0, Bit = 0;
  if (decideStoreFlip(FsPlan, K.Hi, K.Lo, Word, Bit))
    C.flipBit(Word, Bit);
}

bool ResultStore::probe(const StoreKey &K, PerfCounters &C) const {
  std::lock_guard<std::mutex> G(Mu);
  auto It = Records.find(K);
  if (It == Records.end())
    return false;
  C = It->second;
  applyServeFlip(K, C);
  return true;
}

bool ResultStore::lookup(const StoreKey &K, PerfCounters &C) {
  std::lock_guard<std::mutex> G(Mu);
  auto It = Records.find(K);
  if (It != Records.end()) {
    C = It->second;
    applyServeFlip(K, C);
    ++Stats.Hits;
    return true;
  }
  ++Stats.Misses;
  return false;
}

void ResultStore::record(const StoreKey &K, const PerfCounters &C) {
  std::lock_guard<std::mutex> G(Mu);
  Records[K] = C;
  Pending.emplace_back(K, C);
}

bool ResultStore::writeSegment(
    const std::vector<std::pair<StoreKey, PerfCounters>> &Recs,
    FsFaultMode Fault) {
  if (Fault == FsFaultMode::NoSpace) {
    std::fprintf(stderr, "[store] injected nospace: flush deferred (%zu "
                         "records stay buffered)\n",
                 Recs.size());
    return false;
  }
  uint64_t Serial = SegmentSerial.fetch_add(1);
  std::string Name = "seg-" +
                     std::to_string(static_cast<long>(::getpid())) + "-" +
                     std::to_string(Serial) + ".vmibstore";
  std::string Path = joinPath(StoreDir, Name);
  std::string Tmp = Path + ".tmp";

  std::vector<uint64_t> Words(SegHeaderWords);
  Words[0] = SegMagic;
  Words[1] = StoreVersion;
  Words[2] = Recs.size();
  Words[3] = fnv1aWords(Words.data(), 3);
  // A torn flush writes the full header (declaring every record) but
  // only half the records: exactly what a crash mid-append leaves
  // behind, and what recovery's prefix salvage must handle.
  size_t WriteCount =
      Fault == FsFaultMode::Torn ? Recs.size() / 2 : Recs.size();

  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F)
    return false;
  bool Ok = std::fwrite(Words.data(), sizeof(uint64_t), Words.size(), F) ==
            Words.size();
  uint64_t KillAfter = storeKillAfter();
  for (size_t I = 0; Ok && I < WriteCount; ++I) {
    uint64_t RW[RecordWords];
    RW[0] = Recs[I].first.Hi;
    RW[1] = Recs[I].first.Lo;
    countersToWords(Recs[I].second, RW + 2);
    RW[RecordWords - 1] = fnv1aWords(RW, RecordWords - 1);
    Ok = std::fwrite(RW, sizeof(uint64_t), RecordWords, F) == RecordWords;
    if (Ok && KillAfter > 0 &&
        RecordsEverWritten.fetch_add(1) + 1 == KillAfter) {
      std::fflush(F); // land the partial segment, then die pre-fsync
      ::raise(SIGKILL);
    }
  }
  Ok = Ok && flushAndSync(F);
  Ok = std::fclose(F) == 0 && Ok;
  if (!Ok) {
    std::remove(Tmp.c_str());
    return false;
  }
  if (Fault == FsFaultMode::RenameFail) {
    std::fprintf(stderr, "[store] injected renamefail: flush deferred (%zu "
                         "records stay buffered)\n",
                 Recs.size());
    std::remove(Tmp.c_str());
    return false;
  }
  if (!renameDurable(Tmp, Path)) {
    std::remove(Tmp.c_str());
    return false;
  }
  return true;
}

bool ResultStore::writeTombstones(
    const std::vector<std::pair<StoreKey, uint64_t>> &Tombs) {
  // Deliberately exempt from fs fault injection: tombstones are the
  // audit layer's repair path, and chaos that silently dropped one
  // would re-serve proven corruption — the one failure this store must
  // never manufacture itself.
  uint64_t Serial = SegmentSerial.fetch_add(1);
  std::string Name = "tomb-" +
                     std::to_string(static_cast<long>(::getpid())) + "-" +
                     std::to_string(Serial) + ".vmibtomb";
  std::string Path = joinPath(StoreDir, Name);
  std::string Tmp = Path + ".tmp";

  std::vector<uint64_t> Words(SegHeaderWords);
  Words[0] = TombMagic;
  Words[1] = StoreVersion;
  Words[2] = Tombs.size();
  Words[3] = fnv1aWords(Words.data(), 3);
  for (const auto &[K, Fp] : Tombs) {
    uint64_t RW[TombRecordWords];
    RW[0] = K.Hi;
    RW[1] = K.Lo;
    RW[2] = Fp;
    RW[TombRecordWords - 1] = fnv1aWords(RW, TombRecordWords - 1);
    Words.insert(Words.end(), RW, RW + TombRecordWords);
  }
  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F)
    return false;
  bool Ok = std::fwrite(Words.data(), sizeof(uint64_t), Words.size(), F) ==
            Words.size();
  Ok = Ok && flushAndSync(F);
  Ok = std::fclose(F) == 0 && Ok;
  if (!Ok || !renameDurable(Tmp, Path)) {
    std::remove(Tmp.c_str());
    return false;
  }
  return true;
}

bool ResultStore::quarantineCell(const StoreKey &K,
                                 const PerfCounters &Observed,
                                 const PerfCounters &Authoritative) {
  std::lock_guard<std::mutex> G(Mu);
  if (!isOpen())
    return false;
  auto It = Records.find(K);
  if (It == Records.end()) {
    // An orchestrator's in-memory view predates its workers' segment
    // commits; the triage question is about what the store resolves
    // NOW, so refresh from disk before answering "never held it".
    recoverAll();
    // Re-assert this run's own unflushed records over anything older
    // the refresh merged in.
    for (const auto &[PK, PC] : Pending)
      Records[PK] = PC;
    It = Records.find(K);
    if (It == Records.end())
      return false;
  }
  PerfCounters Served = It->second;
  applyServeFlip(K, Served);
  if (Served == Authoritative)
    return false; // the store agrees with the proven value: not implicated

  StoreLock Lock(StoreDir);
  uint64_t Serial = SegmentSerial.fetch_add(1);
  std::string Base = std::to_string(static_cast<long>(::getpid())) + "-" +
                     std::to_string(Serial);
  // Evidence first (best-effort — it is forensics, not data): the
  // observed-corrupt counters in ordinary segment format, so store
  // tooling can read the quarantined value back.
  std::string QDir = joinPath(StoreDir, "quarantine");
  ensureDir(QDir);
  {
    uint64_t HW[SegHeaderWords];
    HW[0] = SegMagic;
    HW[1] = StoreVersion;
    HW[2] = 1;
    HW[3] = fnv1aWords(HW, 3);
    uint64_t RW[RecordWords];
    RW[0] = K.Hi;
    RW[1] = K.Lo;
    countersToWords(Observed, RW + 2);
    RW[RecordWords - 1] = fnv1aWords(RW, RecordWords - 1);
    std::string EPath = joinPath(QDir, "cell-" + Base + ".vmibstore");
    if (std::FILE *F = std::fopen(EPath.c_str(), "wb")) {
      std::fwrite(HW, sizeof(uint64_t), SegHeaderWords, F);
      std::fwrite(RW, sizeof(uint64_t), RecordWords, F);
      std::fclose(F);
    }
  }
  // Retire both fingerprints durably: the raw stored value (what
  // segments resolve to) and the observed served value (what executions
  // actually saw — different when the corruption was injected at serve
  // time). Either one reappearing in a future load must be suppressed.
  std::vector<std::pair<StoreKey, uint64_t>> Tombs;
  uint64_t RawFp = It->second.fingerprint();
  uint64_t ObsFp = Observed.fingerprint();
  Tombs.emplace_back(K, RawFp);
  if (ObsFp != RawFp)
    Tombs.emplace_back(K, ObsFp);
  if (!writeTombstones(Tombs))
    return false; // store unchanged; the caller's triage stays honest
  for (const auto &[TK, Fp] : Tombs)
    Tombstones[TK].push_back(Fp);
  Records.erase(It);
  // Drop any staged commit of the suspect key too — the caller records
  // the authoritative value next, and that is the only value that
  // should reach disk from here.
  Pending.erase(std::remove_if(Pending.begin(), Pending.end(),
                               [&](const std::pair<StoreKey, PerfCounters>
                                       &P) { return P.first == K; }),
                Pending.end());
  ++Stats.CellsQuarantined;
  return true;
}

bool ResultStore::flush() {
  std::lock_guard<std::mutex> G(Mu);
  return flushLocked();
}

bool ResultStore::flushLocked() {
  if (!isOpen())
    return false;
  if (Pending.empty())
    return true;
  FsFaultMode Fault = decideFsFault(FsPlan, FlushOps++);
  StoreLock Lock(StoreDir);
  if (!writeSegment(Pending, Fault)) {
    ++Stats.FlushFailures;
    return false; // Pending kept; the next flush gets a fresh fault draw
  }
  Pending.clear();
  return true;
}

void ResultStore::close() {
  std::lock_guard<std::mutex> G(Mu);
  if (!isOpen())
    return;
  if (!Pending.empty())
    flushLocked(); // best-effort; a failure leaves records for no one,
                   // which is exactly the pre-store behavior
  ::close(InUseFd);
  InUseFd = -1;
  StoreDir.clear();
  Records.clear();
  Pending.clear();
  Tombstones.clear();
  FlushOps = 0;
  FsPlan = FaultPlan();
  Stats = ResultStoreStats();
}
