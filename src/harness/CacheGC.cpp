//===- harness/CacheGC.cpp ------------------------------------------------===//
///
/// Eviction never needs to coordinate with readers beyond the
/// directory-level inuse lock: every managed artifact is self-checking
/// (magic/version/checksum) and loaded in full before use, so a reader
/// that raced an unlink either got the whole file or a clean ENOENT
/// miss — both are ordinary cache-cold paths, not corruption.
///
//===----------------------------------------------------------------------===//

#include "harness/CacheGC.h"

#include "support/Format.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

using namespace vmib;

namespace {

std::string joinPath(const std::string &Dir, const std::string &Name) {
  if (Dir.empty() || Dir.back() == '/')
    return Dir + Name;
  return Dir + "/" + Name;
}

bool hasSuffix(const std::string &S, const char *Suffix) {
  size_t N = std::strlen(Suffix);
  return S.size() >= N && S.compare(S.size() - N, N, Suffix) == 0;
}

/// A managed artifact is one of the self-checking cache/store formats;
/// lock files and unknown names are never touched. `.vmibcost` is no
/// longer written but stays managed, so caches that older builds
/// filled are still evicted.
bool isManagedArtifact(const std::string &Name) {
  return hasSuffix(Name, ".vmibtrace") || hasSuffix(Name, ".vmibmeta") ||
         hasSuffix(Name, ".vmibprofile") || hasSuffix(Name, ".vmibcost") ||
         hasSuffix(Name, ".vmibstore");
}

/// A leftover of an interrupted temp-write commit: the writers name
/// temps `<final>.tmp` (store segments) or `<final>.tmp.<pid>`
/// (traces, sidecars, quarantine renames append their own suffixes to
/// names that still contain ".tmp").
bool isStaleTemp(const std::string &Name) {
  return Name.find(".tmp") != std::string::npos;
}

struct GCEntry {
  std::string Path;
  uint64_t Bytes = 0;
  int64_t Mtime = 0; ///< seconds; eviction order (oldest first)
};

/// EXCLUSIVE non-blocking probe of <dir>/inuse.lock. \returns the held
/// fd (>= 0) when the directory is free, -1 when a live user holds the
/// shared lock (or the probe cannot be made — treated as busy: when in
/// doubt, do not delete).
int probeDirFree(const std::string &Dir) {
  int Fd = ::open(joinPath(Dir, "inuse.lock").c_str(),
                  O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (Fd < 0)
    return -1;
  if (::flock(Fd, LOCK_EX | LOCK_NB) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

/// Scans one directory (non-recursive), appending managed artifacts to
/// \p Entries and removing stale temps (\p Report.RemovedTemps).
/// \returns false when the directory exists but cannot be read.
bool scanDir(const std::string &Dir, std::vector<GCEntry> &Entries,
             CacheGCReport &Report, std::string &Error) {
  DIR *D = ::opendir(Dir.c_str());
  if (!D) {
    if (errno == ENOENT)
      return true; // nothing cached yet: vacuously collected
    Error = format("cache-gc: cannot scan %s: %s", Dir.c_str(),
                   std::strerror(errno));
    return false;
  }
  while (struct dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    if (Name == "." || Name == "..")
      continue;
    std::string Path = joinPath(Dir, Name);
    struct stat St;
    if (::stat(Path.c_str(), &St) != 0 || !S_ISREG(St.st_mode))
      continue;
    if (isStaleTemp(Name)) {
      if (::unlink(Path.c_str()) == 0)
        Report.RemovedTemps++;
      continue;
    }
    if (!isManagedArtifact(Name))
      continue;
    Entries.push_back({Path, static_cast<uint64_t>(St.st_size),
                       static_cast<int64_t>(St.st_mtime)});
  }
  ::closedir(D);
  return true;
}

/// Byte footprint of the managed artifacts of a directory the GC is
/// skipping (still reported in TotalBytes so the summary adds up).
uint64_t footprintOf(const std::string &Dir) {
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return 0;
  uint64_t Bytes = 0;
  while (struct dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    if (!isManagedArtifact(Name) && !isStaleTemp(Name))
      continue;
    struct stat St;
    if (::stat(joinPath(Dir, Name).c_str(), &St) == 0 &&
        S_ISREG(St.st_mode))
      Bytes += static_cast<uint64_t>(St.st_size);
  }
  ::closedir(D);
  return Bytes;
}

} // namespace

void DirUseLock::acquire(const std::string &Dir) {
  release();
  if (Dir.empty())
    return;
  int F = ::open(joinPath(Dir, "inuse.lock").c_str(),
                 O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (F < 0)
    return;
  if (::flock(F, LOCK_SH) != 0) {
    ::close(F);
    return;
  }
  Fd = F;
}

void DirUseLock::release() {
  if (Fd >= 0)
    ::close(Fd); // closing drops the flock
  Fd = -1;
}

bool vmib::runCacheGC(const std::string &CacheDir,
                      const std::string &StoreDir, uint64_t BudgetBytes,
                      CacheGCReport &Report, std::string &Error) {
  Report = CacheGCReport();

  // Collect the evictable population root by root; a busy root is
  // skipped wholesale but its footprint still counts toward the total
  // (and hence toward how much the free roots must give up). A store's
  // quarantine/ subdirectory is covered by the store root's lock.
  std::vector<GCEntry> Entries;
  std::vector<int> HeldLocks;
  bool Ok = true;
  auto CollectRoot = [&](const std::string &Dir, bool WithQuarantine) {
    struct stat St;
    if (Dir.empty() || ::stat(Dir.c_str(), &St) != 0)
      return; // never created: nothing to collect
    std::string Quarantine = joinPath(Dir, "quarantine");
    int LockFd = probeDirFree(Dir);
    if (LockFd < 0) {
      Report.SkippedLockedDirs++;
      Report.TotalBytes += footprintOf(Dir);
      if (WithQuarantine)
        Report.TotalBytes += footprintOf(Quarantine);
      return;
    }
    HeldLocks.push_back(LockFd);
    if (!scanDir(Dir, Entries, Report, Error) ||
        (WithQuarantine && !scanDir(Quarantine, Entries, Report, Error)))
      Ok = false;
  };
  CollectRoot(CacheDir, /*WithQuarantine=*/false);
  if (Ok && StoreDir != CacheDir)
    CollectRoot(StoreDir, /*WithQuarantine=*/true);

  if (Ok) {
    for (const GCEntry &E : Entries)
      Report.TotalBytes += E.Bytes;
    // Oldest-modified first; ties broken by path for determinism.
    std::sort(Entries.begin(), Entries.end(),
              [](const GCEntry &A, const GCEntry &B) {
                return A.Mtime != B.Mtime ? A.Mtime < B.Mtime
                                          : A.Path < B.Path;
              });
    uint64_t Remaining = Report.TotalBytes;
    for (const GCEntry &E : Entries) {
      if (Remaining <= BudgetBytes)
        break;
      if (::unlink(E.Path.c_str()) != 0)
        continue; // raced away or perms; skip, keep shrinking elsewhere
      Remaining -= E.Bytes;
      Report.EvictedBytes += E.Bytes;
      Report.EvictedFiles++;
    }
  }

  for (int Fd : HeldLocks)
    ::close(Fd);
  return Ok;
}
