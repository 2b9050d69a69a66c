//===- harness/SweepOrchestrator.cpp --------------------------------------===//
///
/// Worker processes are spawned with fork/exec (through /bin/sh -c, in
/// their own process group) instead of popen so the orchestrator keeps
/// the one handle the fault-tolerance layer needs: the pid. Timeouts
/// SIGTERM-then-SIGKILL the whole group, stderr is captured per
/// attempt for diagnostics, and every attempt stages its [result] rows
/// privately until it completes cleanly — a crashed, hung, garbled or
/// short worker contributes nothing, and its job simply re-enters the
/// queue.
///
//===----------------------------------------------------------------------===//

#include "harness/SweepOrchestrator.h"

#include "support/CommandLine.h"
#include "support/Format.h"
#include "support/Random.h"
#include "support/Statistics.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>
#include <utility>

using namespace vmib;

namespace {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

/// One shell word for a path the worker template splices in ({driver},
/// {spec}, {store}'s directory): \p S itself when every character is
/// in [A-Za-z0-9_./:@%+=,-], single-quoted otherwise — so a space, a
/// quote or shell syntax neither splits the argument nor runs, and
/// ordinary paths also survive a template that wraps the worker in
/// `sh -c '...'`.
std::string shellWord(const std::string &S) {
  if (!S.empty() && S.find_first_not_of("ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                                        "abcdefghijklmnopqrstuvwxyz"
                                        "0123456789_./:@%+=,-") ==
                        std::string::npos)
    return S;
  std::string Quoted = "'";
  for (char C : S)
    Quoted += C == '\'' ? std::string("'\\''") : std::string(1, C);
  return Quoted + "'";
}

/// Expands the worker template in one pass: each placeholder of
/// \p Values becomes its value, any other text stays as written, and
/// no value is rescanned (a path may hold "{job}").
std::string
expandTemplate(const std::string &Template,
               const std::vector<std::pair<std::string, std::string>> &Values) {
  std::string Out;
  size_t Pos = 0;
  while (Pos < Template.size()) {
    const std::pair<std::string, std::string> *Hit = nullptr;
    if (Template[Pos] == '{')
      for (const auto &KV : Values)
        if (Template.compare(Pos, KV.first.size(), KV.first) == 0) {
          Hit = &KV;
          break;
        }
    if (Hit) {
      Out += Hit->second;
      Pos += Hit->first.size();
    } else {
      Out += Template[Pos++];
    }
  }
  return Out;
}

/// {store}'s expansion: `--store-dir=<dir>` as one shell word while
/// \p Store is open, nothing otherwise.
std::string storeWorkerArg(const ResultStore *Store) {
  if (!Store || !Store->isOpen())
    return std::string();
  return shellWord("--store-dir=" + Store->dir());
}

/// Decimal u64 at \p C; 0 on anything malformed — no leading digit
/// (strtoull would accept "-1" as a huge wrapped value) or an
/// out-of-range token. Worker accounting tokens are advisory, so a
/// garbled line degrades to "absent", never to a saturated aggregate.
uint64_t tokenU64(const char *C) {
  if (*C < '0' || *C > '9')
    return 0;
  errno = 0;
  char *End = nullptr;
  uint64_t V = std::strtoull(C, &End, 10);
  if (errno != 0 || End == C)
    return 0;
  return V;
}

/// Pulls "replayed_events=N" out of a worker [timing] line (0 if the
/// token is absent) so the orchestrator can aggregate throughput.
uint64_t replayedEventsOf(const std::string &Line) {
  size_t Pos = Line.find("replayed_events=");
  if (Pos == std::string::npos)
    return 0;
  return tokenU64(Line.c_str() + Pos + std::strlen("replayed_events="));
}

/// Same for "capture_s=S": summed worker capture-busy seconds, so the
/// merged timing line does not misreport sharded capture as free.
double captureSecondsOf(const std::string &Line) {
  size_t Pos = Line.find("capture_s=");
  if (Pos == std::string::npos)
    return 0;
  return std::strtod(Line.c_str() + Pos + std::strlen("capture_s="), nullptr);
}

/// "key=N" extraction for worker [store] lines; \p Key carries its
/// leading space so e.g. " hits=" never matches inside another token.
uint64_t storeTokenOf(const std::string &Line, const char *Key) {
  size_t Pos = Line.find(Key);
  if (Pos == std::string::npos)
    return 0;
  return tokenU64(Line.c_str() + Pos + std::strlen(Key));
}

/// Crash-drill hook (CI `crash-recovery`): when
/// VMIB_ORCH_KILL_AFTER_COMMITS=K is set, the orchestrator SIGKILLs
/// ITSELF right after its Kth job commit — after the committed
/// worker's cells are durable in the result store, before the merged
/// sweep is announced. A re-run must then serve exactly the committed
/// jobs from the store and recompute only the rest, bit-identically.
/// 0 (unset, or malformed after one warning) disables the drill.
uint64_t orchKillAfterCommits() {
  static const uint64_t K = envCount("VMIB_ORCH_KILL_AFTER_COMMITS", 0);
  return K;
}

/// The last stderr bytes kept per attempt (diagnostics) and the slice
/// of them quoted into error messages.
constexpr size_t StderrTailBytes = 4096;
constexpr size_t StderrQuoteBytes = 800;

/// Renders a captured stderr tail as a one-clause diagnostic suffix.
std::string stderrSuffix(const std::string &Tail) {
  if (Tail.empty())
    return "; stderr: <empty>";
  std::string Quote = Tail.size() > StderrQuoteBytes
                          ? "..." + Tail.substr(Tail.size() - StderrQuoteBytes)
                          : Tail;
  // Trim the trailing newline so the diagnostic stays one message.
  while (!Quote.empty() && (Quote.back() == '\n' || Quote.back() == '\r'))
    Quote.pop_back();
  return "; stderr tail: \"" + Quote + "\"";
}

/// One in-flight worker process = one attempt at one job. Everything
/// the worker reports is staged here and committed to the shared
/// slices only when the attempt finishes cleanly, so a failed attempt
/// is discarded wholesale — the requeue invariant.
struct Attempt {
  pid_t Pid = -1;
  int OutFd = -1;
  int ErrFd = -1;
  size_t Job = 0;
  unsigned AttemptNo = 0;
  bool TimedOut = false;
  bool TermSent = false;
  bool KillSent = false;
  bool OutEof = false;
  bool ErrEof = false;
  bool HasDeadline = false;
  TimePoint Deadline; ///< job timeout (HasDeadline)
  TimePoint KillAt;   ///< SIGTERM escalation (TermSent)
  std::string OutLine; ///< partial stdout line accumulator
  std::string ErrTail; ///< last StderrTailBytes of stderr
  std::string ProtocolError; ///< first garbled/duplicate/foreign row
  // Staged results.
  std::vector<PerfCounters> Slice;
  std::vector<uint8_t> Seen;
  size_t SeenCount = 0;
  std::vector<std::string> TimingLines;
  uint64_t ReplayedEvents = 0;
  double CaptureSeconds = 0;
  // Staged [store] accounting (committed attempts only, like timings).
  uint64_t StoreHits = 0;
  uint64_t StoreMisses = 0;
  uint64_t StoreRecovered = 0;
  uint64_t StoreQuarantined = 0;
  uint64_t StoreFlushFailures = 0;
};

/// Per-job scheduling state.
struct JobState {
  unsigned NextAttemptNo = 0; ///< monotonic; {attempt} substitution
  unsigned RetriesUsed = 0;
  bool Queued = true;   ///< waiting for dispatch (maybe behind ReadyAt)
  bool Committed = false;
  bool FailedForGood = false;
  TimePoint ReadyAt = TimePoint::min(); ///< backoff gate while Queued
  std::string LastError;
};

/// The whole fan-out as a value: spawned once per orchestrateSweep.
class Orchestration {
public:
  Orchestration(const SweepSpec &Spec, const SweepWorkerOptions &Opt,
                const std::string &SpecPath, const std::string &Template,
                const std::string &Driver, const std::string &StoreArg)
      : Spec(Spec), Opt(Opt), SpecPath(SpecPath), Template(Template),
        Driver(Driver), StoreArg(StoreArg),
        Jobs(decomposeSweep(Spec, Opt.Shards)), JobStates(Jobs.size()),
        Slices(Jobs.size()),
        WorkerThreads(Opt.Threads != 0 ? Opt.Threads : Spec.Threads) {
    Concurrent = Opt.Shards < 1 ? 1 : Opt.Shards;
    if (Concurrent > Jobs.size())
      Concurrent = static_cast<unsigned>(Jobs.size());
  }

  bool run(std::vector<PerfCounters> &Cells, SweepRunStats &Stats,
           std::string &Error, OrchestratorReport &Report);

private:
  bool spawn(size_t JobIdx);
  void dispatchReady(TimePoint Now);
  void auditCommitted();
  void enforceDeadlines(TimePoint Now);
  int pollTimeoutMs(TimePoint Now) const;
  bool drain(Attempt &A);           ///< returns false on transient EAGAIN
  void handleLine(Attempt &A, const std::string &Line);
  void tryReap(Attempt &A, TimePoint Now);
  void finishAttempt(Attempt &A, int Status, TimePoint Now);
  void commit(Attempt &A);
  void failAttempt(Attempt &A, std::string Why, TimePoint Now);
  void killAttempt(Attempt &A, int Sig);
  void abandonAll();
  unsigned backoffDelayMs(size_t JobIdx, unsigned Requeue) const;
  bool allJobsSettled() const;

  const SweepSpec &Spec;
  const SweepWorkerOptions &Opt;
  const std::string &SpecPath;
  const std::string &Template;
  const std::string &Driver;
  const std::string &StoreArg; ///< {store}'s expansion

  std::vector<ShardJob> Jobs;
  std::vector<JobState> JobStates;
  std::vector<std::vector<PerfCounters>> Slices;
  std::vector<Attempt> Pool;
  unsigned Concurrent = 1;
  unsigned WorkerThreads = 1;

  bool Failed = false;
  std::string FailError;
  SweepRunStats RunStats;
  OrchestratorReport Rep;
};

bool Orchestration::spawn(size_t JobIdx) {
  JobState &J = JobStates[JobIdx];
  std::string Cmd =
      expandTemplate(Template, {{"{driver}", shellWord(Driver)},
                                {"{spec}", shellWord(SpecPath)},
                                {"{shards}", std::to_string(Opt.Shards)},
                                {"{job}", std::to_string(JobIdx)},
                                {"{threads}", std::to_string(WorkerThreads)},
                                {"{attempt}", std::to_string(J.NextAttemptNo)},
                                {"{store}", StoreArg}});

  int OutPipe[2], ErrPipe[2];
  if (::pipe(OutPipe) != 0) {
    FailError = format("pipe failed: %s", std::strerror(errno));
    return false;
  }
  if (::pipe(ErrPipe) != 0) {
    ::close(OutPipe[0]);
    ::close(OutPipe[1]);
    FailError = format("pipe failed: %s", std::strerror(errno));
    return false;
  }
  pid_t Pid = ::fork();
  if (Pid < 0) {
    for (int Fd : {OutPipe[0], OutPipe[1], ErrPipe[0], ErrPipe[1]})
      ::close(Fd);
    FailError = format("fork failed: %s", std::strerror(errno));
    return false;
  }
  if (Pid == 0) {
    // Child: own process group so a timeout kill reaches the shell
    // AND everything it spawned, stdout/stderr onto the pipes.
    ::setpgid(0, 0);
    ::dup2(OutPipe[1], STDOUT_FILENO);
    ::dup2(ErrPipe[1], STDERR_FILENO);
    for (int Fd : {OutPipe[0], OutPipe[1], ErrPipe[0], ErrPipe[1]})
      ::close(Fd);
    ::execl("/bin/sh", "sh", "-c", Cmd.c_str(), (char *)nullptr);
    _exit(127);
  }
  // Parent. setpgid here too: whichever side runs first wins the race
  // and both calls agree on the group id.
  ::setpgid(Pid, Pid);
  ::close(OutPipe[1]);
  ::close(ErrPipe[1]);

  Pool.emplace_back();
  Attempt &A = Pool.back();
  A.Pid = Pid;
  A.OutFd = OutPipe[0];
  A.ErrFd = ErrPipe[0];
  A.Job = JobIdx;
  A.AttemptNo = J.NextAttemptNo++;
  for (int Fd : {A.OutFd, A.ErrFd}) {
    ::fcntl(Fd, F_SETFL, ::fcntl(Fd, F_GETFL) | O_NONBLOCK);
    // Don't leak this pipe into later workers' shells.
    ::fcntl(Fd, F_SETFD, FD_CLOEXEC);
  }
  size_t Members = Jobs[JobIdx].MemberEnd - Jobs[JobIdx].MemberBegin;
  A.Slice.resize(Members);
  A.Seen.assign(Members, 0);
  if (Opt.JobTimeoutMs > 0) {
    A.HasDeadline = true;
    A.Deadline = Clock::now() + std::chrono::milliseconds(Opt.JobTimeoutMs);
  }
  Rep.AttemptsLaunched++;
  return true;
}

void Orchestration::dispatchReady(TimePoint Now) {
  for (size_t JobIdx = 0; JobIdx < Jobs.size() && Pool.size() < Concurrent;
       ++JobIdx) {
    JobState &J = JobStates[JobIdx];
    if (!J.Queued || J.Committed || J.FailedForGood || Now < J.ReadyAt)
      continue;
    J.Queued = false;
    if (!spawn(JobIdx)) {
      Failed = true;
      return;
    }
  }
}

void Orchestration::enforceDeadlines(TimePoint Now) {
  for (Attempt &A : Pool) {
    if (A.HasDeadline && !A.TermSent && Now >= A.Deadline) {
      A.TimedOut = true;
      A.TermSent = true;
      A.KillAt = Now + std::chrono::milliseconds(
                           Opt.KillGraceMs > 0 ? Opt.KillGraceMs : 1);
      Rep.Timeouts++;
      killAttempt(A, SIGTERM);
    }
    if (A.TermSent && !A.KillSent && Now >= A.KillAt) {
      A.KillSent = true;
      killAttempt(A, SIGKILL);
    }
  }
}

int Orchestration::pollTimeoutMs(TimePoint Now) const {
  TimePoint Next = TimePoint::max();
  for (size_t I = 0; I < JobStates.size(); ++I) {
    const JobState &J = JobStates[I];
    if (J.Queued && !J.Committed && !J.FailedForGood && J.ReadyAt > Now)
      Next = std::min(Next, J.ReadyAt);
  }
  bool Unreaped = false;
  for (const Attempt &A : Pool) {
    if (A.HasDeadline && !A.TermSent)
      Next = std::min(Next, A.Deadline);
    if (A.TermSent && !A.KillSent)
      Next = std::min(Next, A.KillAt);
    Unreaped |= A.OutEof && A.ErrEof;
  }
  if (Unreaped)
    // A worker closed its pipes but has not exited yet: tick until
    // waitpid succeeds (or its deadline fires).
    Next = std::min(Next, Now + std::chrono::milliseconds(20));
  if (Next == TimePoint::max())
    return -1;
  auto Ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(Next - Now)
          .count();
  return Ms < 0 ? 0 : static_cast<int>(std::min<long long>(Ms, 60000));
}

void Orchestration::handleLine(Attempt &A, const std::string &Line) {
  if (!A.ProtocolError.empty())
    return;
  const ShardJob &Job = Jobs[A.Job];
  std::string Name;
  size_t Workload, Member;
  PerfCounters C;
  if (parseSweepResultLine(Line, Name, Workload, Member, C)) {
    if (Name != Spec.Name || Workload != Job.Workload ||
        Member < Job.MemberBegin || Member >= Job.MemberEnd) {
      A.ProtocolError =
          format("result line outside its shard: %s", Line.c_str());
      return;
    }
    size_t Slot = Member - Job.MemberBegin;
    if (A.Seen[Slot]) {
      A.ProtocolError = format("duplicate result for member %zu", Member);
      return;
    }
    A.Seen[Slot] = 1;
    A.SeenCount++;
    A.Slice[Slot] = C;
  } else if (Line.compare(0, 8, "[timing]") == 0) {
    // Staged like the rows: only a committed attempt's timing lines
    // reach the artifact and the stats, so retries never
    // double-count.
    A.ReplayedEvents += replayedEventsOf(Line);
    A.CaptureSeconds += captureSecondsOf(Line);
    A.TimingLines.push_back(Line);
  } else if (Line.compare(0, 7, "[store]") == 0) {
    // Worker result-store accounting, staged for the same reason.
    A.StoreHits += storeTokenOf(Line, " hits=");
    A.StoreMisses += storeTokenOf(Line, " misses=");
    A.StoreRecovered += storeTokenOf(Line, " recovered=");
    A.StoreQuarantined += storeTokenOf(Line, " quarantined=");
    A.StoreFlushFailures += storeTokenOf(Line, " flush_failures=");
  }
}

/// Consumes whatever the attempt has written on both pipes.
bool Orchestration::drain(Attempt &A) {
  char Buf[4096];
  while (!A.OutEof) {
    ssize_t N = ::read(A.OutFd, Buf, sizeof(Buf));
    if (N > 0) {
      for (ssize_t I = 0; I < N; ++I) {
        if (Buf[I] == '\n') {
          handleLine(A, A.OutLine);
          A.OutLine.clear();
        } else {
          A.OutLine += Buf[I];
        }
      }
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      break;
    A.OutEof = true; // EOF or hard read error; exit status will tell
  }
  while (!A.ErrEof) {
    ssize_t N = ::read(A.ErrFd, Buf, sizeof(Buf));
    if (N > 0) {
      A.ErrTail.append(Buf, static_cast<size_t>(N));
      if (A.ErrTail.size() > StderrTailBytes)
        A.ErrTail.erase(0, A.ErrTail.size() - StderrTailBytes);
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      break;
    A.ErrEof = true;
  }
  return A.OutEof && A.ErrEof;
}

void Orchestration::killAttempt(Attempt &A, int Sig) {
  if (A.Pid > 0)
    ::kill(-A.Pid, Sig); // whole process group: sh AND its children
}

void Orchestration::tryReap(Attempt &A, TimePoint Now) {
  if (!(A.OutEof && A.ErrEof) || A.Pid <= 0)
    return;
  int Status = 0;
  pid_t R;
  do {
    R = ::waitpid(A.Pid, &Status, WNOHANG);
  } while (R < 0 && errno == EINTR);
  if (R != A.Pid)
    return; // still running with closed pipes; the tick retries
  ::close(A.OutFd);
  ::close(A.ErrFd);
  A.OutFd = A.ErrFd = -1;
  A.Pid = -1;
  finishAttempt(A, Status, Now);
}

void Orchestration::finishAttempt(Attempt &A, int Status, TimePoint Now) {
  if (!A.OutLine.empty()) {
    handleLine(A, A.OutLine);
    A.OutLine.clear();
  }
  size_t Members = Jobs[A.Job].MemberEnd - Jobs[A.Job].MemberBegin;
  bool CleanExit = WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
  if (A.TimedOut) {
    failAttempt(A,
                format("timed out after %u ms (SIGTERM%s)", Opt.JobTimeoutMs,
                       A.KillSent ? ", escalated to SIGKILL" : ""),
                Now);
  } else if (!A.ProtocolError.empty()) {
    failAttempt(A, A.ProtocolError, Now);
  } else if (!CleanExit) {
    failAttempt(A,
                WIFSIGNALED(Status)
                    ? format("killed by signal %d", WTERMSIG(Status))
                    : format("exited with status %d",
                             WIFEXITED(Status) ? WEXITSTATUS(Status)
                                               : Status),
                Now);
  } else if (A.SeenCount != Members) {
    failAttempt(A,
                format("exited 0 after reporting %zu of %zu members",
                       A.SeenCount, Members),
                Now);
  } else {
    commit(A);
  }
}

void Orchestration::commit(Attempt &A) {
  JobState &J = JobStates[A.Job];
  J.Committed = true;
  Slices[A.Job] = std::move(A.Slice);
  RunStats.ReplayedEvents += A.ReplayedEvents;
  RunStats.CaptureSeconds += A.CaptureSeconds;
  Rep.StoreHits += A.StoreHits;
  Rep.StoreMisses += A.StoreMisses;
  Rep.StoreRecovered += A.StoreRecovered;
  Rep.StoreQuarantined += A.StoreQuarantined;
  Rep.StoreFlushFailures += A.StoreFlushFailures;
  if (Opt.EchoWorkerTimings)
    for (const std::string &Line : A.TimingLines)
      std::printf("%s\n", Line.c_str());
  // Crash drill: die mid-sweep, AFTER this worker flushed its cells.
  if (uint64_t K = orchKillAfterCommits()) {
    static uint64_t CommitsEver = 0;
    if (++CommitsEver >= K) {
      std::fprintf(stderr,
                   "[orchestrator] VMIB_ORCH_KILL_AFTER_COMMITS=%llu reached; "
                   "raising SIGKILL\n",
                   static_cast<unsigned long long>(K));
      std::fflush(stdout);
      std::fflush(stderr);
      ::raise(SIGKILL);
    }
  }
}

/// The one audit site of an orchestrated sweep: once every primary has
/// settled, this process audits each committed job's slice through the
/// same Auditor::auditSlice that SweepExecutor::runAll uses, on a clean
/// executor (no store, no fault injection). So the sample, the
/// decorrelated shape and the triage ladder are the in-process ones,
/// and no worker template can drop the shape. Repairs land in Slices
/// before the merge; triage quarantines in Opt.Store. A job lost under
/// PartialOk has no slice, so nothing zero-filled is audited.
void Orchestration::auditCommitted() {
  SweepExecutor Clean;
  Auditor Audit(Opt.Audit, Clean, Opt.Store);
  GangReplayer::Stats Load;
  WallTimer Timer;
  for (size_t J = 0; J < Jobs.size(); ++J)
    if (JobStates[J].Committed)
      Audit.auditSlice(Spec, Jobs[J].Workload, Jobs[J].MemberBegin,
                       Jobs[J].MemberEnd, Slices[J], &Load);
  printShapeTiming(Spec.Name + ":audit", decorrelatedAuditShape(Spec),
                   Timer.seconds(), Load);
  Rep.Audit = Audit.stats();
}

unsigned Orchestration::backoffDelayMs(size_t JobIdx,
                                       unsigned Requeue) const {
  if (Opt.BackoffMs == 0)
    return 0;
  unsigned Shift = std::min(Requeue > 0 ? Requeue - 1 : 0u, 6u);
  uint64_t Base = static_cast<uint64_t>(Opt.BackoffMs) << Shift;
  // ±25% deterministic jitter: same seed + same failure schedule =
  // same delays, so fault-injection tests replay exactly.
  SplitMix64 G(Opt.JitterSeed ^ (JobIdx * 0x9E3779B97F4A7C15ULL) ^
               (static_cast<uint64_t>(Requeue) * 0xD1B54A32D192ED03ULL));
  uint64_t Span = Base / 2 + 1;
  uint64_t Jitter = G.next() % Span; // in [0, Base/2]
  uint64_t Delay = Base - Base / 4 + Jitter;
  return static_cast<unsigned>(std::min<uint64_t>(Delay, 10u * 60 * 1000));
}

void Orchestration::failAttempt(Attempt &A, std::string Why, TimePoint Now) {
  JobState &J = JobStates[A.Job];
  Rep.WorkerFailures++;
  std::string Desc = format("worker for job %zu (attempt %u) %s%s", A.Job,
                            A.AttemptNo, Why.c_str(),
                            stderrSuffix(A.ErrTail).c_str());
  J.LastError = Desc;
  if (Rep.FirstFailure.empty())
    Rep.FirstFailure = Desc;
  if (J.RetriesUsed < Opt.Retries) {
    J.RetriesUsed++;
    Rep.RetriesScheduled++;
    unsigned DelayMs = backoffDelayMs(A.Job, J.RetriesUsed);
    J.Queued = true;
    J.ReadyAt = Now + std::chrono::milliseconds(DelayMs);
    std::fprintf(stderr,
                 "[orchestrator] %s; requeued (retry %u/%u, backoff %u ms)\n",
                 Desc.c_str(), J.RetriesUsed, Opt.Retries, DelayMs);
    return;
  }
  J.FailedForGood = true;
  if (Opt.PartialOk) {
    Rep.FailedJobs.push_back(A.Job);
    Rep.FailedJobErrors.push_back(Desc);
    std::fprintf(stderr,
                 "[orchestrator] %s; retries exhausted (%u), continuing "
                 "without members [%zu, %zu) of workload %zu (--partial-ok)\n",
                 Desc.c_str(), Opt.Retries, Jobs[A.Job].MemberBegin,
                 Jobs[A.Job].MemberEnd, Jobs[A.Job].Workload);
    return;
  }
  Failed = true;
  FailError = format("%s; job failed after %u attempt(s)", Desc.c_str(),
                     J.NextAttemptNo);
}

void Orchestration::abandonAll() {
  for (Attempt &A : Pool) {
    if (A.Pid > 0) {
      killAttempt(A, SIGKILL);
      int Status;
      pid_t R;
      do {
        R = ::waitpid(A.Pid, &Status, 0);
      } while (R < 0 && errno == EINTR);
    }
    if (A.OutFd >= 0)
      ::close(A.OutFd);
    if (A.ErrFd >= 0)
      ::close(A.ErrFd);
  }
  Pool.clear();
}

bool Orchestration::allJobsSettled() const {
  for (const JobState &J : JobStates)
    if (!J.Committed && !J.FailedForGood)
      return false;
  return true;
}

bool Orchestration::run(std::vector<PerfCounters> &Cells,
                        SweepRunStats &Stats, std::string &Error,
                        OrchestratorReport &Report) {
  WallTimer Wall;
  RunStats.Configs = Spec.numCells();

  // Serve whole jobs from the result store before spawning anything: a
  // job whose workload has a cached trace (so its content hash is
  // knowable without capture) AND whose every member resolves by
  // content key is committed here, worker-free. probe() keeps the
  // workers' own hit/miss accounting undistorted. Partially-covered
  // jobs still dispatch — their worker shares the store and serves the
  // covered members itself.
  if (Opt.Store && Opt.Store->isOpen()) {
    for (size_t J = 0; J < Jobs.size(); ++J) {
      const ShardJob &Job = Jobs[J];
      StoredSlice Stored =
          probeStoredSlice(*Opt.Store, Spec, Job.Workload, Job.MemberBegin,
                           Job.MemberEnd, /*Counted=*/false);
      if (!Stored.complete())
        continue;
      Slices[J] = std::move(Stored.Cells);
      JobStates[J].Committed = true;
      JobStates[J].Queued = false;
      Rep.JobsServedFromStore++;
      Rep.StoreHits += Job.MemberEnd - Job.MemberBegin;
    }
  }

  while (!Failed && (!allJobsSettled() || !Pool.empty())) {
    TimePoint Now = Clock::now();
    dispatchReady(Now);
    if (Failed)
      break;
    enforceDeadlines(Now);

    std::vector<struct pollfd> Fds;
    std::vector<size_t> FdAttempt; // pollfd index -> Pool index
    for (size_t I = 0; I < Pool.size(); ++I) {
      if (!Pool[I].OutEof) {
        Fds.push_back({Pool[I].OutFd, POLLIN, 0});
        FdAttempt.push_back(I);
      }
      if (!Pool[I].ErrEof) {
        Fds.push_back({Pool[I].ErrFd, POLLIN, 0});
        FdAttempt.push_back(I);
      }
    }
    int Timeout = pollTimeoutMs(Now);
    if (Fds.empty() && Timeout < 0) {
      // Nothing runnable and nothing to wait for: every job settled
      // (loop condition re-checks) or a logic bug — never spin.
      break;
    }
    int R = ::poll(Fds.empty() ? nullptr : Fds.data(), Fds.size(), Timeout);
    if (R < 0) {
      if (errno == EINTR)
        continue; // a signal is not a sweep failure: re-poll
      Failed = true;
      FailError = format("poll failed: %s", std::strerror(errno));
      break;
    }
    // Drain readable pipes, then reap attempts whose pipes are done.
    for (size_t I = 0; I < Fds.size(); ++I)
      if (Fds[I].revents & (POLLIN | POLLHUP | POLLERR))
        drain(Pool[FdAttempt[I]]);
    Now = Clock::now();
    enforceDeadlines(Now);
    for (size_t I = 0; I < Pool.size();) {
      tryReap(Pool[I], Now);
      if (Pool[I].Pid < 0 && Pool[I].OutFd < 0)
        Pool.erase(Pool.begin() + I);
      else
        ++I;
    }
  }

  abandonAll();
  if (!Failed && Opt.Audit.enabled())
    auditCommitted();
  Report = std::move(Rep);
  if (Failed) {
    Error = FailError;
    return false;
  }
  RunStats.ReplaySeconds = Wall.seconds();
  Stats = RunStats;

  // Coverage accounting (and the partial-ok scatter).
  Report.CellCovered.assign(Spec.numCells(), 0);
  for (size_t J = 0; J < Jobs.size(); ++J)
    if (JobStates[J].Committed)
      for (size_t M = Jobs[J].MemberBegin; M < Jobs[J].MemberEnd; ++M)
        Report.CellCovered[Spec.cellIndex(Jobs[J].Workload, M)] = 1;

  if (!Report.FailedJobs.empty()) {
    // Partial completion: zero-fill the lost cells, scatter the rest.
    // mergeShardResults would (rightly) reject the gap, so the report
    // is the caller's record of what is real. FailedJobs stays in
    // failure order — it is parallel to FailedJobErrors.
    Cells.assign(Spec.numCells(), PerfCounters());
    for (size_t J = 0; J < Jobs.size(); ++J) {
      if (!JobStates[J].Committed)
        continue;
      for (size_t M = Jobs[J].MemberBegin; M < Jobs[J].MemberEnd; ++M)
        Cells[Spec.cellIndex(Jobs[J].Workload, M)] =
            Slices[J][M - Jobs[J].MemberBegin];
    }
    return true;
  }
  return mergeShardResults(Spec, Jobs, Slices, Cells, Error);
}

} // namespace

std::string vmib::defaultSweepDriverPath() {
  char Buf[4096];
  ssize_t N = ::readlink("/proc/self/exe", Buf, sizeof(Buf) - 1);
  if (N <= 0)
    return "sweep_driver";
  Buf[N] = '\0';
  std::string Path(Buf);
  size_t Slash = Path.rfind('/');
  if (Slash == std::string::npos)
    return "sweep_driver";
  return Path.substr(0, Slash + 1) + "sweep_driver";
}

bool vmib::orchestrateSweep(const SweepSpec &Spec,
                            const SweepWorkerOptions &Opt,
                            std::vector<PerfCounters> &Cells,
                            SweepRunStats &Stats, std::string &Error,
                            OrchestratorReport *Report) {
  std::string Template = Opt.CommandTemplate.empty()
                             ? "{driver} --worker --spec={spec} "
                               "--shards={shards} --job={job} "
                               "--threads={threads} --attempt={attempt} "
                               "{store}"
                             : Opt.CommandTemplate;
  // The command line is the workers' only way to the store: a template
  // that drops {store} would run them storeless without a word.
  std::string StoreArg = storeWorkerArg(Opt.Store);
  if (!StoreArg.empty() && Template.find("{store}") == std::string::npos) {
    Error = "the worker command template lacks {store} (--store-dir=<dir>) "
            "while the result store is open";
    return false;
  }

  // Make the spec reachable by workers; a temp file unless the caller
  // already has one on (shared) disk that says the same thing. Workers
  // see nothing but {spec}, so a file that predates an override of
  // its chunk, decode or threads must not reach them. A path this
  // process cannot read may be a remote-only one; it passes through.
  std::string SpecPath = Opt.SpecPath;
  SweepSpec OnDisk;
  std::string LoadError;
  bool OwnSpecFile = false;
  if (SpecPath.empty() ||
      (loadSweepSpecFile(SpecPath, OnDisk, LoadError) &&
       printSweepSpec(OnDisk) != printSweepSpec(Spec))) {
    // The path reaches the workers' shell through {spec}, so it is
    // made from a fixed pattern: no spec text ends up in it.
    char Temp[] = "/tmp/vmib-spec-XXXXXX.spec";
    int Fd = ::mkstemps(Temp, 5);
    if (Fd < 0) {
      Error = format("cannot create a temp spec file: %s",
                     std::strerror(errno));
      return false;
    }
    ::close(Fd);
    SpecPath = Temp;
    OwnSpecFile = true;
    if (!writeSweepSpecFile(Spec, SpecPath, Error)) {
      std::remove(SpecPath.c_str());
      return false;
    }
  }

  std::string Driver =
      Opt.DriverBinary.empty() ? defaultSweepDriverPath() : Opt.DriverBinary;

  Orchestration Run(Spec, Opt, SpecPath, Template, Driver, StoreArg);
  OrchestratorReport LocalReport;
  bool Ok = Run.run(Cells, Stats, Error, LocalReport);
  if (Report)
    *Report = std::move(LocalReport);
  if (OwnSpecFile)
    std::remove(SpecPath.c_str());
  return Ok;
}
