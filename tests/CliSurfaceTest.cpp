//===- tests/CliSurfaceTest.cpp - Every binary's declared options ---------===//
///
/// Runs every executable the build makes from bench/, tools/ and
/// examples/ (VMIB_CLI_BINARIES, listed by CMake so a new binary cannot
/// skip the check), from the directory this test runs in:
///  - a misspelled flag exits 1 before any work, names the flag on
///    stderr and prints nothing on stdout;
///  - `--help` exits 0 with its listing on stdout, and every option it
///    lists passes the same binary's check (`--help --name[=value]`),
///    so the listing and the check read one declaration;
///  - a binary with modes declares one option set per mode
///    (trace_synth's generate and --emit-spec).
///
//===----------------------------------------------------------------------===//

#include "harness/SweepOrchestrator.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fcntl.h>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

using namespace vmib;

namespace {

std::vector<std::string> cliBinaries() {
  std::vector<std::string> Names;
  std::stringstream List(VMIB_CLI_BINARIES);
  for (std::string Name; std::getline(List, Name, ',');)
    Names.push_back(Name);
  return Names;
}

/// This test's own directory, where CMake puts the binaries too.
std::string binaryDir() {
  std::string Driver = defaultSweepDriverPath();
  return Driver.substr(0, Driver.rfind('/') + 1);
}

std::string slurp(const std::string &Path) {
  std::string Text;
  if (std::FILE *F = std::fopen(Path.c_str(), "r")) {
    char Buf[4096];
    size_t N;
    while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
      Text.append(Buf, N);
    std::fclose(F);
  }
  return Text;
}

class CliSurfaceTest : public ::testing::Test {
protected:
  void SetUp() override {
    std::snprintf(Dir, sizeof(Dir), "/tmp/vmib-cli-test-XXXXXX");
    ASSERT_NE(nullptr, ::mkdtemp(Dir));
  }
  void TearDown() override {
    std::system(("rm -rf " + std::string(Dir)).c_str());
  }

  /// Runs \p Binary with \p Args; \returns its exit status (-1 when it
  /// died on a signal) with its stdout and stderr in \p Out and \p Err.
  int run(const std::string &Binary, const std::vector<std::string> &Args,
          std::string &Out, std::string &Err) {
    std::string OutPath = std::string(Dir) + "/out";
    std::string ErrPath = std::string(Dir) + "/err";
    std::string Path = binaryDir() + Binary;
    std::vector<char *> Argv = {const_cast<char *>(Path.c_str())};
    for (const std::string &A : Args)
      Argv.push_back(const_cast<char *>(A.c_str()));
    Argv.push_back(nullptr);
    pid_t Pid = ::fork();
    if (Pid == 0) {
      int O = ::open(OutPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      int E = ::open(ErrPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (O < 0 || E < 0 || ::dup2(O, 1) < 0 || ::dup2(E, 2) < 0)
        ::_exit(126);
      ::execv(Path.c_str(), Argv.data());
      ::_exit(127);
    }
    int Status = 0;
    EXPECT_GT(Pid, 0);
    EXPECT_EQ(Pid, ::waitpid(Pid, &Status, 0));
    Out = slurp(OutPath);
    Err = slurp(ErrPath);
    return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  }

  char Dir[64];
};

} // namespace

TEST_F(CliSurfaceTest, EveryBinaryIsListed) {
  std::vector<std::string> Names = cliBinaries();
  for (const char *Expected :
       {"sweep_driver", "trace_synth", "fig08_gforth_p4",
        "mix_indirect_fraction", "table01_btb_loop", "quickstart"}) {
    bool Found = false;
    for (const std::string &N : Names)
      Found |= N == Expected;
    EXPECT_TRUE(Found) << Expected;
  }
  for (const std::string &N : Names)
    EXPECT_EQ(0, ::access((binaryDir() + N).c_str(), X_OK)) << N;
}

TEST_F(CliSurfaceTest, MisspelledFlagExitsOneBeforeAnyWork) {
  for (const std::string &Binary : cliBinaries()) {
    std::string Out, Err;
    EXPECT_EQ(run(Binary, {"--thraeds=4"}, Out, Err), 1) << Binary << Err;
    EXPECT_NE(Err.find("--thraeds"), std::string::npos) << Binary << Err;
    EXPECT_EQ(Out, "") << Binary;
  }
}

TEST_F(CliSurfaceTest, HelpListsWhatTheCheckAccepts) {
  for (const std::string &Binary : cliBinaries()) {
    std::string Help, Err;
    ASSERT_EQ(run(Binary, {"--help"}, Help, Err), 0) << Binary << Err;
    EXPECT_EQ(Err, "") << Binary;
    EXPECT_NE(Help, "") << Binary;
    // Each listed "  --name[=N|=VALUE]  doc" line, given back with a
    // value of its kind, must pass the check and reach --help again.
    std::vector<std::string> Listed = {"--help"};
    std::istringstream Lines(Help);
    for (std::string Line; std::getline(Lines, Line);) {
      if (Line.rfind("  --", 0) != 0)
        continue;
      std::string Option = Line.substr(2, Line.find(' ', 2) - 2);
      size_t Eq = Option.find('=');
      if (Eq != std::string::npos)
        Option = Option.substr(0, Eq) +
                 (Option.substr(Eq) == "=N" ? "=0" : "=x");
      if (Option != "--help")
        Listed.push_back(Option);
    }
    // All at once; one at a time only where options exclude each other
    // (sweep_driver's modes).
    std::string Out;
    if (run(Binary, Listed, Out, Err) == 0)
      continue;
    for (size_t I = 1; I < Listed.size(); ++I) {
      EXPECT_EQ(run(Binary, {"--help", Listed[I]}, Out, Err), 0)
          << Binary << " " << Listed[I] << ": " << Err;
      EXPECT_EQ(Out.rfind("usage: ", 0), 0u) << Binary << " " << Listed[I];
    }
  }
}

TEST_F(CliSurfaceTest, TraceSynthDeclaresOneOptionSetPerMode) {
  // Generate mode writes a trace and reads no shape override, so each
  // one exits 1 naming the flag before a file is written; --emit-spec
  // takes all three and no --out.
  std::string Out, Err;
  const std::string Trace = std::string(Dir) + "/synth.vmibtrace";
  const std::vector<std::string> Workload = {"--seed=1", "--events=1k",
                                             "--entropy=50"};
  for (const std::string Flag : {"--threads=4", "--chunk=1024",
                                 "--decode=stream"}) {
    std::vector<std::string> Args = Workload;
    Args.push_back(Flag);
    Args.push_back("--out=" + Trace);
    EXPECT_EQ(run("trace_synth", Args, Out, Err), 1) << Flag;
    EXPECT_NE(Err.find(Flag.substr(0, Flag.find('='))), std::string::npos)
        << Flag << ": " << Err;
    EXPECT_NE(0, ::access(Trace.c_str(), F_OK)) << Flag << " wrote a trace";
  }

  std::vector<std::string> Emit = Workload;
  Emit.insert(Emit.end(), {"--emit-spec", "--threads=4", "--chunk=1024",
                           "--decode=stream"});
  ASSERT_EQ(run("trace_synth", Emit, Out, Err), 0) << Err;
  for (const char *Line : {"\nthreads 4\n", "\nchunk 1024\n",
                           "\ndecode stream\n"})
    EXPECT_NE(Out.find(Line), std::string::npos) << Line << Out;
  Emit.push_back("--out=" + Trace);
  EXPECT_EQ(run("trace_synth", Emit, Out, Err), 1);
  EXPECT_NE(Err.find("--out"), std::string::npos) << Err;

  // The benchmark's generate call (--seed --events --entropy into the
  // trace cache) still writes its trace.
  ASSERT_EQ(0, ::setenv("VMIB_TRACE_CACHE", Dir, 1));
  int Status = run("trace_synth", Workload, Out, Err);
  ::unsetenv("VMIB_TRACE_CACHE");
  EXPECT_EQ(Status, 0) << Err;
  EXPECT_NE(Out.find("[timing] bench=trace_synth:"), std::string::npos)
      << Out;
}
