//===- tests/GoldenTablesTest.cpp - paper tables against golden values ----===//
///
/// Pins the *values* of the paper's tables, not just the agreement of
/// two execution shapes: every cell a bench prints comes through
/// SweepExecutor, and this suite replays those sweeps in-process from
/// an empty trace cache and compares each cell with a committed
/// reference, read in place.
///
///  - The nine paper specs (perfbench/specs/*.spec) against
///    PerfCounters::fingerprint() in perfbench/reference/paper.fp.
///    Their cells also cover fig10-13, table05/08/10 and
///    mix_indirect_fraction, whose cells are all fig08, fig09, table06
///    or table07 cells.
///  - The three sweeps no paper spec holds (tests/golden/*.spec:
///    fig14, fig15/16 and table09, each a bench's --emit-spec output)
///    against tests/golden/offspec.rows, full counters in
///    sweepResultLine format, so a mismatch names the counter.
///
/// Gangs run threaded (cells do not depend on the thread count), and
/// one pair of labs serves every spec.
///
//===----------------------------------------------------------------------===//

#include "harness/SweepExecutor.h"
#include "harness/SweepSpec.h"
#include "support/Format.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace vmib;

namespace {

std::string sourcePath(const std::string &Rel) {
  return std::string(VMIB_SOURCE_DIR) + "/" + Rel;
}

/// The labs every spec shares, created with the trace cache disabled
/// so each workload is interpreted here, not loaded.
SweepExecutor &executor() {
  static bool CacheOff = (::unsetenv("VMIB_TRACE_CACHE"), true);
  (void)CacheOff;
  static ForthLab Forth;
  static JavaLab Java;
  static SweepExecutor Executor(&Forth, &Java);
  return Executor;
}

/// Loads \p Path and runs it in-process on threaded gangs.
std::vector<PerfCounters> runSpecFile(const std::string &Path,
                                      SweepSpec &Spec) {
  std::string Error;
  EXPECT_TRUE(loadSweepSpecFile(Path, Spec, Error)) << Error;
  Spec.Threads = 0; // auto-detect: every host core per gang
  std::vector<PerfCounters> Cells;
  executor().runAll(Spec, 0, Cells);
  return Cells;
}

/// "spec cell (workload W benchmark, member M 'variant')".
std::string cellName(const SweepSpec &Spec, size_t Cell) {
  size_t W = Cell / Spec.membersPerWorkload();
  size_t M = Cell % Spec.membersPerWorkload();
  size_t CpuIdx, VarIdx, PredIdx;
  Spec.decodeMember(M, CpuIdx, VarIdx, PredIdx);
  return format("%s cell %zu (workload %zu %s, member %zu '%s' on %s)",
                Spec.Name.c_str(), Cell, W, Spec.Benchmarks[W].c_str(), M,
                Spec.Variants[VarIdx].Name.c_str(),
                Spec.Cpus[CpuIdx].c_str());
}

/// The sweepResultLine keys, in PerfCounters::word order.
const char *const CounterNames[PerfCounters::NumWords] = {
    "cycles",       "instrs",     "vminstrs",  "indirects", "mispredicts",
    "icachemisses", "misscycles", "codebytes", "dispatches"};

} // namespace

TEST(GoldenTables, PaperSpecsMatchReferenceFingerprints) {
  // perfbench/reference/paper.fp: "<spec> <cell> <fingerprint hex>".
  std::ifstream Ref(sourcePath("perfbench/reference/paper.fp"));
  ASSERT_TRUE(Ref) << "cannot read perfbench/reference/paper.fp";
  std::map<std::string, std::vector<uint64_t>> Want;
  std::string Line;
  while (std::getline(Ref, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Fields(Line);
    std::string Name, Hex;
    size_t Cell = 0;
    ASSERT_TRUE(Fields >> Name >> Cell >> Hex) << Line;
    ASSERT_EQ(Cell, Want[Name].size()) << "out of order: " << Line;
    Want[Name].push_back(std::strtoull(Hex.c_str(), nullptr, 16));
  }

  // perfbench/run.py's PAPER_SPECS order.
  const char *const Specs[] = {
      "fig07_gforth_celeron",  "fig08_gforth_p4",
      "fig09_java_p4",         "table06_forth_suite",
      "table07_java_suite",    "ablation_predictors",
      "ablation_btb_sweep",    "ablation_parse_policy",
      "ablation_replica_policy"};
  size_t Checked = 0;
  for (const char *Name : Specs) {
    SweepSpec Spec;
    std::vector<PerfCounters> Cells = runSpecFile(
        sourcePath(std::string("perfbench/specs/") + Name + ".spec"), Spec);
    const std::vector<uint64_t> &Fps = Want[Spec.Name];
    ASSERT_EQ(Cells.size(), Fps.size()) << Spec.Name;
    for (size_t I = 0; I < Cells.size(); ++I, ++Checked)
      EXPECT_EQ(Cells[I].fingerprint(), Fps[I])
          << cellName(Spec, I) << ": "
          << sweepResultLine(Spec.Name, I / Spec.membersPerWorkload(),
                             I % Spec.membersPerWorkload(), Cells[I]);
  }
  EXPECT_EQ(Checked, 315u) << "paper.fp covers all nine specs";
}

TEST(GoldenTables, OffSpecRowsMatch) {
  // tests/golden/offspec.rows: one sweepResultLine per cell.
  std::ifstream Rows(sourcePath("tests/golden/offspec.rows"));
  ASSERT_TRUE(Rows) << "cannot read tests/golden/offspec.rows";
  std::map<std::string, std::map<std::pair<size_t, size_t>, PerfCounters>>
      Want;
  std::string Line;
  while (std::getline(Rows, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::string Name;
    size_t W = 0, M = 0;
    PerfCounters C;
    ASSERT_TRUE(parseSweepResultLine(Line, Name, W, M, C)) << Line;
    ASSERT_TRUE(Want[Name].emplace(std::make_pair(W, M), C).second)
        << "duplicate row: " << Line;
  }

  size_t Checked = 0;
  for (const char *Name : {"fig14_static_mix_forth", "fig15_static_mix_java",
                           "table09_forth_native"}) {
    SweepSpec Spec;
    std::vector<PerfCounters> Cells = runSpecFile(
        sourcePath(std::string("tests/golden/") + Name + ".spec"), Spec);
    const auto &Golden = Want[Spec.Name];
    ASSERT_EQ(Cells.size(), Golden.size()) << Spec.Name;
    for (size_t I = 0; I < Cells.size(); ++I, ++Checked) {
      size_t W = I / Spec.membersPerWorkload();
      size_t M = I % Spec.membersPerWorkload();
      auto It = Golden.find({W, M});
      ASSERT_NE(It, Golden.end()) << cellName(Spec, I) << ": no golden row";
      for (unsigned K = 0; K < PerfCounters::NumWords; ++K)
        EXPECT_EQ(Cells[I].word(K), It->second.word(K))
            << cellName(Spec, I) << ": " << CounterNames[K];
    }
  }
  EXPECT_EQ(Checked, 68u) << "fig14 (36), fig15/16 (26), table09 (6)";
}
