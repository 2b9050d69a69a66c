//===- tests/GoldenTablesTest.cpp - paper tables against golden values ----===//
///
/// Pins the *values* of the paper's tables, not just the agreement of
/// two execution shapes: every cell a bench prints comes through
/// SweepExecutor, and this suite replays those sweeps in-process from
/// an empty trace cache and compares each cell with a committed
/// reference, read in place.
///
///  - The nine paper specs (perfbench/specs/*.spec) against
///    tests/golden/paper.rows, whose fingerprints are first pinned to
///    perfbench/reference/paper.fp (the benchmark's reference) with no
///    replay, so the two files cannot drift. Their cells also cover
///    fig10-13, table05/08/10 and mix_indirect_fraction, whose cells
///    are all fig08, fig09, table06 or table07 cells.
///  - The three sweeps no paper spec holds (tests/golden/*.spec:
///    fig14, fig15/16 and table09, each a bench's --emit-spec output)
///    against tests/golden/offspec.rows.
///
/// Both row files hold full counters in sweepResultLine format, so a
/// mismatch names the spec, the cell and the counter. Gangs run
/// threaded (cells do not depend on the thread count), and one pair of
/// labs serves every spec.
///
/// paper.rows was generated from an empty trace cache, one worker job
/// per workload, in PAPER_SPECS order (bash, from the source root,
/// keeping the file's '#' header):
///
///   SPECS="fig07_gforth_celeron fig08_gforth_p4 fig09_java_p4
///     table06_forth_suite table07_java_suite ablation_predictors
///     ablation_btb_sweep ablation_parse_policy ablation_replica_policy"
///   D=build/sweep_driver
///   for S in $SPECS; do
///     F=perfbench/specs/$S.spec
///     for ((J = 0; J < $(grep -c '^benchmark ' $F); J++)); do
///       env -u VMIB_TRACE_CACHE $D --spec=$F --worker --shards=1 --job=$J |
///         grep '^\[result\]'
///     done
///   done
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

/// Golden cells of one sweep by (workload, member).
using SweepRows = std::map<std::pair<size_t, size_t>, PerfCounters>;

/// Reads a sweepResultLine file ('#' lines are comments) into rows by
/// sweep name.
void readRows(const std::string &Rel, std::map<std::string, SweepRows> &Out) {
  std::ifstream Rows(sourcePath(Rel));
  ASSERT_TRUE(Rows) << "cannot read " << Rel;
  std::string Line;
  while (std::getline(Rows, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::string Name;
    size_t W = 0, M = 0;
    PerfCounters C;
    ASSERT_TRUE(parseSweepResultLine(Line, Name, W, M, C)) << Line;
    ASSERT_TRUE(Out[Name].emplace(std::make_pair(W, M), C).second)
        << "duplicate row: " << Line;
  }
}

/// Compares every cell of \p Spec with its golden row, counter by
/// counter; adds the cells compared to \p Checked.
void expectCellsMatchRows(const SweepSpec &Spec,
                          const std::vector<PerfCounters> &Cells,
                          const SweepRows &Golden, size_t &Checked) {
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
  std::map<std::string, SweepRows> Rows;
  readRows("tests/golden/paper.rows", Rows);
  if (HasFatalFailure())
    return;

  // perfbench/run.py's PAPER_SPECS order.
  const char *const Specs[] = {
      "fig07_gforth_celeron",  "fig08_gforth_p4",
      "fig09_java_p4",         "table06_forth_suite",
      "table07_java_suite",    "ablation_predictors",
      "ablation_btb_sweep",    "ablation_parse_policy",
      "ablation_replica_policy"};
  auto SpecPath = [](const char *Name) {
    return sourcePath(std::string("perfbench/specs/") + Name + ".spec");
  };

  // The rows are paper.fp's cells: pinned before anything replays.
  size_t Pinned = 0;
  for (const char *Name : Specs) {
    SweepSpec Spec;
    std::string Error;
    ASSERT_TRUE(loadSweepSpecFile(SpecPath(Name), Spec, Error)) << Error;
    const std::vector<uint64_t> &Fps = Want[Spec.Name];
    const SweepRows &Golden = Rows[Spec.Name];
    ASSERT_EQ(Golden.size(), Fps.size()) << Spec.Name;
    for (const auto &[Key, C] : Golden) {
      size_t Cell = Spec.cellIndex(Key.first, Key.second);
      ASSERT_LT(Cell, Fps.size()) << cellName(Spec, Cell);
      EXPECT_EQ(C.fingerprint(), Fps[Cell])
          << cellName(Spec, Cell) << ": paper.rows disagrees with paper.fp";
      ++Pinned;
    }
  }
  ASSERT_EQ(Pinned, 315u) << "paper.fp covers all nine specs";
  if (HasFailure())
    return;

  size_t Checked = 0;
  for (const char *Name : Specs) {
    SweepSpec Spec;
    std::vector<PerfCounters> Cells = runSpecFile(SpecPath(Name), Spec);
    expectCellsMatchRows(Spec, Cells, Rows[Spec.Name], Checked);
  }
  EXPECT_EQ(Checked, 315u);
}

TEST(GoldenTables, OffSpecRowsMatch) {
  // tests/golden/offspec.rows: one sweepResultLine per cell.
  std::map<std::string, SweepRows> Rows;
  readRows("tests/golden/offspec.rows", Rows);
  if (HasFatalFailure())
    return;

  size_t Checked = 0;
  for (const char *Name : {"fig14_static_mix_forth", "fig15_static_mix_java",
                           "table09_forth_native"}) {
    SweepSpec Spec;
    std::vector<PerfCounters> Cells = runSpecFile(
        sourcePath(std::string("tests/golden/") + Name + ".spec"), Spec);
    expectCellsMatchRows(Spec, Cells, Rows[Spec.Name], Checked);
  }
  EXPECT_EQ(Checked, 68u) << "fig14 (36), fig15/16 (26), table09 (6)";
}
