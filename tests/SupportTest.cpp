//===- tests/SupportTest.cpp - support library unit tests -----------------===//

#include "support/CommandLine.h"
#include "support/Format.h"
#include "support/Random.h"
#include "support/Statistics.h"
#include "support/Table.h"

#include <gtest/gtest.h>

#include <climits>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

using namespace vmib;

TEST(Format, Basic) {
  EXPECT_EQ(format("x=%d", 42), "x=42");
  EXPECT_EQ(format("%s/%s", "a", "b"), "a/b");
  EXPECT_EQ(format(""), "");
}

TEST(Format, Thousands) {
  EXPECT_EQ(withThousands(0), "0");
  EXPECT_EQ(withThousands(999), "999");
  EXPECT_EQ(withThousands(1000), "1,000");
  EXPECT_EQ(withThousands(1234567), "1,234,567");
  EXPECT_EQ(withThousands(1000000000ULL), "1,000,000,000");
}

TEST(Format, HumanBytes) {
  EXPECT_EQ(humanBytes(512), "512B");
  EXPECT_EQ(humanBytes(2048), "2.0KB");
  EXPECT_EQ(humanBytes(1024 * 1024), "1.0MB");
  EXPECT_EQ(humanBytes(3ull * 1024 * 1024 * 1024), "3.0GB");
}

TEST(Format, FixedPoint) {
  EXPECT_EQ(formatDouble(2.3456, 2), "2.35");
  EXPECT_EQ(formatDouble(1.0, 0), "1");
}

TEST(Format, Padding) {
  EXPECT_EQ(padLeft("ab", 4), "  ab");
  EXPECT_EQ(padRight("ab", 4), "ab  ");
  EXPECT_EQ(padLeft("abcd", 2), "abcd");
}

TEST(Random, Deterministic) {
  Xoroshiro128 A(7), B(7);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Random, SeedsDiffer) {
  Xoroshiro128 A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 100; ++I)
    if (A.next() == B.next())
      ++Same;
  EXPECT_LT(Same, 3);
}

TEST(Random, BoundedStaysBelow) {
  Xoroshiro128 Rng(99);
  for (int I = 0; I < 10000; ++I)
    EXPECT_LT(Rng.nextBelow(17), 17u);
}

TEST(Random, BoundedCoversRange) {
  Xoroshiro128 Rng(5);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 1000; ++I)
    Seen.insert(Rng.nextBelow(8));
  EXPECT_EQ(Seen.size(), 8u);
}

TEST(Random, DoubleInUnitInterval) {
  Xoroshiro128 Rng(3);
  for (int I = 0; I < 1000; ++I) {
    double D = Rng.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Statistics, Mean) {
  EXPECT_DOUBLE_EQ(mean({1, 2, 3}), 2.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Statistics, Geomean) {
  EXPECT_DOUBLE_EQ(geomean({4, 1}), 2.0);
  EXPECT_NEAR(geomean({2, 2, 2}), 2.0, 1e-12);
}

TEST(Statistics, MinMax) {
  EXPECT_DOUBLE_EQ(minOf({3, 1, 2}), 1.0);
  EXPECT_DOUBLE_EQ(maxOf({3, 1, 2}), 3.0);
}

TEST(Table, RendersAligned) {
  TextTable T({"name", "value"});
  T.addRow({"a", "1"});
  T.addRow({"bb", "22"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("name"), std::string::npos);
  EXPECT_NE(Out.find("22"), std::string::npos);
  // All lines equal length (aligned columns).
  size_t FirstNl = Out.find('\n');
  ASSERT_NE(FirstNl, std::string::npos);
  EXPECT_EQ(T.numRows(), 2u);
}

TEST(Table, NumericRightAligned) {
  TextTable T({"v"});
  T.addRow({"1"});
  T.addRow({"1000"});
  std::string Out = T.render();
  // "1" padded left to width 4: appears as "    1 " style cell.
  EXPECT_NE(Out.find("   1 "), std::string::npos);
}

TEST(CommandLine, ParsesOptionsAndPositional) {
  const char *Argv[] = {"prog", "--alpha=3", "--flag", "pos1", "--name=x"};
  OptionParser P(5, Argv);
  EXPECT_TRUE(P.has("alpha"));
  EXPECT_EQ(P.getInt("alpha", 0), 3);
  EXPECT_TRUE(P.has("flag"));
  EXPECT_EQ(P.get("flag"), "1");
  EXPECT_EQ(P.get("name"), "x");
  EXPECT_EQ(P.get("missing", "dflt"), "dflt");
  ASSERT_EQ(P.positional().size(), 1u);
  EXPECT_EQ(P.positional()[0], "pos1");
}

//===--- getCount: count flags --------------------------------------------===//

namespace {

/// Parses one "--Name=Value" argument with OptionParser::getCount.
bool countFlag(const char *Name, const std::string &Value, uint64_t Max,
               uint64_t &Out, std::string &Error) {
  std::string Arg = std::string("--") + Name + "=" + Value;
  const char *Argv[] = {"prog", Arg.c_str()};
  return OptionParser(2, Argv).getCount(Name, Max, Out, Error);
}

/// A declared set with each kind, the count bounds as the sweep
/// binaries declare them.
const OptionTable Declared = {
    {"shards", "worker processes", OptionDecl::Count, 1024},
    {"threads", "gang threads", OptionDecl::Count, 1024},
    {"job", "shard job", OptionDecl::Count, UINT32_MAX},
    {"attempt", "attempt number", OptionDecl::Count, UINT32_MAX},
    {"retries", "requeues per job", OptionDecl::Count, UINT32_MAX},
    {"quick", "two benchmarks"},
    {"spec", "spec file", OptionDecl::Value},
};

/// checkOptions over \p Args; \returns the error ("" when accepted).
std::string checkArgs(std::vector<std::string> Args) {
  Args.insert(Args.begin(), "prog");
  std::vector<const char *> Argv;
  for (const std::string &A : Args)
    Argv.push_back(A.c_str());
  std::string Error;
  bool Ok = checkOptions(static_cast<int>(Argv.size()), Argv.data(),
                         Declared, Error);
  EXPECT_EQ(Ok, Error.empty()) << Error;
  return Error;
}

} // namespace

TEST(OptionCount, AcceptsDecimalCountsAndKeepsAbsentValues) {
  uint64_t N = 7;
  std::string Error;
  const char *Argv[] = {"prog"};
  EXPECT_TRUE(OptionParser(1, Argv).getCount("shards", 1024, N, Error));
  EXPECT_EQ(N, 7u) << "an absent flag keeps the caller's default";
  for (const char *V : {"0", "4", "1024"}) {
    ASSERT_TRUE(countFlag("shards", V, 1024, N, Error)) << V << ": " << Error;
    EXPECT_EQ(N, std::strtoull(V, nullptr, 10)) << V;
  }
  // Leading zeros are decimal, not octal: "010" is ten, not eight.
  ASSERT_TRUE(countFlag("shards", "010", 1024, N, Error)) << Error;
  EXPECT_EQ(N, 10u);
  ASSERT_TRUE(countFlag("audit-seed", "18446744073709551615", UINT64_MAX, N,
                        Error))
      << Error;
  EXPECT_EQ(N, UINT64_MAX);
}

/// Every form getInt (strtoll, base 0, unchecked) used to accept with
/// a surprising value — "0x10" as 16, "4x" as 4, "foo" as 0 (a bench
/// silently in-process), "1x" as job 1 — plus signs, space, fractions,
/// empty values, overflow, and values over the caller's bound.
class OptionCountRejects
    : public ::testing::TestWithParam<std::pair<const char *, const char *>> {
};

TEST_P(OptionCountRejects, DiagnosesFlagAndValue) {
  const auto &[Name, Value] = GetParam();
  uint64_t N = 3;
  std::string Error;
  EXPECT_FALSE(countFlag(Name, Value, 1024, N, Error));
  EXPECT_EQ(N, 3u) << "a rejected value must not be stored";
  std::string Diagnostic = std::string("bad --") + Name + " '" + Value + "'";
  EXPECT_NE(Error.find(Diagnostic), std::string::npos) << Error;
  // The declaration check rejects the same form, with its own bound.
  Error = checkArgs({std::string("--") + Name + "=" + Value});
  EXPECT_NE(Error.find(Diagnostic), std::string::npos) << Error;
}

INSTANTIATE_TEST_SUITE_P(
    Forms, OptionCountRejects,
    ::testing::Values(std::make_pair("shards", "0x10"),
                      std::make_pair("shards", "4x"),
                      std::make_pair("shards", "foo"),
                      std::make_pair("job", "1x"),
                      std::make_pair("attempt", "-1"),
                      std::make_pair("shards", "+8"),
                      std::make_pair("shards", " 8"),
                      std::make_pair("threads", "1.5"),
                      std::make_pair("threads", ""),
                      std::make_pair("threads", "1025"),
                      std::make_pair("retries", "18446744073709551616")));

//===--- the declaration check --------------------------------------------===//

TEST(DeclaredOptions, AcceptsEveryDeclaredKind) {
  EXPECT_EQ(checkArgs({}), "");
  EXPECT_EQ(checkArgs({"--shards=4", "--threads=0", "--job=4294967295",
                       "--quick", "--spec=a=b.spec", "--spec=", "--help"}),
            "");
}

TEST(DeclaredOptions, RejectsWhatNoDeclarationTakes) {
  const std::pair<const char *, const char *> Cases[] = {
      {"--thraeds=4", "unknown option '--thraeds'"},
      {"--audit-exec", "unknown option '--audit-exec'"},
      {"--quick=1", "--quick takes no value"},
      {"--help=1", "--help takes no value"},
      {"--spec", "--spec needs a value"},
      {"--shards", "--shards needs a value"},
      {"fig08.spec", "unexpected argument 'fig08.spec'"},
      {"-quick", "unexpected argument '-quick'"},
      {"-", "unexpected argument '-'"},
      {"--", "unexpected argument '--'"},
  };
  for (const auto &[Arg, Want] : Cases) {
    std::string Error = checkArgs({"--quick", Arg, "--shards=2"});
    EXPECT_NE(Error.find(Want), std::string::npos) << Arg << ": " << Error;
    EXPECT_EQ(Error.find('\n'), std::string::npos) << "one line: " << Error;
  }
}

TEST(DeclaredOptions, HelpListsEveryDeclaredName) {
  std::string Help = renderOptions("prog", Declared);
  EXPECT_EQ(Help.rfind("usage: prog", 0), 0u) << Help;
  for (const OptionDecl &D : Declared) {
    EXPECT_NE(Help.find(std::string("--") + D.Name), std::string::npos)
        << D.Name;
    EXPECT_NE(Help.find(D.Doc), std::string::npos) << D.Name;
  }
  EXPECT_NE(Help.find("--help"), std::string::npos);
  EXPECT_NE(Help.find("--shards=N"), std::string::npos);
  EXPECT_NE(Help.find("--spec=VALUE"), std::string::npos);
}

TEST(DeclaredOptions, WithoutOptionsDropsNamedEntries) {
  OptionTable T = withoutOptions(Declared, {"spec", "quick", "absent"});
  ASSERT_EQ(T.size(), Declared.size() - 2);
  for (const OptionDecl &D : T) {
    EXPECT_STRNE(D.Name, "spec");
    EXPECT_STRNE(D.Name, "quick");
  }
}

//===--- envCount: the VMIB_* count variables ------------------------------===//

TEST(EnvCount, AcceptsPlainDecimalCounts) {
  const char *Var = "VMIB_TEST_COUNT_OK";
  ::unsetenv(Var);
  EXPECT_EQ(envCount(Var, 17), 17u);
  ::setenv(Var, "", 1); // empty reads as unset
  EXPECT_EQ(envCount(Var, 17), 17u);
  for (const char *V : {"1", "65536", "007", "18446744073709551615"}) {
    ::setenv(Var, V, 1);
    EXPECT_EQ(envCount(Var, 17), std::strtoull(V, nullptr, 10)) << V;
  }
  ::setenv(Var, "4", 1);
  EXPECT_EQ(envCount(Var, 17, /*Max=*/4), 4u);
  ::unsetenv(Var);
}

/// Every form the strict rule rejects: a suffix, a trailing letter, a
/// sign, surrounding space, zero, a fraction, hex, overflow, and a
/// value over the caller's bound.
class EnvCountRejects : public ::testing::TestWithParam<const char *> {};

TEST_P(EnvCountRejects, WarnsOnceAndUsesTheDefault) {
  // A variable per form, so each case sees its own first warning.
  std::string Var = "VMIB_TEST_COUNT_";
  for (const char *C = GetParam(); *C != '\0'; ++C)
    Var += format("%02x", static_cast<unsigned char>(*C));
  ::setenv(Var.c_str(), GetParam(), 1);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(envCount(Var.c_str(), 65536, /*Max=*/UINT_MAX), 65536u);
  std::string First = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(First.find("warning: ignoring " + Var), std::string::npos)
      << First;
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(envCount(Var.c_str(), 65536, /*Max=*/UINT_MAX), 65536u);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  ::unsetenv(Var.c_str());
}

INSTANTIATE_TEST_SUITE_P(Forms, EnvCountRejects,
                         ::testing::Values("64k", "4x", "-1", "+8", " 8",
                                           "8 ", "0", "1.5", "0x10",
                                           "18446744073709551616",
                                           "4294967296"));
