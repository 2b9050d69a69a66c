//===- support/CommandLine.h - Tiny option parser ---------------*- C++ -*-===//
///
/// \file
/// Minimal --name=value / --flag option parsing for the examples and the
/// bench binaries, plus the strict count parsers for count flags and
/// the VMIB_* sizing variables. Not a general library; just enough to
/// select benchmarks, variants and CPU models from the command line.
///
//===----------------------------------------------------------------------===//

#ifndef VMIB_SUPPORT_COMMANDLINE_H
#define VMIB_SUPPORT_COMMANDLINE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vmib {

/// Parses "--name=value" and bare "--flag" arguments; everything else is
/// collected as a positional argument.
class OptionParser {
public:
  OptionParser(int Argc, const char *const *Argv);

  bool has(const std::string &Name) const;
  std::string get(const std::string &Name,
                  const std::string &Default = "") const;
  int64_t getInt(const std::string &Name, int64_t Default) const;

  /// Reads option \p Name as a count: decimal digits only (no sign,
  /// space, base prefix or suffix), no overflow, at most \p Max.
  /// \returns true with \p Out set — left alone when the option is
  /// absent — or false with \p Error naming the flag and its value, so
  /// "--shards=4x", "--shards=0x10" or "--shards=foo" diagnose instead
  /// of quietly becoming 4, 16 or 0.
  bool getCount(const std::string &Name, uint64_t Max, uint64_t &Out,
                std::string &Error) const;

  const std::vector<std::string> &positional() const { return Positional; }

private:
  std::map<std::string, std::string> Options;
  std::vector<std::string> Positional;
};

/// Reads environment variable \p Name as a count: decimal digits only
/// (no sign, space or suffix), no overflow, at least 1 and at most
/// \p Max. \returns \p Default when the variable is unset or empty,
/// and also for a value that breaks the rule — after one warning on
/// stderr per variable, so "64k" or "4x" can never silently become 64
/// or 4. Thread-safe.
uint64_t envCount(const char *Name, uint64_t Default,
                  uint64_t Max = UINT64_MAX);

} // namespace vmib

#endif // VMIB_SUPPORT_COMMANDLINE_H
