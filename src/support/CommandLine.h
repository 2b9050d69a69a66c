//===- support/CommandLine.h - Tiny option parser ---------------*- C++ -*-===//
///
/// \file
/// Minimal --name=value / --flag option parsing for the examples, the
/// tools and the bench binaries: each binary declares the options it
/// takes (OptionDecl), and the declared parser rejects everything else
/// before any work runs. Also the strict count parsers for count flags
/// and the VMIB_* count variables. Not a general library.
///
//===----------------------------------------------------------------------===//

#ifndef VMIB_SUPPORT_COMMANDLINE_H
#define VMIB_SUPPORT_COMMANDLINE_H

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace vmib {

/// One option a binary takes: its name (without "--"), the one line
/// `--help` prints for it, what it takes and the bound of a count.
struct OptionDecl {
  enum Kind : uint8_t {
    Flag,  ///< bare --name; a value is an error
    Count, ///< --name=N: decimal digits only, no overflow, at most Max
    Value, ///< --name=TEXT, read by the option's own parser
  };
  const char *Name;
  const char *Doc;
  Kind K = Flag;
  uint64_t Max = 0; ///< a Count's bound
};

/// A binary's declared options, composed from shared sets.
using OptionTable = std::vector<OptionDecl>;

/// \p Table without the entries named in \p Names.
OptionTable withoutOptions(OptionTable Table,
                           std::initializer_list<const char *> Names);

/// Checks \p Argv against \p Declared and the implicit `--help`.
/// \returns false with \p Error, one line naming the argument, on an
/// undeclared name, a flag given or a value option denied a value, a
/// count breaking its grammar or bound, or a non-`--` argument.
bool checkOptions(int Argc, const char *const *Argv,
                  const OptionTable &Declared, std::string &Error);

/// The `--help` text of \p Program: a usage line, then one line per
/// declared option and one for --help.
std::string renderOptions(const std::string &Program,
                          const OptionTable &Declared);

/// Parses "--name=value" and bare "--flag" arguments.
class OptionParser {
public:
  /// Lenient: takes any --name[=value] and collects everything else as
  /// a positional argument.
  OptionParser(int Argc, const char *const *Argv);

  /// Declared: a checkOptions error goes to stderr and exits 1, and
  /// `--help` prints renderOptions and exits 0, before any work.
  OptionParser(int Argc, const char *const *Argv,
               const OptionTable &Declared);

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
