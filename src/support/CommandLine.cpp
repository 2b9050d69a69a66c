//===- support/CommandLine.cpp --------------------------------------------===//

#include "support/CommandLine.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <set>

using namespace vmib;

namespace {

/// The one count grammar: decimal digits only, no overflow, at most
/// \p Max.
bool parseCount(const std::string &Text, uint64_t Max, uint64_t &Out) {
  if (Text.empty() ||
      Text.find_first_not_of("0123456789") != std::string::npos)
    return false;
  errno = 0;
  unsigned long long N = std::strtoull(Text.c_str(), nullptr, 10);
  if (errno != 0 || N > Max)
    return false;
  Out = N;
  return true;
}

std::string countError(const std::string &Name, const std::string &Value,
                       uint64_t Max) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%" PRIu64, Max);
  return "bad --" + Name + " '" + Value +
         "' (expected a whole number from 0 to " + Buf + ")";
}

const OptionDecl HelpOption = {"help", "print these options and exit"};

} // namespace

OptionTable vmib::withoutOptions(OptionTable Table,
                                 std::initializer_list<const char *> Names) {
  auto Named = [&](const OptionDecl &D) {
    return std::any_of(Names.begin(), Names.end(), [&](const char *N) {
      return std::strcmp(D.Name, N) == 0;
    });
  };
  Table.erase(std::remove_if(Table.begin(), Table.end(), Named), Table.end());
  return Table;
}

bool vmib::checkOptions(int Argc, const char *const *Argv,
                        const OptionTable &Declared, std::string &Error) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--", 0) != 0 || Arg.size() == 2) {
      Error = "unexpected argument '" + Arg +
              "' (options are --name or --name=value; see --help)";
      return false;
    }
    size_t Eq = Arg.find('=');
    bool HasValue = Eq != std::string::npos;
    std::string Name = Arg.substr(2, HasValue ? Eq - 2 : Eq);
    auto D = std::find_if(
        Declared.begin(), Declared.end(),
        [&](const OptionDecl &Decl) { return Name == Decl.Name; });
    OptionDecl::Kind K = D == Declared.end() ? OptionDecl::Flag : D->K;
    uint64_t N = 0;
    if (D == Declared.end() && Name != HelpOption.Name)
      Error = "unknown option '--" + Name + "' (see --help)";
    else if (K == OptionDecl::Flag && HasValue)
      Error = "--" + Name + " takes no value (got '" + Arg + "')";
    else if (K != OptionDecl::Flag && !HasValue)
      Error = "--" + Name + " needs a value (--" + Name + "=...)";
    else if (K == OptionDecl::Count &&
             !parseCount(Arg.substr(Eq + 1), D->Max, N))
      Error = countError(Name, Arg.substr(Eq + 1), D->Max);
    else
      continue;
    return false;
  }
  return true;
}

std::string vmib::renderOptions(const std::string &Program,
                                const OptionTable &Declared) {
  std::string Out = "usage: " + Program + " [options]\n";
  OptionTable All = Declared;
  All.push_back(HelpOption);
  for (const OptionDecl &D : All) {
    const char *Arg[] = {"", "=N", "=VALUE"}; // by Kind
    std::string S = std::string("  --") + D.Name + Arg[D.K];
    Out += S + std::string(S.size() <= 22 ? 24 - S.size() : 2, ' ') + D.Doc +
           "\n";
  }
  return Out;
}

OptionParser::OptionParser(int Argc, const char *const *Argv) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--", 0) != 0) {
      Positional.push_back(Arg);
      continue;
    }
    std::string Body = Arg.substr(2);
    size_t Eq = Body.find('=');
    if (Eq == std::string::npos)
      Options[Body] = "1";
    else
      Options[Body.substr(0, Eq)] = Body.substr(Eq + 1);
  }
}

OptionParser::OptionParser(int Argc, const char *const *Argv,
                           const OptionTable &Declared)
    : OptionParser(Argc, Argv) {
  std::string Error;
  if (!checkOptions(Argc, Argv, Declared, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    std::exit(1);
  }
  if (has(HelpOption.Name)) {
    std::string Program = Argc > 0 ? Argv[0] : "";
    Program = Program.substr(Program.rfind('/') + 1);
    std::fputs(renderOptions(Program, Declared).c_str(), stdout);
    std::exit(0);
  }
}

bool OptionParser::has(const std::string &Name) const {
  return Options.count(Name) != 0;
}

std::string OptionParser::get(const std::string &Name,
                              const std::string &Default) const {
  auto It = Options.find(Name);
  return It == Options.end() ? Default : It->second;
}

int64_t OptionParser::getInt(const std::string &Name, int64_t Default) const {
  auto It = Options.find(Name);
  if (It == Options.end())
    return Default;
  return std::strtoll(It->second.c_str(), nullptr, 0);
}

bool OptionParser::getCount(const std::string &Name, uint64_t Max,
                            uint64_t &Out, std::string &Error) const {
  auto It = Options.find(Name);
  if (It == Options.end())
    return true;
  if (parseCount(It->second, Max, Out))
    return true;
  Error = countError(Name, It->second, Max);
  return false;
}

uint64_t vmib::envCount(const char *Name, uint64_t Default, uint64_t Max) {
  const char *Env = std::getenv(Name);
  if (Env == nullptr || Env[0] == '\0')
    return Default;
  uint64_t N = 0;
  if (parseCount(Env, Max, N) && N >= 1)
    return N;
  static std::mutex Mutex;
  static std::set<std::string> Warned;
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Warned.insert(Name).second)
    std::fprintf(stderr,
                 "warning: ignoring %s='%s' (expected a whole number from 1 "
                 "to %" PRIu64 "); using %" PRIu64 "\n",
                 Name, Env, Max, Default);
  return Default;
}
