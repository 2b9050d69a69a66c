//===- support/CommandLine.cpp --------------------------------------------===//

#include "support/CommandLine.h"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
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

} // namespace

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
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%" PRIu64, Max);
  Error = "bad --" + Name + " '" + It->second +
          "' (expected a whole number from 0 to " + Buf + ")";
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
