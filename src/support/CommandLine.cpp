//===- support/CommandLine.cpp --------------------------------------------===//

#include "support/CommandLine.h"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>

using namespace vmib;

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

uint64_t vmib::envCount(const char *Name, uint64_t Default, uint64_t Max) {
  const char *Env = std::getenv(Name);
  if (Env == nullptr || Env[0] == '\0')
    return Default;
  bool Digits = true;
  for (const char *P = Env; *P != '\0'; ++P)
    Digits &= *P >= '0' && *P <= '9';
  if (Digits) {
    errno = 0;
    unsigned long long N = std::strtoull(Env, nullptr, 10);
    if (errno == 0 && N >= 1 && N <= Max)
      return N;
  }
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
