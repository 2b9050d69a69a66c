//===- harness/SweepSpec.cpp - Sweep spec text format ---------------------===//
///
/// Line-oriented, versioned text format:
///
///   vmib-sweep-spec v1
///   name fig08_gforth_p4
///   suite forth
///   chunk 0
///   threads 1            # optional: absent (PR-3-era files) means 1;
///                        # 0 = auto-detect (hardware_concurrency)
///   schedule static      # legacy, optional: parsed and ignored
///   cpu p4northwood
///   benchmark fib
///   variant name="static repl" kind=static-repl supers=0 replicas=400
///           repsupers=0 policy=round-robin parse=greedy seed=24301
///   predictor kind=btb entries=512 ways=4 shift=2 twobit=0
///   end
///
/// One declaration per line (the `variant` line above is wrapped only
/// for this comment); '#' starts a comment; values containing spaces
/// are double-quoted. Every numeric field prints in decimal, so the
/// round trip is exact. `end` is mandatory — a truncated spec file is
/// a parse error, not a shorter sweep.
///
//===----------------------------------------------------------------------===//

#include "harness/SweepSpec.h"

#include "support/Format.h"
#include "uarch/CpuModel.h"
#include "workloads/ForthSuite.h"
#include "workloads/JavaSuite.h"
#include "workloads/SynthSuite.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>

using namespace vmib;

namespace {

const char *HeaderLine = "vmib-sweep-spec v1";

const char *replicaPolicyId(ReplicaPolicy P) {
  return P == ReplicaPolicy::RoundRobin ? "round-robin" : "random";
}
bool replicaPolicyFromId(const std::string &Id, ReplicaPolicy &P) {
  if (Id == "round-robin")
    P = ReplicaPolicy::RoundRobin;
  else if (Id == "random")
    P = ReplicaPolicy::Random;
  else
    return false;
  return true;
}

const char *parsePolicyId(ParsePolicy P) {
  return P == ParsePolicy::Greedy ? "greedy" : "optimal";
}
bool parsePolicyFromId(const std::string &Id, ParsePolicy &P) {
  if (Id == "greedy")
    P = ParsePolicy::Greedy;
  else if (Id == "optimal")
    P = ParsePolicy::Optimal;
  else
    return false;
  return true;
}

const char *predictorKindId(PredictorGeometry::Kind K) {
  switch (K) {
  case PredictorGeometry::Kind::Default:
    return "default";
  case PredictorGeometry::Kind::Btb:
    return "btb";
  case PredictorGeometry::Kind::TwoLevel:
    return "two-level";
  case PredictorGeometry::Kind::CaseBlock:
    return "case-block";
  }
  return "unknown";
}
bool predictorKindFromId(const std::string &Id, PredictorGeometry::Kind &K) {
  if (Id == "default")
    K = PredictorGeometry::Kind::Default;
  else if (Id == "btb")
    K = PredictorGeometry::Kind::Btb;
  else if (Id == "two-level")
    K = PredictorGeometry::Kind::TwoLevel;
  else if (Id == "case-block")
    K = PredictorGeometry::Kind::CaseBlock;
  else
    return false;
  return true;
}

/// Quotes a value for the key=value syntax (always quoted on output:
/// variant names contain spaces, and uniform output keeps the round
/// trip trivially exact).
std::string quoted(const std::string &V) { return "\"" + V + "\""; }

/// Splits one line into whitespace-separated tokens; a double-quoted
/// stretch (anywhere in a token, i.e. after `key=`) keeps its spaces.
/// An unquoted '#' starts a comment (quote-aware, so quoted values may
/// contain '#' and still round-trip). \returns false on an
/// unterminated quote.
bool splitTokens(const std::string &Line, std::vector<std::string> &Tokens) {
  Tokens.clear();
  std::string Cur;
  bool InToken = false, InQuote = false;
  for (char C : Line) {
    if (InQuote) {
      if (C == '"')
        InQuote = false;
      else
        Cur += C;
      continue;
    }
    if (C == '#')
      break;
    if (C == '"') {
      InQuote = true;
      InToken = true;
      continue;
    }
    if (C == ' ' || C == '\t' || C == '\n' || C == '\r') {
      if (InToken) {
        Tokens.push_back(Cur);
        Cur.clear();
        InToken = false;
      }
      continue;
    }
    Cur += C;
    InToken = true;
  }
  if (InQuote)
    return false;
  if (InToken)
    Tokens.push_back(Cur);
  return true;
}

/// key=value map of tokens [1, N); duplicate keys are a parse error.
bool keyValues(const std::vector<std::string> &Tokens,
               std::map<std::string, std::string> &KV, std::string &Error) {
  KV.clear();
  for (size_t I = 1; I < Tokens.size(); ++I) {
    size_t Eq = Tokens[I].find('=');
    if (Eq == std::string::npos || Eq == 0) {
      Error = "expected key=value, got '" + Tokens[I] + "'";
      return false;
    }
    std::string Key = Tokens[I].substr(0, Eq);
    if (!KV.emplace(Key, Tokens[I].substr(Eq + 1)).second) {
      Error = "duplicate key '" + Key + "'";
      return false;
    }
  }
  return true;
}

bool parseU64(const std::string &V, uint64_t &Out) {
  // strtoull silently accepts "-1" (wrapping to huge); reject any
  // non-digit so the spec text states exactly what runs.
  if (V.empty() || V.find_first_not_of("0123456789") != std::string::npos)
    return false;
  char *End = nullptr;
  errno = 0;
  unsigned long long N = std::strtoull(V.c_str(), &End, 10);
  if (errno != 0 || End != V.c_str() + V.size())
    return false;
  Out = N;
  return true;
}

/// Fetches KV[Key] parsed as u64 into \p Out (narrowing to u32 via the
/// caller's assignment); missing or non-numeric is an error.
bool needU64(const std::map<std::string, std::string> &KV,
             const std::string &Key, uint64_t &Out, std::string &Error) {
  auto It = KV.find(Key);
  if (It == KV.end()) {
    Error = "missing " + Key + "=";
    return false;
  }
  if (!parseU64(It->second, Out)) {
    Error = "bad number in " + Key + "=" + It->second;
    return false;
  }
  return true;
}

/// needU64 plus an explicit u32 range check — silent narrowing would
/// let the sweep run a different configuration than the text states.
bool needU32(const std::map<std::string, std::string> &KV,
             const std::string &Key, uint32_t &Out, std::string &Error) {
  uint64_t N;
  if (!needU64(KV, Key, N, Error))
    return false;
  if (N > 0xFFFFFFFFull) {
    Error = Key + "=" + KV.at(Key) + " out of range (max 2^32-1)";
    return false;
  }
  Out = static_cast<uint32_t>(N);
  return true;
}

bool needStr(const std::map<std::string, std::string> &KV,
             const std::string &Key, std::string &Out, std::string &Error) {
  auto It = KV.find(Key);
  if (It == KV.end()) {
    Error = "missing " + Key + "=";
    return false;
  }
  Out = It->second;
  return true;
}

std::string printVariant(const VariantSpec &V) {
  return format("variant name=%s kind=%s supers=%u replicas=%u repsupers=%u "
                "policy=%s parse=%s seed=%llu\n",
                quoted(V.Name).c_str(), strategyId(V.Config.Kind),
                V.SuperCount, V.ReplicaCount, V.ReplicateSupers ? 1 : 0,
                replicaPolicyId(V.Config.Policy),
                parsePolicyId(V.Config.Parse),
                (unsigned long long)V.Config.Seed);
}

bool parseVariant(const std::vector<std::string> &Tokens, VariantSpec &V,
                  std::string &Error) {
  std::map<std::string, std::string> KV;
  if (!keyValues(Tokens, KV, Error))
    return false;
  std::string Kind, Policy, Parse;
  uint32_t Supers, Replicas;
  uint64_t RepSupers, Seed;
  if (!needStr(KV, "name", V.Name, Error) ||
      !needStr(KV, "kind", Kind, Error) ||
      !needU32(KV, "supers", Supers, Error) ||
      !needU32(KV, "replicas", Replicas, Error) ||
      !needU64(KV, "repsupers", RepSupers, Error) ||
      !needStr(KV, "policy", Policy, Error) ||
      !needStr(KV, "parse", Parse, Error) ||
      !needU64(KV, "seed", Seed, Error))
    return false;
  if (!strategyFromId(Kind, V.Config.Kind)) {
    Error = "unknown strategy kind '" + Kind + "'";
    return false;
  }
  if (!replicaPolicyFromId(Policy, V.Config.Policy)) {
    Error = "unknown replica policy '" + Policy + "'";
    return false;
  }
  if (!parsePolicyFromId(Parse, V.Config.Parse)) {
    Error = "unknown parse policy '" + Parse + "'";
    return false;
  }
  V.SuperCount = Supers;
  V.ReplicaCount = Replicas;
  V.ReplicateSupers = RepSupers != 0;
  V.Config.SuperCount = V.SuperCount;
  V.Config.ReplicaCount = V.ReplicaCount;
  V.Config.Seed = Seed;
  return true;
}

std::string printPredictor(const PredictorGeometry &G) {
  std::string Head = format("predictor kind=%s", predictorKindId(G.PredKind));
  switch (G.PredKind) {
  case PredictorGeometry::Kind::Default:
    return Head + "\n";
  case PredictorGeometry::Kind::Btb:
    return Head + format(" entries=%u ways=%u shift=%u twobit=%u\n",
                         G.Btb.Entries, G.Btb.Ways, G.Btb.IndexShift,
                         G.Btb.TwoBitCounters ? 1 : 0);
  case PredictorGeometry::Kind::TwoLevel:
    return Head + format(" entries=%u history=%u\n",
                         G.TwoLevel.TableEntries, G.TwoLevel.HistoryLength);
  case PredictorGeometry::Kind::CaseBlock:
    return Head + format(" entries=%u\n", G.CaseBlockEntries);
  }
  return Head + "\n";
}

bool parsePredictor(const std::vector<std::string> &Tokens,
                    PredictorGeometry &G, std::string &Error) {
  std::map<std::string, std::string> KV;
  if (!keyValues(Tokens, KV, Error))
    return false;
  std::string Kind;
  if (!needStr(KV, "kind", Kind, Error))
    return false;
  if (!predictorKindFromId(Kind, G.PredKind)) {
    Error = "unknown predictor kind '" + Kind + "'";
    return false;
  }
  switch (G.PredKind) {
  case PredictorGeometry::Kind::Default:
    break;
  case PredictorGeometry::Kind::Btb: {
    uint64_t TwoBit;
    if (!needU32(KV, "entries", G.Btb.Entries, Error) ||
        !needU32(KV, "ways", G.Btb.Ways, Error) ||
        !needU32(KV, "shift", G.Btb.IndexShift, Error) ||
        !needU64(KV, "twobit", TwoBit, Error))
      return false;
    G.Btb.TwoBitCounters = TwoBit != 0;
    break;
  }
  case PredictorGeometry::Kind::TwoLevel:
    if (!needU32(KV, "entries", G.TwoLevel.TableEntries, Error) ||
        !needU32(KV, "history", G.TwoLevel.HistoryLength, Error))
      return false;
    break;
  case PredictorGeometry::Kind::CaseBlock:
    if (!needU32(KV, "entries", G.CaseBlockEntries, Error))
      return false;
    break;
  }
  return true;
}

} // namespace

std::string vmib::printSweepSpec(const SweepSpec &Spec) {
  std::string Out;
  Out += HeaderLine;
  Out += '\n';
  Out += format("name %s\n", Spec.Name.c_str());
  Out += format("suite %s\n", Spec.Suite.c_str());
  Out += format("chunk %zu\n", Spec.ChunkEvents);
  Out += format("threads %u\n", Spec.Threads);
  Out += format("decode %s\n", traceDecodeModeId(Spec.Decode));
  for (const std::string &C : Spec.Cpus)
    Out += format("cpu %s\n", C.c_str());
  for (const std::string &B : Spec.Benchmarks)
    Out += format("benchmark %s\n", B.c_str());
  for (const VariantSpec &V : Spec.Variants)
    Out += printVariant(V);
  for (const PredictorGeometry &G : Spec.Predictors)
    Out += printPredictor(G);
  Out += "end\n";
  return Out;
}

bool vmib::parseSweepSpec(const std::string &Text, SweepSpec &Out,
                          std::string &Error) {
  Out = SweepSpec();
  std::istringstream In(Text);
  std::string Line;
  size_t LineNo = 0;
  bool SawHeader = false, SawEnd = false;
  auto Fail = [&](const std::string &Why) {
    Error = format("line %zu: %s", LineNo, Why.c_str());
    return false;
  };
  while (std::getline(In, Line)) {
    ++LineNo;
    // Comments are handled inside splitTokens (quote-aware), so quoted
    // values may contain '#'.
    std::vector<std::string> Tokens;
    if (!splitTokens(Line, Tokens))
      return Fail("unterminated quote");
    if (Tokens.empty())
      continue;
    if (!SawHeader) {
      // The first declaration must be exactly the header tokens:
      // prefix matching would accept "v12" as v1 and defeat the
      // versioning the header exists for.
      if (Tokens.size() != 2 || Tokens[0] != "vmib-sweep-spec" ||
          Tokens[1] != "v1")
        return Fail(format("expected header '%s'", HeaderLine));
      SawHeader = true;
      continue;
    }
    if (SawEnd)
      return Fail("content after 'end'");
    const std::string &Key = Tokens[0];
    std::string Why;
    if (Key == "name" && Tokens.size() == 2) {
      Out.Name = Tokens[1];
    } else if (Key == "suite" && Tokens.size() == 2) {
      Out.Suite = Tokens[1];
    } else if (Key == "chunk" && Tokens.size() == 2) {
      uint64_t N;
      if (!parseU64(Tokens[1], N))
        return Fail("bad number in chunk");
      Out.ChunkEvents = static_cast<size_t>(N);
    } else if (Key == "threads" && Tokens.size() == 2) {
      // Optional declaration: a PR-3-era spec without it parses as the
      // serial default (Out is reset to Threads = 1 above). 0 is the
      // auto-detect request, resolved to hardware_concurrency at
      // executor level (resolveGangThreads).
      uint64_t N;
      if (!parseU64(Tokens[1], N))
        return Fail("bad number in threads");
      if (N > 1024)
        return Fail(format("threads %llu out of range [0, 1024] "
                           "(0 = auto-detect)",
                           (unsigned long long)N));
      Out.Threads = static_cast<unsigned>(N);
    } else if (Key == "schedule" && Tokens.size() == 2) {
      // Legacy declaration: still validated so typos stay loud, but
      // every pooled gang runs the one scheduler whatever it says.
      if (!gangScheduleFromId(Tokens[1], Out.Schedule))
        return Fail("unknown schedule '" + Tokens[1] +
                    "' (expected static or dynamic)");
    } else if (Key == "decode" && Tokens.size() == 2) {
      // Optional declaration: files from before the streaming decoder
      // parse as Auto (small traces materialize, huge traces stream).
      if (!traceDecodeModeFromId(Tokens[1], Out.Decode))
        return Fail("unknown decode mode '" + Tokens[1] +
                    "' (expected materialize, stream or auto)");
    } else if (Key == "cpu" && Tokens.size() == 2) {
      Out.Cpus.push_back(Tokens[1]);
    } else if (Key == "benchmark" && Tokens.size() == 2) {
      Out.Benchmarks.push_back(Tokens[1]);
    } else if (Key == "variant") {
      VariantSpec V;
      if (!parseVariant(Tokens, V, Why))
        return Fail(Why);
      Out.Variants.push_back(std::move(V));
    } else if (Key == "predictor") {
      PredictorGeometry G;
      if (!parsePredictor(Tokens, G, Why))
        return Fail(Why);
      Out.Predictors.push_back(G);
    } else if (Key == "end" && Tokens.size() == 1) {
      SawEnd = true;
    } else {
      return Fail("unrecognized declaration '" + Key + "'");
    }
  }
  if (!SawHeader)
    return Fail("empty spec");
  if (!SawEnd)
    return Fail("missing 'end' (truncated spec file?)");
  return validateSweepSpec(Out, Error);
}

bool vmib::validateSweepSpec(const SweepSpec &Spec, std::string &Error) {
  if (Spec.Name.empty() ||
      Spec.Name.find_first_of(" \t=#\"") != std::string::npos) {
    Error = "spec name must be a non-empty token without '=', '#' or "
            "quotes (used in key=value timing/result lines)";
    return false;
  }
  if (Spec.Suite != "forth" && Spec.Suite != "java") {
    Error = "suite must be 'forth' or 'java', got '" + Spec.Suite + "'";
    return false;
  }
  if (Spec.Threads > 1024) {
    // Programmatically built specs get the same bound the parser
    // enforces: huge values are a typo, not a fan-out plan. 0 is the
    // auto-detect request (resolved by the executor), so it validates.
    Error = format("threads %u out of range [0, 1024] (0 = auto-detect)",
                   Spec.Threads);
    return false;
  }
  if (Spec.Benchmarks.empty()) {
    Error = "no benchmarks";
    return false;
  }
  for (const std::string &B : Spec.Benchmarks) {
    // Synthetic benchmarks (forth suite only) are named workloads, not
    // suite entries: parse-validate the name so a malformed one fails
    // at spec load, before any worker forks.
    if (Spec.Suite == "forth" && isSynthBenchmarkName(B)) {
      SynthWorkloadParams Params;
      std::string SynthErr;
      if (!parseSynthBenchmarkName(B, Params, &SynthErr)) {
        Error = SynthErr;
        return false;
      }
      continue;
    }
    bool Known = false;
    if (Spec.Suite == "forth") {
      for (const ForthBenchmark &S : forthSuite())
        Known |= S.Name == B;
    } else {
      for (const JavaBenchmark &S : javaSuite())
        Known |= S.Name == B;
    }
    if (!Known) {
      Error = "unknown " + Spec.Suite + " benchmark '" + B + "'";
      return false;
    }
  }
  if (Spec.Cpus.empty()) {
    Error = "no cpus";
    return false;
  }
  for (const std::string &C : Spec.Cpus) {
    CpuConfig Tmp;
    if (!cpuConfigById(C, Tmp)) {
      Error = "unknown cpu model '" + C + "'";
      return false;
    }
  }
  if (Spec.Variants.empty()) {
    Error = "no variants";
    return false;
  }
  for (const VariantSpec &V : Spec.Variants)
    if (V.Name.empty() || V.Name.find('"') != std::string::npos) {
      // The quoted text form has no escape sequence, so a '"' in a
      // name could not round-trip.
      Error = "variant name must be non-empty and quote-free";
      return false;
    }
  if (Spec.Suite == "java") {
    // Quickening members replay on the CPU's default BTB; the
    // predictor axis is Forth-only until the gang grows quickening
    // members over custom predictors. More than one entry — even all
    // Default — would just duplicate cells, and the java executor
    // assumes one predictor per (cpu, variant).
    if (Spec.Predictors.size() > 1) {
      Error = "java sweeps support at most one predictor entry";
      return false;
    }
    for (const PredictorGeometry &G : Spec.Predictors)
      if (G.PredKind != PredictorGeometry::Kind::Default) {
        Error = "java sweeps support only the default predictor";
        return false;
      }
  }
  return true;
}

bool vmib::writeSweepSpecFile(const SweepSpec &Spec, const std::string &Path,
                              std::string &Error) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    Error = "cannot write " + Path;
    return false;
  }
  std::string Text = printSweepSpec(Spec);
  bool Ok = std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
  Ok &= std::fclose(F) == 0;
  if (!Ok)
    Error = "short write to " + Path;
  return Ok;
}

bool vmib::loadSweepSpecFile(const std::string &Path, SweepSpec &Out,
                             std::string &Error) {
  std::FILE *F = std::fopen(Path.c_str(), "r");
  if (!F) {
    Error = "cannot open spec file " + Path;
    return false;
  }
  std::string Text;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Text.append(Buf, N);
  std::fclose(F);
  if (!parseSweepSpec(Text, Out, Error)) {
    Error = Path + ": " + Error;
    return false;
  }
  return true;
}

std::vector<ShardJob> vmib::decomposeSweep(const SweepSpec &Spec,
                                           unsigned Shards) {
  if (Shards < 1)
    Shards = 1;
  size_t W = Spec.Benchmarks.size();
  size_t M = Spec.membersPerWorkload();
  // Trace-affine first: one job per workload until every requested
  // shard has one, then split each workload's member list evenly.
  size_t Slices = (Shards + W - 1) / W;
  if (Slices > M)
    Slices = M;
  std::vector<ShardJob> Jobs;
  for (size_t Wl = 0; Wl < W; ++Wl) {
    size_t Begin = 0;
    for (size_t S = 0; S < Slices; ++S) {
      // Near-equal contiguous slices; the first (M % Slices) get one
      // extra member.
      size_t Len = M / Slices + (S < M % Slices ? 1 : 0);
      if (Len == 0)
        continue;
      Jobs.push_back({Wl, Begin, Begin + Len});
      Begin += Len;
    }
  }
  return Jobs;
}

bool vmib::mergeShardResults(
    const SweepSpec &Spec, const std::vector<ShardJob> &Jobs,
    const std::vector<std::vector<PerfCounters>> &SliceResults,
    std::vector<PerfCounters> &Cells, std::string &Error) {
  if (Jobs.size() != SliceResults.size()) {
    Error = format("%zu jobs but %zu result slices", Jobs.size(),
                   SliceResults.size());
    return false;
  }
  size_t M = Spec.membersPerWorkload();
  Cells.assign(Spec.numCells(), PerfCounters());
  std::vector<uint8_t> Seen(Spec.numCells(), 0);
  for (size_t J = 0; J < Jobs.size(); ++J) {
    const ShardJob &Job = Jobs[J];
    if (Job.Workload >= Spec.Benchmarks.size() ||
        Job.MemberBegin > Job.MemberEnd || Job.MemberEnd > M) {
      Error = format("job %zu out of range", J);
      return false;
    }
    if (SliceResults[J].size() != Job.MemberEnd - Job.MemberBegin) {
      Error = format("job %zu: expected %zu results, got %zu", J,
                     Job.MemberEnd - Job.MemberBegin,
                     SliceResults[J].size());
      return false;
    }
    for (size_t I = 0; I < SliceResults[J].size(); ++I) {
      size_t Cell = Spec.cellIndex(Job.Workload, Job.MemberBegin + I);
      if (Seen[Cell]) {
        Error = format("cell %zu covered twice", Cell);
        return false;
      }
      Seen[Cell] = 1;
      Cells[Cell] = SliceResults[J][I];
    }
  }
  for (size_t Cell = 0; Cell < Seen.size(); ++Cell)
    if (!Seen[Cell]) {
      Error = format("cell %zu not covered by any shard", Cell);
      return false;
    }
  return true;
}

std::string vmib::sweepResultLine(const std::string &SweepName,
                                  size_t Workload, size_t Member,
                                  const PerfCounters &C) {
  return format("[result] sweep=%s workload=%zu member=%zu cycles=%llu "
                "instrs=%llu vminstrs=%llu indirects=%llu mispredicts=%llu "
                "icachemisses=%llu misscycles=%llu codebytes=%llu "
                "dispatches=%llu\n",
                SweepName.c_str(), Workload, Member,
                (unsigned long long)C.Cycles,
                (unsigned long long)C.Instructions,
                (unsigned long long)C.VMInstructions,
                (unsigned long long)C.IndirectBranches,
                (unsigned long long)C.Mispredictions,
                (unsigned long long)C.ICacheMisses,
                (unsigned long long)C.MissCycles,
                (unsigned long long)C.CodeBytes,
                (unsigned long long)C.DispatchCount);
}

bool vmib::parseSweepResultLine(const std::string &Line,
                                std::string &SweepName, size_t &Workload,
                                size_t &Member, PerfCounters &C) {
  std::vector<std::string> Tokens;
  if (!splitTokens(Line, Tokens) || Tokens.empty() ||
      Tokens[0] != "[result]")
    return false;
  std::map<std::string, std::string> KV;
  std::string Error;
  if (!keyValues(Tokens, KV, Error))
    return false;
  uint64_t W, M, Cyc, Ins, VM, Ind, Mis, ICM, MC, CB, DC;
  std::string Name;
  if (!needStr(KV, "sweep", Name, Error) ||
      !needU64(KV, "workload", W, Error) ||
      !needU64(KV, "member", M, Error) ||
      !needU64(KV, "cycles", Cyc, Error) ||
      !needU64(KV, "instrs", Ins, Error) ||
      !needU64(KV, "vminstrs", VM, Error) ||
      !needU64(KV, "indirects", Ind, Error) ||
      !needU64(KV, "mispredicts", Mis, Error) ||
      !needU64(KV, "icachemisses", ICM, Error) ||
      !needU64(KV, "misscycles", MC, Error) ||
      !needU64(KV, "codebytes", CB, Error) ||
      !needU64(KV, "dispatches", DC, Error))
    return false;
  SweepName = Name;
  Workload = static_cast<size_t>(W);
  Member = static_cast<size_t>(M);
  C.Cycles = Cyc;
  C.Instructions = Ins;
  C.VMInstructions = VM;
  C.IndirectBranches = Ind;
  C.Mispredictions = Mis;
  C.ICacheMisses = ICM;
  C.MissCycles = MC;
  C.CodeBytes = CB;
  C.DispatchCount = DC;
  return true;
}
