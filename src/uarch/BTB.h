//===- uarch/BTB.h - Branch target buffer -----------------------*- C++ -*-===//
///
/// \file
/// The branch target buffer of §2.2: a set-associative table mapping
/// branch-site addresses to their last observed target. Supports the
/// "BTB with two-bit counters" variant from §3, which only replaces a
/// stored target after two consecutive mispredictions (hysteresis), and
/// an idealised unbounded mode used for the Tables I-IV walkthroughs.
///
//===----------------------------------------------------------------------===//

#ifndef VMIB_UARCH_BTB_H
#define VMIB_UARCH_BTB_H

#include "support/FastMod.h"
#include "uarch/BranchPredictor.h"

#include <cassert>
#include <cstdint>
#include <map>
#include <vector>

namespace vmib {

/// Configuration for a BTB instance.
struct BTBConfig {
  /// Total entries; 0 means idealised (one entry per branch, no misses).
  uint32_t Entries = 512;
  /// Associativity; Entries must be divisible by Ways.
  uint32_t Ways = 4;
  /// Low bits of the site address ignored when indexing (code alignment).
  uint32_t IndexShift = 2;
  /// Two-bit-counter hysteresis on target replacement (§3).
  bool TwoBitCounters = false;
};

/// A set-associative BTB with LRU replacement.
///
/// predict()/update() are defined inline (and the class is final) so
/// the devirtualized replay kernels inline them into the replay loop;
/// the virtual IndirectBranchPredictor path uses the same bodies.
class BTB final : public IndirectBranchPredictor {
public:
  explicit BTB(const BTBConfig &Config);

  Addr predict(Addr Site, uint64_t Hint) override;
  void update(Addr Site, Addr Target, uint64_t Hint) override;
  void reset() override;
  std::string name() const override;

  /// Fused predict-then-update over one set search. State transitions
  /// (targets, counters, LRU clock) are exactly those of predict()
  /// followed by update(), so counters stay bit-identical; the replay
  /// kernel picks this up via detection and halves the table walks.
  Addr predictAndUpdate(Addr Site, Addr Target, uint64_t Hint);

  /// The tag-hit target transition every BTB tier (update(), the fused
  /// path, NoEvictBTB) must apply identically — the replay equivalence
  /// guarantee rests on these staying one implementation. Plain BTBs
  /// always store the new target; two-bit hysteresis (§3) only
  /// replaces it once confidence is exhausted.
  static void updateOnHit(Addr &StoredTarget, uint8_t &Counter, Addr Target,
                          bool TwoBitCounters) {
    if (!TwoBitCounters) {
      StoredTarget = Target;
      return;
    }
    if (StoredTarget == Target) {
      if (Counter < 3)
        ++Counter;
    } else if (Counter > 0) {
      --Counter;
    } else {
      StoredTarget = Target;
      Counter = 1;
    }
  }

  const BTBConfig &config() const { return Config; }

  /// Mutable predictor state (gang packing audit): table storage plus
  /// the idealised-mode map nodes.
  uint64_t stateBytes() const {
    return Sets.capacity() * sizeof(Entry) +
           IdealTable.size() * (sizeof(Addr) + sizeof(Entry));
  }

private:
  struct Entry {
    Addr Tag = NoPrediction;    // full site address (tagged BTB)
    Addr Target = NoPrediction; // predicted target
    uint8_t Counter = 0;        // 2-bit confidence (TwoBitCounters mode)
    uint64_t LastUse = 0;       // LRU timestamp
  };

  uint32_t numSets() const { return Config.Entries / Config.Ways; }
  uint32_t setIndexFor(Addr Site) const {
    return SetMod.mod(Site >> Config.IndexShift);
  }
  Entry *findEntry(Addr Site) {
    uint32_t Set = setIndexFor(Site);
    for (uint32_t W = 0; W < Config.Ways; ++W) {
      Entry &E = Sets[Set * Config.Ways + W];
      if (E.Tag == Site)
        return &E;
    }
    return nullptr;
  }
  Entry *victimEntry(Addr Site) {
    uint32_t Set = setIndexFor(Site);
    Entry *Victim = &Sets[Set * Config.Ways];
    for (uint32_t W = 1; W < Config.Ways; ++W) {
      Entry &E = Sets[Set * Config.Ways + W];
      if (E.LastUse < Victim->LastUse)
        Victim = &E;
    }
    return Victim;
  }

  BTBConfig Config;
  FastMod SetMod;
  std::vector<Entry> Sets;           // numSets x Ways, row-major
  std::map<Addr, Entry> IdealTable;  // idealised mode storage
  uint64_t UseClock = 0;
};

/// The BTB ignores the decode-time hint: skip fetching it.
template <> struct PredictorPolicy<BTB> {
  static constexpr bool AlwaysCorrect = false;
  static constexpr bool AlwaysMiss = false;
  static constexpr bool UsesHint = false;
};

/// Optimistic no-evict BTB for trace replay: SoA tag/target (and
/// two-bit counter) arrays, no LRU clock. Identical predictions to BTB
/// until a set overflows — cold fills use the same first-free-way order
/// LRU produces — at which point a sticky flag tells the replayer to
/// redo the run with the exact model. Does not implement the idealised
/// (Entries == 0) mode; callers keep that on the exact BTB.
class NoEvictBTB {
public:
  explicit NoEvictBTB(const BTBConfig &C) : Config(C) {
    assert(C.Ways != 0 && C.Entries != 0 && C.Entries % C.Ways == 0 &&
           "entries must divide evenly into ways");
    SetMod.init(C.Entries / C.Ways);
    Tags.assign(C.Entries, NoPrediction);
    Targets.assign(C.Entries, NoPrediction);
    if (Config.TwoBitCounters)
      Counters.assign(C.Entries, 0);
  }

  Addr predictAndUpdate(Addr Site, Addr Target, uint64_t) {
    uint32_t Base = SetMod.mod(Site >> Config.IndexShift) * Config.Ways;
    for (uint32_t W = 0; W < Config.Ways; ++W)
      if (Tags[Base + W] == Site) {
        Addr Predicted = Targets[Base + W];
        if (!Config.TwoBitCounters) {
          Targets[Base + W] = Target;
          return Predicted;
        }
        BTB::updateOnHit(Targets[Base + W], Counters[Base + W], Target,
                         /*TwoBitCounters=*/true);
        return Predicted;
      }
    for (uint32_t W = 0; W < Config.Ways; ++W)
      if (Tags[Base + W] == NoPrediction) {
        Tags[Base + W] = Site;
        Targets[Base + W] = Target;
        if (Config.TwoBitCounters)
          Counters[Base + W] = 1;
        return NoPrediction;
      }
    Overflowed = true;
    Tags[Base] = Site;
    Targets[Base] = Target;
    return NoPrediction;
  }

  void reset() {
    Tags.assign(Tags.size(), NoPrediction);
    Targets.assign(Targets.size(), NoPrediction);
    if (Config.TwoBitCounters)
      Counters.assign(Counters.size(), 0);
    Overflowed = false;
  }

  bool overflowed() const { return Overflowed; }
  std::string name() const { return "no-evict-btb"; }
  const BTBConfig &config() const { return Config; }

  /// Mutable predictor state (gang packing audit): the SoA arrays are
  /// what a dense gang keeps cache-resident — no LRU clocks, and the
  /// counter array only exists in two-bit mode.
  uint64_t stateBytes() const {
    return Tags.capacity() * sizeof(Addr) +
           Targets.capacity() * sizeof(Addr) +
           Counters.capacity() * sizeof(uint8_t);
  }

private:
  BTBConfig Config;
  FastMod SetMod;
  std::vector<Addr> Tags;
  std::vector<Addr> Targets;
  std::vector<uint8_t> Counters;
  bool Overflowed = false;
};

template <> struct PredictorPolicy<NoEvictBTB> {
  static constexpr bool AlwaysCorrect = false;
  static constexpr bool AlwaysMiss = false;
  static constexpr bool UsesHint = false;
};

inline Addr BTB::predictAndUpdate(Addr Site, Addr Target, uint64_t) {
  if (Config.Entries == 0) {
    // Idealised mode: predict() does not touch the LRU clock, so the
    // fused form is a lookup followed by the plain update() body.
    Entry &E = IdealTable[Site];
    Addr Predicted = E.Tag == NoPrediction ? NoPrediction : E.Target;
    if (!Config.TwoBitCounters || E.Tag == NoPrediction) {
      E.Tag = Site;
      E.Target = Target;
      E.Counter = 1;
      return Predicted;
    }
    updateOnHit(E.Target, E.Counter, Target, /*TwoBitCounters=*/true);
    return Predicted;
  }

  Entry *E = findEntry(Site);
  if (!E) {
    // predict() missed (no clock bump); update() allocates the victim.
    E = victimEntry(Site);
    E->Tag = Site;
    E->Target = Target;
    E->Counter = 1;
    E->LastUse = ++UseClock;
    return NoPrediction;
  }
  Addr Predicted = E->Target;
  // Sequential path bumps the clock in predict() and again in
  // update(); mirror both so later LRU decisions are identical.
  UseClock += 2;
  E->LastUse = UseClock;
  updateOnHit(E->Target, E->Counter, Target, Config.TwoBitCounters);
  return Predicted;
}

inline Addr BTB::predict(Addr Site, uint64_t) {
  if (Config.Entries == 0) {
    auto It = IdealTable.find(Site);
    return It == IdealTable.end() ? NoPrediction : It->second.Target;
  }
  Entry *E = findEntry(Site);
  if (!E)
    return NoPrediction;
  E->LastUse = ++UseClock;
  return E->Target;
}

inline void BTB::update(Addr Site, Addr Target, uint64_t) {
  if (Config.Entries == 0) {
    Entry &E = IdealTable[Site];
    if (!Config.TwoBitCounters || E.Tag == NoPrediction) {
      E.Tag = Site;
      E.Target = Target;
      E.Counter = 1;
      return;
    }
    updateOnHit(E.Target, E.Counter, Target, /*TwoBitCounters=*/true);
    return;
  }

  Entry *E = findEntry(Site);
  if (!E) {
    E = victimEntry(Site);
    E->Tag = Site;
    E->Target = Target;
    E->Counter = 1;
    E->LastUse = ++UseClock;
    return;
  }
  E->LastUse = ++UseClock;
  updateOnHit(E->Target, E->Counter, Target, Config.TwoBitCounters);
}

} // namespace vmib

#endif // VMIB_UARCH_BTB_H
