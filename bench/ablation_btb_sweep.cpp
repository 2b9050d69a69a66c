//===- bench/ablation_btb_sweep.cpp - §6 hardware-configuration sweep -----===//
///
/// The paper used its simulator "to get results for various hardware
/// configurations (especially varying BTB and cache sizes)" (§6). This
/// bench sweeps BTB capacity for three representative variants on
/// bench-gc: plain (whose working set of dispatch branches is the
/// opcode set), static repl (≈400 extra branch sites — the sweep shows
/// where they stop fitting), and dynamic both (one site per block
/// instance — the hungriest).
///
/// The sweep is declared as a SweepSpec — variants × seven BTB
/// geometries on the predictor axis — and routed through the shared
/// declarative runner: one chunk-tiled gang over the captured trace,
/// every member a self-contained full replay, so the spec shards.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <cstdio>

using namespace vmib;

int main(int argc, char **argv) {
  OptionParser Opts(argc, argv, bench::sweepOptions());
  ForthLab Lab;

  const std::vector<uint32_t> Capacities = {64,   128,  256,  512,
                                            1024, 4096, 16384};
  const std::vector<DispatchStrategy> Kinds = {DispatchStrategy::Threaded,
                                               DispatchStrategy::StaticRepl,
                                               DispatchStrategy::DynamicBoth};
  // The (variant × geometry) cross product, one gang.
  SweepSpec Spec;
  Spec.Name = "ablation_btb_sweep";
  Spec.Suite = "forth";
  Spec.Benchmarks = {"bench-gc"};
  Spec.Cpus = {"p4northwood"};
  for (DispatchStrategy K : Kinds)
    Spec.Variants.push_back(makeVariant(K));
  for (uint32_t C : Capacities) {
    PredictorGeometry G;
    G.PredKind = PredictorGeometry::Kind::Btb;
    G.Btb.Entries = C;
    G.Btb.Ways = 4;
    Spec.Predictors.push_back(G);
  }
  std::vector<PerfCounters> Cells;
  int Exit = 0;
  if (!bench::runDeclaredSweep(
          Opts, Spec,
          "=== Ablation: BTB capacity sweep (§6 simulator study) ===\n\n",
          &Lab, nullptr, Cells, Exit))
    return Exit;

  TextTable T({"BTB entries", "plain", "static repl", "dynamic both"});
  for (size_t C = 0; C < Capacities.size(); ++C) {
    std::vector<std::string> Row = {std::to_string(Capacities[C])};
    for (size_t K = 0; K < Kinds.size(); ++K)
      Row.push_back(format(
          "%.1f%%",
          100 * Cells[Spec.cellIndex(0, Spec.memberIndex(0, K, C))]
                    .mispredictRate()));
    T.addRow(Row);
  }
  std::printf("%s\n", T.render().c_str());
  std::printf(
      "Expected shape: plain saturates early (few branch sites); the\n"
      "replicated variants keep improving with capacity until every\n"
      "copy has its own entry — the Celeron's 512-entry BTB is exactly\n"
      "where static repl's 400 additional sites start to conflict.\n");
  return 0;
}
