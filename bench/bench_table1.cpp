// Reproduces Table I: test accuracy, per-round upload size, and save ratio
// for FedAvg, FedDrop, AFD, FedMP, FjORD, HeteroFL, and FedBIAD on all five
// datasets (paper §V-B "Performance Comparison").
#include <cstdio>

#include "common.hpp"

int main() {
  using namespace fedbiad;
  using namespace fedbiad::bench;

  const std::vector<std::string> methods{
      "FedAvg", "FedDrop", "AFD", "FedMP", "FjORD", "HeteroFL", "FedBIAD"};
  const std::vector<DatasetId> datasets{
      DatasetId::kMnist, DatasetId::kFmnist, DatasetId::kPtb,
      DatasetId::kWikiText2, DatasetId::kReddit};

  std::printf("=== Table I: accuracy / upload size / save ratio ===\n");
  std::printf("(scaled simulation — compare ordering and ratios, not "
              "absolute values; see bench/README.md)\n\n");
  for (const auto id : datasets) {
    const Workload w = make_workload(id);
    std::printf("--- %s (p=%.1f, rounds=%zu, clients=%zu, metric=top-%zu) "
                "---\n",
                name_of(id), w.dropout_rate, w.sim.rounds, w.partition.size(),
                w.sim.train.topk);
    for (const auto& method : methods) {
      const auto result = run_strategy(w, make_strategy(method, w));
      print_table_row(w, method, result);
    }
    std::printf("\n");
  }
  return 0;
}
