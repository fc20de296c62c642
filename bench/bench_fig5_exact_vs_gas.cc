// Exp-2 (Fig. 5): GAS vs Exact on small ego-ball extracts (150-250 edges,
// the extraction method of Linghu et al. the paper follows), budgets 1-3.
// Reports average gain ratio and average runtimes per budget over the
// extracts kept. One AtrEngine per extract serves every budget of both
// solvers.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "graph/subgraph.h"
#include "util/table_printer.h"

namespace atr {
namespace {

void RunDataset(const char* name, size_t num_extracts) {
  const DatasetInstance data = MakeDataset(name, BenchScale());
  // Extract around vertices in degree order: the paper's extracts come from
  // the dense regions of the SNAP graphs, where single anchors already gain
  // (sparse fringes are dominated by pairwise synergies, which no greedy
  // can see). Keep the first extracts of at least 20 edges in which some
  // edge has a follower: around the facebook stand-in's top hubs the
  // extracts are near-cliques in which no edge has one, and Exact and GAS
  // both read 0 there at every budget.
  std::vector<VertexId> seeds_by_degree(data.graph.NumVertices());
  for (VertexId v = 0; v < data.graph.NumVertices(); ++v) {
    seeds_by_degree[v] = v;
  }
  std::sort(seeds_by_degree.begin(), seeds_by_degree.end(),
            [&](VertexId a, VertexId b) {
              return data.graph.Degree(a) != data.graph.Degree(b)
                         ? data.graph.Degree(a) > data.graph.Degree(b)
                         : a < b;
            });
  // One engine per kept extract, shared across every budget below.
  std::vector<std::unique_ptr<AtrEngine>> engines;
  std::string ranks;
  SolverOptions probe;
  probe.budget = 1;
  for (size_t rank = 0;
       rank < seeds_by_degree.size() && engines.size() < num_extracts;
       ++rank) {
    Graph extract =
        ExtractEgoBall(data.graph, seeds_by_degree[rank], 150, 250);
    if (extract.NumEdges() < 20) continue;
    auto engine = std::make_unique<AtrEngine>(std::move(extract));
    // GAS's b = 1 gain is the largest follower count of any edge.
    if (RunOrDie(*engine, "gas", probe).total_gain == 0) continue;
    engines.push_back(std::move(engine));
    ranks += (ranks.empty() ? "" : ", ") + std::to_string(rank);
  }
  std::printf(
      "dataset %s (extracts of 150-250 edges with a follower: %zu, around "
      "degree ranks %s; rank 0 is the highest degree)\n",
      name, engines.size(), ranks.empty() ? "none" : ranks.c_str());
  if (engines.empty()) return;
  const double kept = static_cast<double>(engines.size());
  TablePrinter table({"b", "Exact gain", "GAS gain", "GAS/Exact", "Exact(s)",
                      "GAS(s)", "subsets"});
  for (uint32_t b = 1; b <= 3; ++b) {
    double exact_gain = 0;
    double gas_gain = 0;
    double exact_seconds = 0;
    double gas_seconds = 0;
    uint64_t subsets = 0;
    for (const std::unique_ptr<AtrEngine>& engine : engines) {
      SolverOptions options;
      options.budget = b;
      const SolveResult exact = RunOrDie(*engine, "exact", options);
      const SolveResult gas = RunOrDie(*engine, "gas", options);
      exact_gain += static_cast<double>(exact.total_gain);
      gas_gain += static_cast<double>(gas.total_gain);
      exact_seconds += exact.seconds;
      gas_seconds += gas.seconds;
      subsets += exact.subsets_evaluated;
    }
    const double ratio = exact_gain > 0 ? gas_gain / exact_gain : 1.0;
    table.AddRow({TablePrinter::FormatInt(b),
                  TablePrinter::FormatDouble(exact_gain / kept, 1),
                  TablePrinter::FormatDouble(gas_gain / kept, 1),
                  TablePrinter::FormatDouble(ratio, 2),
                  TablePrinter::FormatSeconds(exact_seconds / kept),
                  TablePrinter::FormatSeconds(gas_seconds / kept),
                  TablePrinter::FormatInt(subsets)});
  }
  table.Print();
}

}  // namespace
}  // namespace atr

int main() {
  atr::PrintBenchHeader("bench_fig5_exact_vs_gas", "Fig. 5 (Exp-2)");
  atr::RunDataset("facebook", 3);
  atr::RunDataset("brightkite", 3);
  std::printf(
      "\nexpected shape (paper): GAS/Exact >= ~0.9 for b <= 3 while Exact "
      "runtime grows by orders of magnitude per +1 budget.\n");
  return 0;
}
