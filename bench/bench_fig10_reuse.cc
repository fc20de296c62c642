// Exp-8 (Fig. 10): reuse test — the fraction of candidate edges whose
// follower results are fully reusable (FR), partially reusable (PR), or
// non-reusable (NR) after the first greedy round, on facebook and gowalla.
// GAS reuses a candidate's count whole or searches it again (core/gas.h),
// so PR is always 0.

#include <cstdio>

#include "bench/bench_common.h"
#include "util/table_printer.h"

namespace atr {
namespace {

void Run() {
  PrintBenchHeader("bench_fig10_reuse", "Fig. 10 (Exp-8)");
  const uint32_t b = std::max<uint32_t>(4, BenchBudget() / 5);
  SolverOptions options;
  for (const char* name : {"facebook", "gowalla"}) {
    const DatasetInstance data = MakeDataset(name, BenchScale());
    AtrEngine engine = MakeEngine(data);
    options.budget = ClampBudget(b, engine.graph().NumEdges());
    const SolveResult gas = RunOrDie(engine, "gas", options);
    std::printf("dataset %s (|E|=%u, %u rounds)\n", name,
                engine.graph().NumEdges(), b);
    TablePrinter table({"Round", "FR", "PR", "NR"});
    double fr_sum = 0;
    double pr_sum = 0;
    double nr_sum = 0;
    for (size_t r = 1; r < gas.rounds.size(); ++r) {  // round 1 is all-NR
      const AnchorRound& round = gas.rounds[r];
      const double total =
          round.fully_reusable + round.partially_reusable + round.non_reusable;
      const double fr = round.fully_reusable / total;
      const double pr = round.partially_reusable / total;
      const double nr = round.non_reusable / total;
      fr_sum += fr;
      pr_sum += pr;
      nr_sum += nr;
      table.AddRow({TablePrinter::FormatInt(static_cast<int64_t>(r + 1)),
                    TablePrinter::FormatPercent(fr),
                    TablePrinter::FormatPercent(pr),
                    TablePrinter::FormatPercent(nr)});
    }
    const double rounds = static_cast<double>(gas.rounds.size() - 1);
    table.AddRow({"avg", TablePrinter::FormatPercent(fr_sum / rounds),
                  TablePrinter::FormatPercent(pr_sum / rounds),
                  TablePrinter::FormatPercent(nr_sum / rounds)});
    table.Print();
    std::printf("\n");
  }
  std::printf(
      "expected shape: PR is 0, because reuse is per candidate read set "
      "rather than per tree node; at the default scale FR exceeds the "
      "paper's 81.7%% facebook / 83.5%% gowalla.\n");
}

}  // namespace
}  // namespace atr

int main() {
  atr::Run();
  return 0;
}
