// Speed of the truss decomposition (truss/flat_peel.h behind
// ComputeTrussDecomposition) against the serial Algorithm 1 peel on the
// Fig. 9 scalability graphs (patents, pokec stand-ins), swept over thread
// counts. Every run is asserted byte-identical to the serial result before
// any time is printed, so the table can never show a "speedup" that
// changed the answer.
//
// Rows carry config = "plan:serial" (the oracle) or "plan:bsp" (the flat
// engine) with the thread count, so scripts/bench_diff.py tracks each
// (engine, threads) pair as its own trajectory. The one-thread rows are
// the ones BENCH_service.json gates.
//
// Knobs:
//   ATR_BENCH_PAR_THREADS — comma-separated thread counts for the flat
//                           engine, beyond the one-thread row that always
//                           runs (default 1,2,4,8)
//   ATR_BENCH_PAR_REPS    — repetitions per configuration, best is kept
//                           (default 3)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "truss/decomposition.h"
#include "util/env.h"
#include "util/parallel_for.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace atr {
namespace {

// One thread first, then every other count in ATR_BENCH_PAR_THREADS.
std::vector<int> ThreadList() {
  const std::string spec = GetEnvString("ATR_BENCH_PAR_THREADS", "1,2,4,8");
  std::vector<int> threads = {1};
  int value = 0;
  bool have_digit = false;
  for (const char ch : spec + ",") {
    if (ch >= '0' && ch <= '9') {
      value = value * 10 + (ch - '0');
      have_digit = true;
    } else {
      if (have_digit && value > 1 &&
          std::find(threads.begin(), threads.end(), value) == threads.end()) {
        threads.push_back(value);
      }
      value = 0;
      have_digit = false;
    }
  }
  return threads;
}

void ExpectIdentical(const TrussDecomposition& serial,
                     const TrussDecomposition& flat, const char* dataset,
                     int threads) {
  if (serial.trussness != flat.trussness || serial.layer != flat.layer ||
      serial.max_trussness != flat.max_trussness) {
    std::fprintf(stderr,
                 "bench: decomposition diverged from serial on %s at %d "
                 "threads\n",
                 dataset, threads);
    std::abort();
  }
}

template <typename Fn>
double BestSeconds(int reps, const Fn& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    fn();
    const double elapsed = timer.ElapsedSeconds();
    if (r == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

void EmitRow(const char* dataset, const char* config, int threads,
             uint32_t edges, double seconds, double serial_seconds) {
  BenchJsonRow("bench_plan_sweep")
      .Add("dataset", dataset)
      .Add("config", config)
      .AddInt("threads", threads)
      .AddInt("edges", edges)
      .AddDouble("ms", seconds * 1e3)
      .AddDouble("speedup_vs_serial", serial_seconds / seconds)
      .Emit();
}

void Run() {
  PrintBenchHeader("bench_parallel_decomposition", "Fig. 9 hot path");
  const int reps = static_cast<int>(
      std::max<int64_t>(1, GetEnvInt64("ATR_BENCH_PAR_REPS", 3)));
  const std::vector<int> threads = ThreadList();
  std::printf("reps per configuration: %d (best kept)\n", reps);

  for (const char* name : {"patents", "pokec"}) {
    const DatasetInstance data = MakeDataset(name, BenchScale());
    const Graph& g = data.graph;
    std::printf("\ndataset %s (|V|=%u |E|=%u k_max=%u)\n", name,
                g.NumVertices(), g.NumEdges(), data.k_max);

    TrussDecomposition serial;
    const double serial_seconds = BestSeconds(
        reps, [&] { serial = ComputeTrussDecompositionSerial(g); });

    TablePrinter table({"Engine", "Threads", "ms", "vs serial", "vs 1 thread"});
    table.AddRow({"serial", "1",
                  TablePrinter::FormatDouble(serial_seconds * 1e3, 2), "1.00",
                  "-"});
    EmitRow(name, "plan:serial", 1, g.NumEdges(), serial_seconds,
            serial_seconds);

    double one_thread_seconds = 0.0;
    for (const int t : threads) {
      ScopedParallelism parallelism(t);
      TrussDecomposition flat;
      const double seconds =
          BestSeconds(reps, [&] { flat = ComputeTrussDecomposition(g); });
      ExpectIdentical(serial, flat, name, t);
      if (t == 1) one_thread_seconds = seconds;
      table.AddRow({"flat", std::to_string(t),
                    TablePrinter::FormatDouble(seconds * 1e3, 2),
                    TablePrinter::FormatDouble(serial_seconds / seconds, 2),
                    TablePrinter::FormatDouble(one_thread_seconds / seconds,
                                               2)});
      EmitRow(name, "plan:bsp", t, g.NumEdges(), seconds, serial_seconds);
    }
    table.Print();
  }
  std::printf(
      "\nexpected shape: the flat engine beats the serial bucket peel at one "
      "thread (> 2x on the Fig. 9 graphs). Its triangle sweep is serial and "
      "only the peel rounds fan out, so extra threads buy little until the "
      "sweep is parallel.\n");
}

}  // namespace
}  // namespace atr

int main(int argc, char** argv) {
  atr::ParseBenchFlags(argc, argv);
  atr::Run();
  return 0;
}
