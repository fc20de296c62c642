// atr_perfbench: the repository's end-to-end benchmark program.
//
//   atr_perfbench --workload <gas_large|update_stream|serve_mixed>
//                 --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Inputs are generated from --seed only. --trace 0 measures the end-to-end
// metrics with tracing off; --trace 1 reports the per-layer metrics and the
// tracing overhead, and writes the recorded spans to
// <trace-dir>/<workload>-<seed>.jsonl. The last stdout line is the JSON
// result; the exit code is non-zero when any correctness check failed.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: atr_perfbench --workload <gas_large|update_stream|"
               "serve_mixed> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-dir <dir>]\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (argc % 2 == 0 || args.seconds <= 0.0) {
    Usage();
    return 2;
  }

  perfbench::Tracer tracer(args.trace);
  perfbench::Report report;
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  if (args.workload == "gas_large") {
    perfbench::RunGasLarge(args, tracer, report);
  } else if (args.workload == "update_stream") {
    perfbench::RunUpdateStream(args, tracer, report);
  } else if (args.workload == "serve_mixed") {
    perfbench::RunServeMixed(args, tracer, report);
  } else {
    Usage();
    return 2;
  }
  if (args.trace && !args.trace_dir.empty()) {
    const std::string path = args.trace_dir + "/" + args.workload + "-" +
                             std::to_string(args.seed) + ".jsonl";
    if (tracer.WriteJsonLines(path)) {
      std::printf("  spans written to %s\n", path.c_str());
    } else {
      report.Check("write spans to " + path, 1, 1);
    }
  }
  report.Finish();
  return report.failed() == 0 && report.attempted() > 0 ? 0 : 1;
}
