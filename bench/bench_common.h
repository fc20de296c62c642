// Shared helpers for the table/figure reproduction harnesses.
//
// Every harness runs with no CLI arguments (scaling comes from ATR_* env
// vars, see eval/datasets.h) and prints: the experiment id it reproduces,
// the effective configuration, and the paper-style rows.
//
// Harnesses run every solver through the unified API (api/engine.h): one
// AtrEngine per dataset so the truss decomposition is shared across the
// solvers being compared.

#ifndef ATR_BENCH_BENCH_COMMON_H_
#define ATR_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "api/engine.h"
#include "core/random_baselines.h"
#include "eval/datasets.h"
#include "graph/generators/social_profiles.h"
#include "util/env.h"

namespace atr {

// --- Machine-readable bench output (--json / ATR_BENCH_JSON) -------------
//
// When enabled, benches additionally emit one self-contained JSON object
// per table row on stdout (one line each, prefixed with nothing), so CI
// can grep them into perf-trajectory files:
//
//   {"experiment":"bench_table3_overview","dataset":"college",...}
//
// Enable with the --json CLI flag (pass argc/argv to ParseBenchFlags) or
// by setting ATR_BENCH_JSON=1 in the environment.

inline bool& BenchJsonEnabledFlag() {
  static bool enabled = GetEnvInt64("ATR_BENCH_JSON", 0) != 0;
  return enabled;
}

inline bool BenchJsonEnabled() { return BenchJsonEnabledFlag(); }

// Call first thing in main(); recognizes --json and ignores everything
// else (benches keep their no-argument contract).
inline void ParseBenchFlags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") BenchJsonEnabledFlag() = true;
  }
}

inline std::string BenchJsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

// One bench row as a flat JSON object; Emit() prints it iff JSON output is
// enabled, so call sites wire rows unconditionally.
class BenchJsonRow {
 public:
  explicit BenchJsonRow(const char* experiment) : experiment_(experiment) {
    Add("experiment", experiment_);
  }

  BenchJsonRow& Add(const char* key, const std::string& value) {
    Field(key) += "\"" + BenchJsonEscape(value) + "\"";
    return *this;
  }
  BenchJsonRow& Add(const char* key, const char* value) {
    return Add(key, std::string(value));
  }
  BenchJsonRow& AddInt(const char* key, int64_t value) {
    Field(key) += std::to_string(value);
    return *this;
  }
  BenchJsonRow& AddDouble(const char* key, double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    Field(key) += buf;
    return *this;
  }

  // Prints the row (when enabled) and resets to a fresh row carrying the
  // same experiment id, so one instance can emit a whole table.
  void Emit() {
    if (BenchJsonEnabled()) std::printf("%s}\n", body_.c_str());
    body_ = "{";
    first_ = true;
    Add("experiment", experiment_);
  }

 private:
  std::string& Field(const char* key) {
    if (!first_) body_ += ",";
    first_ = false;
    body_ += "\"" + BenchJsonEscape(key) + "\":";
    return body_;
  }

  std::string experiment_;
  std::string body_ = "{";
  bool first_ = true;
};

inline void PrintBenchHeader(const char* experiment, const char* paper_ref) {
  std::printf("\n=== %s — reproduces %s ===\n", experiment, paper_ref);
  std::printf(
      "config: ATR_BENCH_SCALE=%.2f ATR_BENCH_B=%u ATR_BENCH_TRIALS=%u "
      "(synthetic SNAP stand-ins; see graph/generators/social_profiles.h)"
      "\n\n",
      BenchScale(), BenchBudget(), BenchTrials());
}

// An engine over a benchmark dataset, borrowing its graph and primed with
// the decomposition the dataset registry already computed. `data` must
// outlive the returned engine.
inline AtrEngine MakeEngine(const DatasetInstance& data) {
  return AtrEngine(data.graph, data.decomposition);
}

// Solve-or-abort: harness configurations are static, so an error here is a
// harness bug, not an input problem.
inline SolveResult RunOrDie(AtrEngine& engine, const std::string& solver,
                            const SolverOptions& options) {
  StatusOr<SolveResult> result = engine.Run(solver, options);
  if (!result.ok()) {
    std::fprintf(stderr, "bench: solver \"%s\" failed: %s\n", solver.c_str(),
                 result.status().message().c_str());
    std::abort();
  }
  return *std::move(result);
}

inline SolveResult SweepOrDie(AtrEngine& engine, const std::string& solver,
                              const std::vector<uint32_t>& checkpoints,
                              SolverOptions options = {}) {
  StatusOr<SolveResult> result =
      engine.RunSweep(solver, checkpoints, std::move(options));
  if (!result.ok()) {
    std::fprintf(stderr, "bench: sweep \"%s\" failed: %s\n", solver.c_str(),
                 result.status().message().c_str());
    std::abort();
  }
  return *std::move(result);
}

// Benchmark budgets come from the environment and can exceed what a small
// dataset supports; clamp to the feasible range instead of letting the
// solver reject the run (the legacy entry points clamped silently).
inline uint32_t ClampBudget(uint32_t b, uint32_t cap) {
  return std::max<uint32_t>(1, std::min(b, cap));
}

// Effective budget ceiling of the Sup/Tur baselines: the size of their
// top-20% candidate pool, straight from the authoritative helper.
inline uint32_t BaselinePoolCap(const Graph& g) {
  return BaselinePoolCapacity(g, RandomPoolKind::kTopSupport);
}

// The 20%..100% budget checkpoints the Fig. 6 / Fig. 8 sweeps report.
inline std::vector<uint32_t> BudgetCheckpoints(uint32_t b) {
  std::vector<uint32_t> checkpoints;
  for (int i = 1; i <= 5; ++i) {
    const uint32_t c = std::max<uint32_t>(1, b * i / 5);
    if (checkpoints.empty() || c > checkpoints.back()) {
      checkpoints.push_back(c);
    }
  }
  return checkpoints;
}

}  // namespace atr

#endif  // ATR_BENCH_BENCH_COMMON_H_
