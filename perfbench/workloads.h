// The benchmark's three workloads and the layer probes they share.
//
// Every workload reports the same end-to-end keys (BENCHMARK.json), each
// with the workload's own meaning:
//
//   key            gas_large               update_stream        serve_mixed
//   setup_s        generate + decompose    generate + service   generate +
//                                          + first Snapshot     server start
//   p50_ms         GAS solve, nproc thr.   UpdateGraph + read   job reply
//   tail_ms        GAS solve p90, nproc    UpdateGraph p90      job reply p90
//   ops_per_s      solves per second       updates per second   jobs per second
//                  (both thread counts)
//   secondary_ms   GAS solve, 1 thread     cold first Snapshot  wire UpdateGraph
//   peak_rss_mb    peak resident set size of the process
//
// The traced run (--trace 1) reports every per-layer metric instead. Each
// workload measures the layers its own traffic exercises around its own
// calls; the remaining layers are measured by the probes below on the
// workload's own graph, so every per-layer key has a value everywhere.

#ifndef ATR_PERFBENCH_WORKLOADS_H_
#define ATR_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "api/solver.h"
#include "graph/graph.h"
#include "trace.h"
#include "truss/decomposition.h"
#include "util/prng.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;  // where the traced run writes its spans
};

// Worker threads the workloads use: the CPUs this process may run on
// (what nproc prints).
int Threads();

// Set-up is repeated until its timed repetitions add up to kSetupShare of
// --seconds, and at least kMinSetups times; setup_s is their median.
constexpr double kSetupShare = 0.1;
constexpr size_t kMinSetups = 3;
inline bool MoreSetups(const Samples& setup_s, const Args& args) {
  return setup_s.size() < kMinSetups ||
         setup_s.Sum() < kSetupShare * args.seconds;
}

void RunGasLarge(const Args& args, Tracer& tracer, Report& report);
void RunUpdateStream(const Args& args, Tracer& tracer, Report& report);
void RunServeMixed(const Args& args, Tracer& tracer, Report& report);

// --- shared helpers (probes.cc) -------------------------------------------

// A small seeded edit batch against `g`: `edits / 2` removals of random
// edges and the rest triangle-closing additions of absent edges. Valid for
// Graph::ApplyEdits on exactly this graph.
atr::GraphDelta MakeDelta(const atr::Graph& g, atr::Rng& rng, int edits);

// GAS options with a progress hook that records core.round_ms per round.
atr::SolverOptions GasOptions(uint32_t budget, int threads, Tracer& tracer);
// Records core.rounds and core.reuse_frac of a finished GAS solve.
void CountSolve(const atr::SolveResult& result, Tracer& tracer);

// graph.view_build, graph.support_sweep and truss.cold_decompose on `g`.
void ProbeColdBuild(const atr::Graph& g, Tracer& tracer);

// Replays a solve's round states (anchor prefixes of `anchors` on top of
// the anchor-free `base`): per round the anchored recompute
// (truss.decompose), the component tree (tree.build), a follower sweep over
// every candidate (route.eval), and the incremental anchor apply
// (truss.incremental_apply). Returns false when the recomputed
// decomposition disagrees with the incrementally maintained one.
bool ProbeRounds(const atr::Graph& g, const atr::TrussDecomposition& base,
                 const std::vector<atr::EdgeId>& anchors, Tracer& tracer);

// The layer calls behind AtrService::UpdateGraph, made directly:
// graph.apply_edits, then one truss.incremental_update span per retired or
// inserted edge (truss.region_edges from IncrementalTruss::stats()).
void ProbeUpdate(const atr::Graph& prev, const atr::TrussDecomposition& decomp,
                 const atr::GraphDelta& delta, Tracer& tracer);

// An in-process server holding `g`, driven by one client: pings
// (net.ping), cheap `rand` jobs (net.submit, api.queue_wait_ms,
// api.solve_ms, api.batches_per_job, api.rejected) and, when
// `snapshots`, warm Snapshot reads (api.snapshot). For workloads whose own
// traffic never crosses the wire.
bool ProbeServer(const atr::Graph& g, bool snapshots, Tracer& tracer);

// An empty-body ParallelFor dispatch at `threads` workers
// (util.parallel_for).
void ProbeParallelFor(int threads, Tracer& tracer);

// Prints every per-layer metric from the tracer, plus the tracing
// overhead: the traced minus the untraced median of the workload's
// operation latency.
void ReportLayers(const Tracer& tracer, const Samples& untraced_ms,
                  const Samples& traced_ms, Report& report);

// Peak resident set size of this process, in MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // ATR_PERFBENCH_WORKLOADS_H_
