// gas_large: the paper's efficiency experiment (Exp-5/6). One default-
// options GAS solve at b = 10 on the pokec stand-in (scale 0.2, ~22k
// vertices, ~110k edges) through AtrEngine::Run, alternating threads =
// nproc and threads = 1 on a cached decomposition. route, tree and core do
// nearly all the work; net, api and graph updates do none.

#include <memory>

#include "api/engine.h"
#include "graph/generators/social_profiles.h"
#include "truss/gain.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr uint32_t kBudget = 10;
constexpr double kScale = 0.2;

struct SolveSamples {
  Samples wide_ms;    // threads = nproc
  Samples single_ms;  // threads = 1
  double wall_s = 0.0;
  uint64_t solves = 0;
  uint64_t wrong = 0;
};

// Alternates nproc- and 1-thread solves for `seconds`, checking each
// result against the reference anchors and the oracle gain.
SolveSamples TimedSolves(atr::AtrEngine& engine, double seconds, int threads,
                         const std::vector<atr::EdgeId>& anchors,
                         uint64_t gain, Tracer& tracer) {
  SolveSamples out;
  const Clock::time_point start = Clock::now();
  double pair_ms = 0.0;
  while (out.solves < 4 || MsSince(start) + pair_ms < seconds * 1000.0) {
    const Clock::time_point pair_start = Clock::now();
    for (const int t : {threads, 1}) {
      const Clock::time_point t0 = Clock::now();
      atr::StatusOr<atr::SolveResult> r =
          engine.Run("gas", GasOptions(kBudget, t, tracer));
      (t == 1 ? out.single_ms : out.wide_ms).Add(MsSince(t0));
      ++out.solves;
      if (!r.ok() || r->anchor_edges != anchors || r->total_gain != gain) {
        ++out.wrong;
      } else {
        CountSolve(*r, tracer);
      }
    }
    pair_ms = MsSince(pair_start);
  }
  out.wall_s = MsSince(start) / 1000.0;
  return out;
}

}  // namespace

void RunGasLarge(const Args& args, Tracer& tracer, Report& report) {
  const int threads = Threads();
  Samples setup_s;
  std::unique_ptr<atr::AtrEngine> engine;
  while (MoreSetups(setup_s, args)) {
    engine.reset();
    const Clock::time_point t0 = Clock::now();
    engine = std::make_unique<atr::AtrEngine>(
        atr::MakeSocialProfile("pokec", kScale, args.seed));
    (void)engine->Decomposition();
    setup_s.Add(MsSince(t0) / 1000.0);
  }
  const atr::Graph& g = engine->graph();
  report.Note("graph pokec@" + std::to_string(kScale) + ": " +
              std::to_string(g.NumVertices()) + " vertices, " +
              std::to_string(g.NumEdges()) + " edges; budget " +
              std::to_string(kBudget) + "; threads " + std::to_string(threads));

  // Warm-up solve at 1 thread; its anchors are the reference list and its
  // gain is checked against the TrussnessGain oracle.
  Tracer off(false);
  atr::StatusOr<atr::SolveResult> ref =
      engine->Run("gas", GasOptions(kBudget, 1, off));
  if (!ref.ok()) {
    report.Check("warm-up solve", 1, 1);
    return;
  }
  const uint64_t oracle =
      atr::TrussnessGain(g, engine->Decomposition(), {}, ref->anchor_edges);
  report.Check("gas total_gain == TrussnessGain oracle", 1,
               oracle == ref->total_gain ? 0 : 1);

  if (!args.trace) {
    const SolveSamples s = TimedSolves(*engine, args.seconds, threads,
                                       ref->anchor_edges, oracle, off);
    report.Check("solves match 1-thread anchors and oracle gain", s.solves,
                 s.wrong);
    report.Metric("setup_s", "setup_s", setup_s.Median(), "s", setup_s.size());
    report.Metric("p50_ms", "solve_ms", s.wide_ms.Median(), "ms",
                  s.wide_ms.size(), s.wide_ms.Range());
    report.Metric("tail_ms", "solve_ms_p90", s.wide_ms.Tail(), "ms",
                  s.wide_ms.size());
    report.Metric("ops_per_s", "solves_per_s",
                  static_cast<double>(s.solves) / s.wall_s, "1/s", s.solves);
    report.Metric("secondary_ms", "solve_1t_ms", s.single_ms.Median(), "ms",
                  s.single_ms.size(), s.single_ms.Range());
    report.Metric("peak_rss_mb", "peak_rss_mb", PeakRssMb(), "MB", 1);
    return;
  }

  // Traced run: half the time untraced, half traced, then the probes.
  const SolveSamples plain = TimedSolves(*engine, args.seconds / 2, threads,
                                         ref->anchor_edges, oracle, off);
  const SolveSamples traced = TimedSolves(*engine, args.seconds / 2, threads,
                                          ref->anchor_edges, oracle, tracer);
  report.Check("solves match 1-thread anchors and oracle gain",
               plain.solves + traced.solves, plain.wrong + traced.wrong);
  report.Metric("", "solve_ms untraced", plain.wide_ms.Median(), "ms",
                plain.wide_ms.size(), plain.wide_ms.Range());
  report.Metric("", "solve_ms traced", traced.wide_ms.Median(), "ms",
                traced.wide_ms.size(), traced.wide_ms.Range());

  ProbeColdBuild(g, tracer);
  report.Check("round-state recompute == incremental",
               ref->anchor_edges.size(),
               ProbeRounds(g, engine->Decomposition(), ref->anchor_edges, tracer)
                   ? 0
                   : ref->anchor_edges.size());
  atr::Rng rng(args.seed ^ 0x5eedu);
  for (int i = 0; i < 8; ++i) {
    ProbeUpdate(g, engine->Decomposition(), MakeDelta(g, rng, 4), tracer);
  }
  report.Check("probe server", 1, ProbeServer(g, true, tracer) ? 0 : 1);
  ProbeParallelFor(threads, tracer);
  ReportLayers(tracer, plain.wide_ms, traced.wide_ms, report);
}

}  // namespace perfbench
