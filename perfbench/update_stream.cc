// update_stream: incremental maintenance under a write stream. Seeded small
// GraphDelta batches (adds and removes) go through AtrService::UpdateGraph
// on the patents stand-in, each followed by a Snapshot read (timed
// together as one operation); every
// kColdEvery-th operation instead registers a freshly generated graph and
// times its first Snapshot, a cold decomposition. truss is used through
// incremental maintenance and the cold flat peel, graph through ApplyEdits;
// route and tree stay idle.

#include <memory>

#include "api/engine.h"
#include "api/service.h"
#include "graph/generators/social_profiles.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kScale = 0.2;
constexpr int kFreshGraphs = 3;
constexpr int kColdEvery = 10;
constexpr int kEditsPerDelta = 4;

struct Setup {
  std::unique_ptr<atr::AtrService> service;
  std::vector<atr::Graph> fresh;
};

Setup MakeSetup(uint64_t seed) {
  Setup s;
  atr::AtrService::Options options;
  options.workers = Threads();
  s.service = std::make_unique<atr::AtrService>(options);
  if (!s.service->AddGraph("main", atr::MakeSocialProfile("patents", kScale,
                                                          seed))
           .ok() ||
      !s.service->Snapshot("main").ok()) {
    s.service.reset();
    return s;
  }
  for (int i = 0; i < kFreshGraphs; ++i) {
    s.fresh.push_back(atr::MakeSocialProfile("patents", kScale,
                                             seed * 7919 + 1 + i));
  }
  return s;
}

struct StreamSamples {
  Samples update_ms;
  Samples cold_ms;
  double wall_s = 0.0;
  uint64_t updates = 0;
  uint64_t update_failures = 0;
  uint64_t colds = 0;
  uint64_t cold_mismatches = 0;
};

StreamSamples TimedStream(atr::AtrService& service,
                          const std::vector<atr::Graph>& fresh,
                          const std::vector<atr::TrussDecomposition>& oracles,
                          atr::Rng& rng, double seconds, Tracer& tracer) {
  StreamSamples out;
  atr::StatusOr<atr::GraphSnapshot> current = service.Snapshot("main");
  if (!current.ok()) {
    ++out.update_failures;
    return out;
  }
  const Clock::time_point start = Clock::now();
  for (uint64_t op = 0; MsSince(start) < seconds * 1000.0; ++op) {
    if (op % kColdEvery == kColdEvery - 1) {
      const size_t i = out.colds % fresh.size();
      const std::string name = "fresh-" + std::to_string(out.colds);
      ++out.colds;
      if (!service.AddGraph(name, fresh[i]).ok()) {
        ++out.cold_mismatches;
        continue;
      }
      if (tracer.enabled()) ProbeColdBuild(fresh[i], tracer);
      const Clock::time_point t0 = Clock::now();
      atr::StatusOr<atr::GraphSnapshot> cold = service.Snapshot(name);
      out.cold_ms.Add(MsSince(t0));
      if (!cold.ok() || cold->decomposition->trussness != oracles[i].trussness ||
          cold->decomposition->layer != oracles[i].layer ||
          cold->decomposition->max_trussness != oracles[i].max_trussness) {
        ++out.cold_mismatches;
      }
      if (!service.RemoveGraph(name).ok()) ++out.cold_mismatches;
      continue;
    }
    const atr::GraphDelta delta =
        MakeDelta(*current->graph, rng, kEditsPerDelta);
    if (tracer.enabled() && op % 4 == 0) {
      ProbeUpdate(*current->graph, *current->decomposition, delta, tracer);
    }
    // One timed operation: the write plus the read that observes it.
    const Clock::time_point t0 = Clock::now();
    atr::StatusOr<atr::GraphSnapshot> next = [&] {
      ScopedSpan span(tracer, "api.update_graph");
      return service.UpdateGraph("main", delta);
    }();
    {
      ScopedSpan span(tracer, "api.snapshot");
      current = service.Snapshot("main");
    }
    out.update_ms.Add(MsSince(t0));
    ++out.updates;
    if (!next.ok() || !current.ok() || current->version != next->version) {
      ++out.update_failures;
      current = service.Snapshot("main");
      if (!current.ok()) break;
    }
  }
  out.wall_s = MsSince(start) / 1000.0;
  return out;
}

}  // namespace

void RunUpdateStream(const Args& args, Tracer& tracer, Report& report) {
  Samples setup_s;
  Setup setup;
  while (MoreSetups(setup_s, args)) {
    setup = Setup();  // tear the previous set-up down outside the timer
    const Clock::time_point t0 = Clock::now();
    setup = MakeSetup(args.seed);
    setup_s.Add(MsSince(t0) / 1000.0);
    if (setup.service == nullptr) {
      report.Check("setup", 1, 1);
      return;
    }
  }
  atr::AtrService& service = *setup.service;
  std::vector<atr::TrussDecomposition> oracles;
  for (const atr::Graph& g : setup.fresh) {
    oracles.push_back(atr::ComputeTrussDecompositionSerial(g));
  }
  {
    const atr::StatusOr<atr::AtrService::GraphInfo> info = service.Info("main");
    report.Note("graph patents@" + std::to_string(kScale) + ": " +
                std::to_string(info.ok() ? info->num_edges : 0) +
                " edges; deltas of " + std::to_string(kEditsPerDelta) +
                " edits; a cold build every " + std::to_string(kColdEvery) +
                " operations");
  }

  atr::Rng rng(args.seed ^ 0xde17au);
  Tracer off(false);
  StreamSamples plain;
  StreamSamples traced;
  if (args.trace) {
    plain = TimedStream(service, setup.fresh, oracles, rng, args.seconds / 2,
                        off);
    traced = TimedStream(service, setup.fresh, oracles, rng, args.seconds / 2,
                         tracer);
  } else {
    plain = TimedStream(service, setup.fresh, oracles, rng, args.seconds, off);
  }

  // The served decomposition after the whole stream must equal a
  // from-scratch serial decomposition of the final graph.
  atr::StatusOr<atr::GraphSnapshot> final_snapshot = service.Snapshot("main");
  bool final_ok = final_snapshot.ok();
  if (final_ok) {
    const atr::TrussDecomposition oracle =
        atr::ComputeTrussDecompositionSerial(*final_snapshot->graph);
    final_ok = oracle.trussness == final_snapshot->decomposition->trussness &&
               oracle.layer == final_snapshot->decomposition->layer &&
               oracle.max_trussness ==
                   final_snapshot->decomposition->max_trussness;
  }
  report.Check("final served decomposition == serial oracle", 1,
               final_ok ? 0 : 1);
  report.Check("UpdateGraph + Snapshot", plain.updates + traced.updates,
               plain.update_failures + traced.update_failures);
  report.Check("cold builds == serial oracle", plain.colds + traced.colds,
               plain.cold_mismatches + traced.cold_mismatches);

  if (!args.trace) {
    report.Metric("setup_s", "setup_s", setup_s.Median(), "s", setup_s.size());
    report.Metric("p50_ms", "update_ms_p50", plain.update_ms.Median(), "ms",
                  plain.update_ms.size(), plain.update_ms.Range());
    report.Metric("tail_ms", "update_ms_p90", plain.update_ms.Tail(), "ms",
                  plain.update_ms.size());
    report.Metric("", "update_ms_p99", plain.update_ms.Quantile(0.99), "ms",
                  plain.update_ms.size());
    report.Metric("ops_per_s", "updates_per_s",
                  static_cast<double>(plain.updates) / plain.wall_s, "1/s",
                  plain.updates);
    report.Metric("secondary_ms", "cold_build_ms", plain.cold_ms.Median(),
                  "ms", plain.cold_ms.size(), plain.cold_ms.Range());
    report.Metric("peak_rss_mb", "peak_rss_mb", PeakRssMb(), "MB", 1);
    return;
  }

  report.Metric("", "update_ms_p50 untraced", plain.update_ms.Median(), "ms",
                plain.update_ms.size(), plain.update_ms.Range());
  report.Metric("", "update_ms_p50 traced", traced.update_ms.Median(), "ms",
                traced.update_ms.size(), traced.update_ms.Range());
  if (!final_snapshot.ok()) return;
  // Layers this workload's own calls leave idle, probed on its graph.
  const atr::Graph& g = *final_snapshot->graph;
  atr::AtrEngine engine(final_snapshot->graph, final_snapshot->decomposition);
  atr::StatusOr<atr::SolveResult> solve =
      engine.Run("gas", GasOptions(4, Threads(), tracer));
  report.Check("probe gas solve", 1, solve.ok() ? 0 : 1);
  if (solve.ok()) {
    CountSolve(*solve, tracer);
    report.Check("round-state recompute == incremental", 1,
                 ProbeRounds(g, *final_snapshot->decomposition,
                             solve->anchor_edges, tracer)
                     ? 0
                     : 1);
  }
  report.Check("probe server", 1, ProbeServer(g, false, tracer) ? 0 : 1);
  ProbeParallelFor(Threads(), tracer);
  ReportLayers(tracer, plain.update_ms, traced.update_ms, report);
}

}  // namespace perfbench
