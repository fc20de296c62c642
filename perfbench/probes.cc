#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <thread>

#include "api/service.h"
#include "graph/flat_view.h"
#include "graph/triangles.h"
#include "net/client.h"
#include "net/server.h"
#include "route/follower_search.h"
#include "tree/component_tree.h"
#include "truss/incremental.h"
#include "util/parallel_for.h"
#include "workloads.h"

namespace perfbench {

using atr::EdgeId;
using atr::Graph;
using atr::TrussDecomposition;

int Threads() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

atr::GraphDelta MakeDelta(const Graph& g, atr::Rng& rng, int edits) {
  atr::GraphDelta delta;
  const int removes = edits / 2;
  std::vector<EdgeId> picked;
  while (static_cast<int>(picked.size()) < removes) {
    const EdgeId e = static_cast<EdgeId>(rng.NextBounded(g.NumEdges()));
    if (std::find(picked.begin(), picked.end(), e) != picked.end()) continue;
    picked.push_back(e);
    delta.remove.push_back(g.Edge(e));
  }
  // Triangle-closing additions: u - v - w becomes a triangle via {u, w}.
  // Bounded attempts keep the stream deterministic on sparse graphs.
  for (int attempt = 0;
       static_cast<int>(delta.add.size()) < edits - removes && attempt < 64;
       ++attempt) {
    const atr::EdgeEndpoints uv =
        g.Edge(static_cast<EdgeId>(rng.NextBounded(g.NumEdges())));
    const auto nbrs = g.Neighbors(uv.v);
    const atr::VertexId w = nbrs[rng.NextBounded(nbrs.size())].neighbor;
    if (w == uv.u || g.HasEdge(uv.u, w)) continue;
    const atr::EdgeEndpoints add{std::min(uv.u, w), std::max(uv.u, w)};
    const bool dup = std::any_of(
        delta.add.begin(), delta.add.end(),
        [&](const atr::EdgeEndpoints& a) { return a.u == add.u && a.v == add.v; });
    if (!dup) delta.add.push_back(add);
  }
  return delta;
}

atr::SolverOptions GasOptions(uint32_t budget, int threads, Tracer& tracer) {
  atr::SolverOptions options;
  options.budget = budget;
  options.threads = threads;
  if (tracer.enabled()) {
    auto last = std::make_shared<double>(0.0);
    options.progress = [&tracer, last](const atr::SolveProgress& p) {
      tracer.Count("core.round_ms", (p.elapsed_seconds - *last) * 1000.0);
      *last = p.elapsed_seconds;
      return true;
    };
  }
  return options;
}

void CountSolve(const atr::SolveResult& result, Tracer& tracer) {
  tracer.Count("core.rounds", static_cast<double>(result.rounds.size()));
  const double all = static_cast<double>(result.fully_reusable +
                                         result.partially_reusable +
                                         result.non_reusable);
  if (all > 0.0) {
    tracer.Count("core.reuse_frac",
                 static_cast<double>(result.fully_reusable +
                                     result.partially_reusable) /
                     all);
  }
}

void ProbeColdBuild(const Graph& g, Tracer& tracer) {
  {
    ScopedSpan span(tracer, "graph.view_build");
    const atr::FlatGraphView view = atr::FlatGraphView::Build(g);
    if (view.num_edges != g.NumEdges()) std::abort();
  }
  {
    ScopedSpan span(tracer, "graph.support_sweep");
    const std::vector<uint32_t> support = atr::ComputeSupport(g);
    if (support.size() != g.NumEdges()) std::abort();
  }
  ScopedSpan span(tracer, "truss.cold_decompose");
  const TrussDecomposition d = atr::ComputeTrussDecomposition(g);
  if (d.trussness.size() != g.NumEdges()) std::abort();
}

bool ProbeRounds(const Graph& g, const TrussDecomposition& base,
                 const std::vector<EdgeId>& anchors, Tracer& tracer) {
  bool consistent = true;
  atr::IncrementalTruss inc(g, base);
  std::vector<bool> anchored(g.NumEdges(), false);
  atr::FollowerSearch search(g);
  atr::TrussComponentTree tree;
  for (size_t round = 0; round < anchors.size(); ++round) {
    {
      ScopedSpan span(tracer, "truss.decompose");
      const TrussDecomposition recomputed =
          atr::ComputeTrussDecomposition(g, anchored);
      consistent = consistent &&
                   recomputed.trussness == inc.decomposition().trussness &&
                   recomputed.layer == inc.decomposition().layer;
    }
    {
      ScopedSpan span(tracer, "tree.build");
      tree.Build(g, inc.decomposition(), anchored);
    }
    tracer.Count("tree.nodes", static_cast<double>(tree.nodes().size()));

    search.SetState(&inc.decomposition(), &anchored);
    std::vector<EdgeId> candidates;
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      if (!anchored[e] && inc.IsAlive(e)) candidates.push_back(e);
    }
    uint64_t followers = 0;
    {
      ScopedSpan span(tracer, "route.eval");
      for (const EdgeId e : candidates) followers += search.CountFollowers(e);
    }
    tracer.Count("route.candidates", static_cast<double>(candidates.size()));
    tracer.Count("route.followers", static_cast<double>(followers));
    if (round == 0) {
      uint64_t route = 0;
      for (const EdgeId e : candidates) route += search.RouteSize(e);
      tracer.Count("route.route_edges",
                   static_cast<double>(route) /
                       static_cast<double>(std::max<size_t>(1, candidates.size())));
    }

    ScopedSpan span(tracer, "truss.incremental_apply");
    inc.ApplyAnchor(anchors[round]);
    anchored[anchors[round]] = true;
  }
  return consistent;
}

void ProbeUpdate(const Graph& prev, const TrussDecomposition& decomp,
                 const atr::GraphDelta& delta, Tracer& tracer) {
  atr::StatusOr<atr::GraphEditResult> edited = [&] {
    ScopedSpan span(tracer, "graph.apply_edits");
    return prev.ApplyEdits(delta);
  }();
  if (!edited.ok()) return;

  atr::IncrementalTruss retire(prev, decomp);
  for (EdgeId e = 0; e < prev.NumEdges(); ++e) {
    if (edited->edge_remap[e] != atr::kInvalidEdge) continue;
    ScopedSpan span(tracer, "truss.incremental_update");
    retire.RemoveEdge(e);
  }
  TrussDecomposition carried;
  carried.trussness.assign(edited->graph.NumEdges(), atr::kTrussnessNotComputed);
  carried.layer.assign(edited->graph.NumEdges(), 0);
  carried.max_trussness = retire.decomposition().max_trussness;
  for (EdgeId e = 0; e < prev.NumEdges(); ++e) {
    const EdgeId mapped = edited->edge_remap[e];
    if (mapped == atr::kInvalidEdge) continue;
    carried.trussness[mapped] = retire.decomposition().trussness[e];
    carried.layer[mapped] = retire.decomposition().layer[e];
  }
  atr::IncrementalTruss insert(edited->graph, std::move(carried));
  for (const EdgeId e : edited->added_edges) {
    ScopedSpan span(tracer, "truss.incremental_update");
    insert.InsertEdge(e);
  }
  const uint64_t ops = retire.stats().edges_removed + insert.stats().edges_inserted;
  if (ops > 0) {
    tracer.Count("truss.region_edges",
                 static_cast<double>(retire.stats().region_edges_total +
                                     insert.stats().region_edges_total) /
                     static_cast<double>(ops));
  }
}

bool ProbeServer(const Graph& g, bool snapshots, Tracer& tracer) {
  atr::net::AtrServer::Options options;
  options.workers = Threads();
  atr::net::AtrServer server(options);
  if (!server.Start().ok() || !server.AddGraph("probe", g).ok()) return false;
  bool ok = server.service().Snapshot("probe").ok();  // builds once, untimed
  atr::net::AtrClient client;
  ok = ok && client.Connect("127.0.0.1", server.port()).ok();
  for (int i = 0; ok && i < 50; ++i) {
    ScopedSpan span(tracer, "net.ping");
    ok = client.Ping().ok();
  }
  const atr::AtrService::SchedulerStats before = server.service().Stats();
  for (uint32_t i = 0; ok && i < 8; ++i) {
    atr::net::WireSolverOptions wire;
    wire.budget = 1;
    wire.trials = 2;
    wire.seed = i + 1;
    const Clock::time_point t0 = Clock::now();
    atr::StatusOr<uint64_t> job = [&] {
      ScopedSpan span(tracer, "net.submit");
      return client.Submit("probe", "rand", wire);
    }();
    if (!job.ok()) {
      if (job.status().code() == atr::StatusCode::kResourceExhausted) {
        tracer.Count("api.rejected", 1.0);
        continue;
      }
      ok = false;
      break;
    }
    atr::StatusOr<atr::net::WireSolveResult> result = client.Wait(*job);
    const double reply_ms = MsSince(t0);
    ok = result.ok() && result->anchor_edges.size() == 1;
    if (ok) {
      tracer.Count("api.solve_ms", result->seconds * 1000.0);
      tracer.Count("api.queue_wait_ms", reply_ms - result->seconds * 1000.0);
    }
  }
  const atr::AtrService::SchedulerStats after = server.service().Stats();
  if (after.jobs_executed > before.jobs_executed) {
    tracer.Count("api.batches_per_job",
                 static_cast<double>(after.batches_executed -
                                     before.batches_executed) /
                     static_cast<double>(after.jobs_executed -
                                         before.jobs_executed));
  }
  tracer.Count("api.rejected", 0.0);  // a sample even when none were rejected
  for (int i = 0; ok && snapshots && i < 50; ++i) {
    ScopedSpan span(tracer, "api.snapshot");
    ok = server.service().Snapshot("probe").ok();
  }
  client.Close();
  return server.Stop().ok() && ok;
}

void ProbeParallelFor(int threads, Tracer& tracer) {
  atr::ScopedParallelism scope(threads);
  for (int i = 0; i < 200; ++i) {
    ScopedSpan span(tracer, "util.parallel_for");
    atr::ParallelFor(threads * 64, [](int64_t, int64_t) {});
  }
}

namespace {

enum class Stat { kSpanMedian, kCountMedian, kCountMean, kCountSum };

struct LayerMetric {
  const char* key;
  const char* source;  // span or count name
  Stat stat;
  double scale;  // span ms -> metric unit
  const char* unit;
};

// Every per-layer key of BENCHMARK.json and where its value comes from.
constexpr LayerMetric kLayerMetrics[] = {
    {"core.round_ms", "core.round_ms", Stat::kCountMedian, 1.0, "ms"},
    {"core.rounds", "core.rounds", Stat::kCountMean, 1.0, "count"},
    {"core.reuse_frac", "core.reuse_frac", Stat::kCountMean, 1.0, "ratio"},
    {"route.eval_ms", "route.eval", Stat::kSpanMedian, 1.0, "ms"},
    {"route.candidates", "route.candidates", Stat::kCountMean, 1.0, "count"},
    {"route.route_edges", "route.route_edges", Stat::kCountMean, 1.0, "count"},
    {"route.followers", "route.followers", Stat::kCountMean, 1.0, "count"},
    {"tree.build_ms", "tree.build", Stat::kSpanMedian, 1.0, "ms"},
    {"tree.nodes", "tree.nodes", Stat::kCountMean, 1.0, "count"},
    {"truss.decompose_ms", "truss.decompose", Stat::kSpanMedian, 1.0, "ms"},
    {"truss.incremental_apply_us", "truss.incremental_apply",
     Stat::kSpanMedian, 1000.0, "us"},
    {"truss.cold_decompose_ms", "truss.cold_decompose", Stat::kSpanMedian,
     1.0, "ms"},
    {"truss.incremental_update_us", "truss.incremental_update",
     Stat::kSpanMedian, 1000.0, "us"},
    {"truss.region_edges", "truss.region_edges", Stat::kCountMean, 1.0,
     "count"},
    {"graph.view_build_ms", "graph.view_build", Stat::kSpanMedian, 1.0, "ms"},
    {"graph.support_sweep_ms", "graph.support_sweep", Stat::kSpanMedian, 1.0,
     "ms"},
    {"graph.apply_edits_ms", "graph.apply_edits", Stat::kSpanMedian, 1.0,
     "ms"},
    {"api.snapshot_ms", "api.snapshot", Stat::kSpanMedian, 1.0, "ms"},
    {"api.queue_wait_ms", "api.queue_wait_ms", Stat::kCountMedian, 1.0, "ms"},
    {"api.solve_ms", "api.solve_ms", Stat::kCountMedian, 1.0, "ms"},
    {"api.batches_per_job", "api.batches_per_job", Stat::kCountMean, 1.0,
     "ratio"},
    {"api.rejected", "api.rejected", Stat::kCountSum, 1.0, "count"},
    {"net.ping_ms", "net.ping", Stat::kSpanMedian, 1.0, "ms"},
    {"net.submit_ms", "net.submit", Stat::kSpanMedian, 1.0, "ms"},
    {"util.parallel_for_us", "util.parallel_for", Stat::kSpanMedian, 1000.0,
     "us"},
};

}  // namespace

void ReportLayers(const Tracer& tracer, const Samples& untraced_ms,
                  const Samples& traced_ms, Report& report) {
  for (const LayerMetric& m : kLayerMetrics) {
    const bool span = m.stat == Stat::kSpanMedian;
    const Samples s = span ? tracer.Durations(m.source) : tracer.Counts(m.source);
    double value = 0.0;
    switch (m.stat) {
      case Stat::kSpanMedian:
      case Stat::kCountMedian: value = s.Median(); break;
      case Stat::kCountMean: value = s.Mean(); break;
      case Stat::kCountSum: value = s.Sum(); break;
    }
    if (s.empty()) report.Check(std::string("layer measured: ") + m.key, 1, 1);
    report.Metric(m.key, m.key, value * m.scale, m.unit, s.size());
  }
  const double overhead_ms = traced_ms.Median() - untraced_ms.Median();
  report.Metric("bench.trace_overhead_ms", "bench.trace_overhead_ms",
                overhead_ms, "ms", traced_ms.size());
  report.Metric("bench.trace_overhead_frac", "bench.trace_overhead_frac",
                overhead_ms / untraced_ms.Median(), "ratio", traced_ms.size());
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
