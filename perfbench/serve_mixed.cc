// serve_mixed: closed-loop serving. nproc AtrClient connections, one thread
// each, talk to an in-process AtrServer (nproc workers) on loopback and
// wait for every reply, the atr_client pattern. Traffic: Zipf(1.1) over six
// Holme-Kim graphs of 1000 vertices; GAS budget sweeps 1-4 (fusable, and
// repeating over time); 10% `rand` baselines; 5% UpdateGraph writes. The
// only workload through net, admission, the scheduler and fusion; writes
// beside reads expose invalidation costs of any per-version cache.

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "api/engine.h"
#include "graph/generators/generators.h"
#include "net/client.h"
#include "net/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kGraphs = 6;
constexpr uint32_t kVertices = 1000;
constexpr double kWriteShare = 0.05;
constexpr double kRandShare = 0.10;
constexpr uint32_t kMaxBudget = 4;

std::string GraphName(int i) { return "hk" + std::to_string(i); }

// Zipf(1.1) CDF over the graphs: graph 0 is the hottest.
std::vector<double> ZipfCdf() {
  std::vector<double> cdf(kGraphs);
  double sum = 0.0;
  for (int i = 0; i < kGraphs; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), 1.1);
    cdf[i] = sum;
  }
  for (double& c : cdf) c /= sum;
  return cdf;
}

struct Server {
  std::unique_ptr<atr::net::AtrServer> server;
  std::vector<atr::net::AtrClient> clients;
};

Server StartServer(uint64_t seed, int clients) {
  Server s;
  atr::net::AtrServer::Options options;
  options.workers = Threads();
  s.server = std::make_unique<atr::net::AtrServer>(options);
  bool ok = s.server->Start().ok();
  for (int i = 0; ok && i < kGraphs; ++i) {
    ok = s.server
             ->AddGraph(GraphName(i),
                        atr::HolmeKimGraph(kVertices, 5, 0.5,
                                           seed * 131 + static_cast<uint64_t>(i)))
             .ok() &&
         s.server->service().Snapshot(GraphName(i)).ok();
  }
  for (int i = 0; ok && i < clients; ++i) {
    s.clients.emplace_back();
    ok = s.clients.back().Connect("127.0.0.1", s.server->port()).ok();
  }
  if (!ok) s.server.reset();
  return s;
}

struct ClientSamples {
  Samples job_ms;
  Samples write_ms;
  uint64_t jobs = 0;
  uint64_t writes = 0;
  uint64_t bad = 0;
  // Traced phase only: each write's base version and delta, replayed
  // through the layer calls behind UpdateGraph once the phase has ended.
  std::vector<std::pair<atr::GraphSnapshot, atr::GraphDelta>> write_log;
};

bool WellFormed(const atr::StatusOr<atr::net::WireSolveResult>& r,
                const std::string& solver, uint32_t budget,
                size_t checkpoints) {
  if (!r.ok() || r->solver != solver || r->stopped_early ||
      r->anchor_edges.size() != budget || r->seconds < 0.0 ||
      r->gain_at_checkpoint.size() != checkpoints ||
      r->gain_at_checkpoint.back() != r->total_gain) {
    return false;
  }
  for (size_t i = 1; i < checkpoints; ++i) {
    if (r->gain_at_checkpoint[i] < r->gain_at_checkpoint[i - 1]) return false;
  }
  return true;
}

void ClientLoop(int index, uint64_t seed, Clock::time_point deadline,
                atr::net::AtrServer& server, atr::net::AtrClient& client,
                std::vector<std::mutex>& graph_mu, Tracer& tracer,
                ClientSamples& out) {
  const std::vector<double> cdf = ZipfCdf();
  atr::Rng rng(seed * 1000003 + static_cast<uint64_t>(index));
  uint64_t request = static_cast<uint64_t>(index) << 40;
  while (Clock::now() < deadline) {
    const double pick = rng.NextDouble();
    int g = 0;
    while (g + 1 < kGraphs && pick > cdf[g]) ++g;
    const std::string name = GraphName(g);
    // Client 0 opens every phase with a write, so even a short phase
    // exercises the write path.
    const double kind =
        index == 0 && out.jobs + out.writes == 0 ? 0.0 : rng.NextDouble();

    if (kind < kWriteShare) {
      // One writer per graph at a time, so the delta is built against the
      // version it will be applied to.
      std::lock_guard<std::mutex> lock(graph_mu[g]);
      const atr::StatusOr<atr::GraphSnapshot> snap = [&] {
        ScopedSpan span(tracer, "api.snapshot");
        return server.service().Snapshot(name);
      }();
      if (!snap.ok()) {
        ++out.bad;
        continue;
      }
      const atr::GraphDelta delta = MakeDelta(*snap->graph, rng, 4);
      if (tracer.enabled()) out.write_log.emplace_back(*snap, delta);
      const Clock::time_point t0 = Clock::now();
      const atr::StatusOr<atr::net::UpdateGraphResponse> r =
          client.UpdateGraph(name, delta);
      out.write_ms.Add(MsSince(t0));
      ++out.writes;
      if (!r.ok() || r->version != snap->version + 1) ++out.bad;
      continue;
    }

    const bool rand = kind < kWriteShare + kRandShare;
    const std::string solver = rand ? "rand" : "gas";
    atr::net::WireSolverOptions wire;
    wire.budget = 1 + static_cast<uint32_t>(rng.NextBounded(kMaxBudget));
    if (rand) {
      wire.trials = 10;
      wire.seed = 1 + rng.NextBounded(8);
    } else {
      for (uint32_t b = 1; b <= wire.budget; ++b) {
        wire.budget_checkpoints.push_back(b);
      }
    }
    ++request;
    const Clock::time_point t0 = Clock::now();
    ScopedSpan job_span(tracer, "serve.job", request);
    const atr::StatusOr<uint64_t> job = [&] {
      ScopedSpan span(tracer, "net.submit", request, job_span.id());
      return client.Submit(name, solver, wire);
    }();
    if (!job.ok() && job.status().code() == atr::StatusCode::kResourceExhausted) {
      tracer.Count("api.rejected", 1.0);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(client.last_retry_after_ms()));
      continue;
    }
    const atr::StatusOr<atr::net::WireSolveResult> result = [&] {
      ScopedSpan span(tracer, "net.wait", request, job_span.id());
      return job.ok() ? client.Wait(*job)
                      : atr::StatusOr<atr::net::WireSolveResult>(job.status());
    }();
    const double ms = MsSince(t0);
    out.job_ms.Add(ms);
    ++out.jobs;
    if (!WellFormed(result, solver, wire.budget,
                    std::max<size_t>(1, wire.budget_checkpoints.size()))) {
      ++out.bad;
    } else if (tracer.enabled()) {
      tracer.Count("api.solve_ms", result->seconds * 1000.0);
      tracer.Count("api.queue_wait_ms", ms - result->seconds * 1000.0);
      if (out.jobs % 10 == 1) {
        ScopedSpan span(tracer, "net.ping", request, job_span.id());
        if (!client.Ping().ok()) ++out.bad;
      }
    }
  }
}

struct PhaseSamples {
  ClientSamples all;
  double wall_s = 0.0;
  double batches_per_job = 0.0;
};

PhaseSamples TimedPhase(Server& s, uint64_t seed, double seconds,
                        Tracer& tracer) {
  const atr::AtrService::SchedulerStats before = s.server->service().Stats();
  std::vector<std::mutex> graph_mu(kGraphs);
  std::vector<ClientSamples> per_client(s.clients.size());
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  std::vector<std::thread> threads;
  for (size_t i = 0; i < s.clients.size(); ++i) {
    threads.emplace_back([&, i] {
      ClientLoop(static_cast<int>(i), seed, deadline, *s.server, s.clients[i],
                 graph_mu, tracer, per_client[i]);
    });
  }
  for (std::thread& t : threads) t.join();
  PhaseSamples out;
  out.wall_s = MsSince(start) / 1000.0;
  for (const ClientSamples& c : per_client) {
    out.all.job_ms.Append(c.job_ms);
    out.all.write_ms.Append(c.write_ms);
    out.all.jobs += c.jobs;
    out.all.writes += c.writes;
    out.all.bad += c.bad;
    out.all.write_log.insert(out.all.write_log.end(), c.write_log.begin(),
                             c.write_log.end());
  }
  const atr::AtrService::SchedulerStats after = s.server->service().Stats();
  if (after.jobs_executed > before.jobs_executed) {
    out.batches_per_job =
        static_cast<double>(after.batches_executed - before.batches_executed) /
        static_cast<double>(after.jobs_executed - before.jobs_executed);
  }
  return out;
}

}  // namespace

void RunServeMixed(const Args& args, Tracer& tracer, Report& report) {
  const int clients = Threads();
  Samples setup_s;
  Server s;
  while (MoreSetups(setup_s, args)) {
    if (s.server != nullptr && !s.server->Stop().ok()) {
      report.Check("server stop", 1, 1);
    }
    s = Server();
    const Clock::time_point t0 = Clock::now();
    s = StartServer(args.seed, clients);
    setup_s.Add(MsSince(t0) / 1000.0);
    if (s.server == nullptr) {
      report.Check("server start", 1, 1);
      return;
    }
  }
  report.Note(std::to_string(clients) + " closed-loop clients, " +
              std::to_string(Threads()) + " workers, " +
              std::to_string(kGraphs) + " Holme-Kim graphs of " +
              std::to_string(kVertices) + " vertices");

  Tracer off(false);
  PhaseSamples plain;
  PhaseSamples traced;
  if (args.trace) {
    // Both halves draw their requests from the same seed, and the write
    // mirror runs after the traced half, so traced minus untraced reflects
    // only the spans.
    plain = TimedPhase(s, args.seed, args.seconds / 2, off);
    traced = TimedPhase(s, args.seed, args.seconds / 2, tracer);
    for (const auto& [snap, delta] : traced.all.write_log) {
      ProbeUpdate(*snap.graph, *snap.decomposition, delta, tracer);
    }
  } else {
    plain = TimedPhase(s, args.seed, args.seconds, off);
  }
  report.Check("replies well formed, writes applied",
               plain.all.jobs + plain.all.writes + traced.all.jobs +
                   traced.all.writes,
               plain.all.bad + traced.all.bad);

  // One wire solve per graph must equal a local solve of its final version.
  uint64_t mismatches = 0;
  std::vector<atr::EdgeId> hot_anchors;
  for (int i = 0; i < kGraphs; ++i) {
    const atr::StatusOr<atr::GraphSnapshot> snap =
        s.server->service().Snapshot(GraphName(i));
    if (!snap.ok()) {
      ++mismatches;
      continue;
    }
    atr::AtrEngine engine(snap->graph, snap->decomposition);
    const atr::StatusOr<atr::SolveResult> local =
        engine.Run("gas", GasOptions(kMaxBudget, Threads(), tracer));
    atr::net::WireSolverOptions wire;
    wire.budget = kMaxBudget;
    const atr::StatusOr<uint64_t> job =
        s.clients[0].Submit(GraphName(i), "gas", wire);
    const atr::StatusOr<atr::net::WireSolveResult> remote =
        job.ok() ? s.clients[0].Wait(*job)
                 : atr::StatusOr<atr::net::WireSolveResult>(job.status());
    if (!local.ok() || !remote.ok() ||
        remote->anchor_edges != local->anchor_edges ||
        remote->total_gain != local->total_gain) {
      ++mismatches;
      continue;
    }
    CountSolve(*local, tracer);
    if (i == 0) hot_anchors = local->anchor_edges;
  }
  report.Check("wire solve == local solve of final snapshot", kGraphs,
               mismatches);

  if (!args.trace) {
    report.Metric("setup_s", "setup_s", setup_s.Median(), "s", setup_s.size());
    report.Metric("p50_ms", "job_ms_p50", plain.all.job_ms.Median(), "ms",
                  plain.all.job_ms.size(), plain.all.job_ms.Range());
    report.Metric("tail_ms", "job_ms_p90", plain.all.job_ms.Tail(), "ms",
                  plain.all.job_ms.size());
    report.Metric("", "job_ms_p99", plain.all.job_ms.Quantile(0.99), "ms",
                  plain.all.job_ms.size());
    report.Metric("ops_per_s", "jobs_per_s",
                  static_cast<double>(plain.all.jobs) / plain.wall_s, "1/s",
                  plain.all.jobs);
    report.Metric("secondary_ms", "write_ms_p50", plain.all.write_ms.Median(),
                  "ms", plain.all.write_ms.size(), plain.all.write_ms.Range());
    report.Metric("peak_rss_mb", "peak_rss_mb", PeakRssMb(), "MB", 1);
  } else {
    report.Metric("", "job_ms_p50 untraced", plain.all.job_ms.Median(), "ms",
                  plain.all.job_ms.size(), plain.all.job_ms.Range());
    report.Metric("", "job_ms_p50 traced", traced.all.job_ms.Median(), "ms",
                  traced.all.job_ms.size(), traced.all.job_ms.Range());
    tracer.Count("api.batches_per_job", traced.batches_per_job);
    tracer.Count("api.rejected", 0.0);  // a sample even when none were rejected
    const atr::StatusOr<atr::GraphSnapshot> hot =
        s.server->service().Snapshot(GraphName(0));
    if (hot.ok()) {
      ProbeColdBuild(*hot->graph, tracer);
      report.Check("round-state recompute == incremental", 1,
                   ProbeRounds(*hot->graph, *hot->decomposition, hot_anchors,
                               tracer)
                       ? 0
                       : 1);
    }
    ProbeParallelFor(Threads(), tracer);
    ReportLayers(tracer, plain.all.job_ms, traced.all.job_ms, report);
  }
  s.clients.clear();
  if (!s.server->Stop().ok()) report.Check("server stop", 1, 1);
}

}  // namespace perfbench
