// Tests for the FairScheduler (util/scheduler.h) and its integration into
// AtrService: FIFO-within-tenant dispatch, priority buckets, weighted
// deficit round-robin fairness (including a flood/starvation scenario),
// capacity backpressure, shutdown semantics, idle-tenant cleanup, and — at
// the service layer — the differential guarantee that memo-answered and
// multi-tenant execution on one pool stays byte-identical to a serial
// AtrEngine oracle for every registered solver.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "api/service.h"
#include "graph/generators/generators.h"
#include "net/wire.h"
#include "util/parallel_for.h"
#include "util/scheduler.h"
#include "util/status.h"

namespace atr {
namespace {

// One-shot signal for deterministic cross-thread choreography.
class Latch {
 public:
  void Set() {
    std::lock_guard<std::mutex> lock(mu_);
    set_ = true;
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return set_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool set_ = false;
};

// Payload for unit tests: an id the recorder logs, plus an optional body
// the runner executes (used by the blocker job that parks the worker).
struct TestJob {
  int id = 0;
  std::function<void()> body;
};

// Single-worker harness: a blocker job parks the lone worker on a latch
// while the test enqueues its real jobs, so the dispatch order observed
// after release is exactly the scheduler's queueing policy with no races.
class SchedulerHarness {
 public:
  explicit SchedulerHarness(FairScheduler::Options options) {
    options.workers = 1;
    scheduler_ = std::make_unique<FairScheduler>(
        options, [this](FairScheduler::Job job) {
          auto* payload = static_cast<TestJob*>(job.payload.get());
          if (payload->body) payload->body();
          std::lock_guard<std::mutex> lock(mu_);
          ids_.push_back(payload->id);
        });
  }

  FairScheduler& scheduler() { return *scheduler_; }

  // Submits the parking job and returns once the worker is inside it.
  void Block() {
    auto payload = std::make_shared<TestJob>();
    payload->id = kBlockerId;
    payload->body = [this] {
      entered_.Set();
      gate_.Wait();
    };
    ASSERT_TRUE(scheduler_->Submit({"", 0, payload}).ok());
    entered_.Wait();
  }

  void Release() { gate_.Set(); }

  Status Submit(const std::string& tenant, int priority, int id) {
    auto payload = std::make_shared<TestJob>();
    payload->id = id;
    return scheduler_->Submit({tenant, priority, payload});
  }

  // Executed ids in dispatch order, with the blocker filtered out.
  std::vector<int> Order() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<int> order;
    for (int id : ids_) {
      if (id != kBlockerId) order.push_back(id);
    }
    return order;
  }

  static constexpr int kBlockerId = -1;

 private:
  std::unique_ptr<FairScheduler> scheduler_;
  Latch entered_;
  Latch gate_;
  std::mutex mu_;
  std::vector<int> ids_;
};

TEST(FairSchedulerDispatch, FifoWithinOneTenant) {
  SchedulerHarness h({.capacity = 64});
  h.Block();
  for (int id = 1; id <= 5; ++id) {
    ASSERT_TRUE(h.Submit("acme", 0, id).ok());
  }
  h.Release();
  h.scheduler().WaitIdle();
  EXPECT_EQ(h.Order(), (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(FairSchedulerDispatch, HigherPriorityDrainsFirstFifoWithinBucket) {
  SchedulerHarness h({.capacity = 64});
  h.Block();
  ASSERT_TRUE(h.Submit("acme", 0, 1).ok());
  ASSERT_TRUE(h.Submit("acme", 5, 2).ok());
  ASSERT_TRUE(h.Submit("acme", 5, 3).ok());
  ASSERT_TRUE(h.Submit("acme", -1, 4).ok());
  ASSERT_TRUE(h.Submit("acme", 0, 5).ok());
  h.Release();
  h.scheduler().WaitIdle();
  // Bucket 5 FIFO, then bucket 0 FIFO, then bucket -1.
  EXPECT_EQ(h.Order(), (std::vector<int>{2, 3, 1, 5, 4}));
}

TEST(FairSchedulerDispatch, WeightedDeficitRoundRobin) {
  SchedulerHarness h({.capacity = 64});
  h.scheduler().SetTenantWeight("heavy", 2);
  h.Block();
  // heavy enters the ring first, then light.
  ASSERT_TRUE(h.Submit("heavy", 0, 10).ok());
  ASSERT_TRUE(h.Submit("light", 0, 20).ok());
  for (int id = 11; id <= 15; ++id) ASSERT_TRUE(h.Submit("heavy", 0, id).ok());
  for (int id = 21; id <= 22; ++id) ASSERT_TRUE(h.Submit("light", 0, id).ok());
  h.Release();
  h.scheduler().WaitIdle();
  // Weight 2 vs 1: two heavy jobs per visit, one light.
  EXPECT_EQ(h.Order(),
            (std::vector<int>{10, 11, 20, 12, 13, 21, 14, 15, 22}));
}

TEST(FairSchedulerDispatch, FloodingTenantCannotStarveLightTenant) {
  SchedulerHarness h({.capacity = 256});
  h.Block();
  for (int id = 100; id < 150; ++id) {
    ASSERT_TRUE(h.Submit("flood", 0, id).ok());
  }
  ASSERT_TRUE(h.Submit("light", 0, 1).ok());
  h.Release();
  h.scheduler().WaitIdle();
  const std::vector<int> order = h.Order();
  ASSERT_EQ(order.size(), 51u);
  const auto it = std::find(order.begin(), order.end(), 1);
  ASSERT_NE(it, order.end());
  // The light tenant's job dispatches within one DRR cycle of the flood
  // (one flood job per visit), not after the 50-job backlog drains.
  EXPECT_LE(it - order.begin(), 2) << "light tenant starved by flood";
}

TEST(FairSchedulerBackpressure, TrySubmitFailsFastAtCapacity) {
  SchedulerHarness h({.capacity = 2});
  h.Block();
  ASSERT_TRUE(h.Submit("acme", 0, 1).ok());
  ASSERT_TRUE(h.Submit("acme", 0, 2).ok());
  auto payload = std::make_shared<TestJob>();
  payload->id = 3;
  const Status overflow = h.scheduler().TrySubmit({"acme", 0, payload});
  EXPECT_EQ(overflow.code(), StatusCode::kResourceExhausted);
  h.Release();
  h.scheduler().WaitIdle();
  // Capacity freed: the same job is admitted now.
  EXPECT_TRUE(h.scheduler().TrySubmit({"acme", 0, payload}).ok());
  h.scheduler().WaitIdle();
  EXPECT_EQ(h.Order(), (std::vector<int>{1, 2, 3}));
}

TEST(FairSchedulerBackpressure, SubmitBlocksUntilCapacityFrees) {
  SchedulerHarness h({.capacity = 1});
  h.Block();
  ASSERT_TRUE(h.Submit("acme", 0, 1).ok());
  std::atomic<bool> second_admitted{false};
  std::thread submitter([&] {
    ASSERT_TRUE(h.Submit("acme", 0, 2).ok());
    second_admitted.store(true);
  });
  // The queue is full; the submitter must still be blocked.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_admitted.load());
  h.Release();
  submitter.join();
  EXPECT_TRUE(second_admitted.load());
  h.scheduler().WaitIdle();
  EXPECT_EQ(h.Order(), (std::vector<int>{1, 2}));
}

TEST(FairSchedulerShutdown, RejectsSubmitsAfterShutdown) {
  SchedulerHarness h({.capacity = 8});
  ASSERT_TRUE(h.Submit("acme", 0, 1).ok());
  h.scheduler().Shutdown();
  auto payload = std::make_shared<TestJob>();
  payload->id = 2;
  EXPECT_EQ(h.scheduler().Submit({"acme", 0, payload}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(h.scheduler().TrySubmit({"acme", 0, payload}).code(),
            StatusCode::kFailedPrecondition);
  // The pre-shutdown job still drained.
  EXPECT_EQ(h.Order(), (std::vector<int>{1}));
}

TEST(FairSchedulerParallelism, WorkersSplitTheConstructingThreadsBudget) {
  // A pool built under an 8-thread budget splits it across its workers:
  // inner ParallelFor calls inside jobs must not multiply into 8 * 4.
  ScopedParallelism budget(8);
  std::atomic<int> seen{0};
  std::atomic<int> overridden{0};
  FairScheduler scheduler({.workers = 4}, [](FairScheduler::Job job) {
    static_cast<TestJob*>(job.payload.get())->body();
  });
  auto plain = std::make_shared<TestJob>();
  plain->body = [&seen] { seen.store(ParallelWorkerCount()); };
  ASSERT_TRUE(scheduler.Submit({"", 0, plain}).ok());

  // An explicit per-job override (SolverOptions::threads) still wins.
  auto pinned = std::make_shared<TestJob>();
  pinned->body = [&overridden] {
    ScopedParallelism mine(5);
    overridden.store(ParallelWorkerCount());
  };
  ASSERT_TRUE(scheduler.Submit({"", 0, pinned}).ok());
  scheduler.WaitIdle();
  EXPECT_EQ(seen.load(), 2);
  EXPECT_EQ(overridden.load(), 5);
}

TEST(FairSchedulerTenants, IdleTenantsAreForgotten) {
  SchedulerHarness h({.capacity = 64});
  h.scheduler().SetTenantWeight("heavy", 3);
  ASSERT_TRUE(h.Submit("heavy", 0, 0).ok());
  for (int id = 1; id <= 50; ++id) {
    ASSERT_TRUE(h.Submit("tenant-" + std::to_string(id), 0, id).ok());
  }
  h.scheduler().WaitIdle();
  EXPECT_EQ(h.Order().size(), 51u);
  // Fifty idle default-weight tenants leave nothing behind; the weighted
  // tenant keeps its weight.
  EXPECT_EQ(h.scheduler().tenants(), 1u);
}

// --- Service integration: the result memo vs the serial oracle ------------

// With the default seed, GAS gains 5, 3, 2 and 1 in its first four
// rounds, so a wrong prefix or checkpoint gain cannot pass for a right one.
Graph SchedGraph(uint64_t seed = 100) {
  return HolmeKimGraph(60, 4, 0.7, seed);
}

void ExpectSameResult(const SolveResult& expected, const SolveResult& actual,
                      const std::string& label) {
  EXPECT_EQ(expected.anchor_edges, actual.anchor_edges) << label;
  EXPECT_EQ(expected.anchor_vertices, actual.anchor_vertices) << label;
  EXPECT_EQ(expected.total_gain, actual.total_gain) << label;
  EXPECT_EQ(expected.gain_at_checkpoint, actual.gain_at_checkpoint) << label;
  EXPECT_EQ(expected.stopped_early, actual.stopped_early) << label;
  ASSERT_EQ(expected.rounds.size(), actual.rounds.size()) << label;
  for (size_t i = 0; i < expected.rounds.size(); ++i) {
    EXPECT_EQ(expected.rounds[i].anchor, actual.rounds[i].anchor)
        << label << " round " << i;
    EXPECT_EQ(expected.rounds[i].gain, actual.rounds[i].gain)
        << label << " round " << i;
  }
}

// Parks the single service worker inside a job on `blocker_graph` (its
// progress callback keeps it out of the memo), queues `specs` against "g"
// behind it, releases, and returns the per-spec results.
std::vector<SolveResult> RunBehindBlocker(
    AtrService& service, const std::vector<SolverOptions>& specs,
    const std::string& solver, const std::string& blocker_graph = "g") {
  Latch entered, gate;
  SolverOptions blocker;
  blocker.budget = 1;
  blocker.progress = [&](const SolveProgress&) {
    entered.Set();
    gate.Wait();
    return true;
  };
  StatusOr<JobHandle> blocker_job =
      service.Submit(blocker_graph, "gas", blocker);
  EXPECT_TRUE(blocker_job.ok()) << blocker_job.status().message();
  entered.Wait();

  std::vector<JobHandle> handles;
  for (const SolverOptions& options : specs) {
    StatusOr<JobHandle> job = service.Submit("g", solver, options);
    EXPECT_TRUE(job.ok()) << job.status().message();
    handles.push_back(*job);
  }
  gate.Set();
  EXPECT_TRUE(blocker_job->Wait().ok());

  std::vector<SolveResult> results;
  for (JobHandle& handle : handles) {
    StatusOr<SolveResult> result = handle.Wait();
    EXPECT_TRUE(result.ok()) << result.status().message();
    results.push_back(result.ok() ? *result : SolveResult{});
  }
  // A job's result is published before its worker counts the job, so
  // callers reading Stats() must wait for the worker to finish.
  service.Drain();
  return results;
}

TEST(ServiceResultMemo, GreedySweepMatchesSerialOracle) {
  AtrService::Options options;
  options.workers = 1;
  options.queue_capacity = 64;
  AtrService service(options);
  ASSERT_TRUE(service.AddGraph("g", SchedGraph()).ok());

  // A budget sweep over one graph version: classic dashboard shape. The
  // first walk reaches every later budget.
  std::vector<SolverOptions> specs(4);
  specs[0].budget = 3;
  specs[1].budget = 1;
  specs[2].budget = 2;
  specs[3].budget = 3;
  specs[3].budget_checkpoints = {1, 3};
  const std::vector<SolveResult> swept =
      RunBehindBlocker(service, specs, "gas");

  AtrEngine engine(SchedGraph());
  for (size_t i = 0; i < specs.size(); ++i) {
    StatusOr<SolveResult> oracle = engine.Run("gas", specs[i]);
    ASSERT_TRUE(oracle.ok());
    EXPECT_GT(oracle->total_gain, 0u) << "spec " << i;
    ExpectSameResult(*oracle, swept[i], "gas sweep spec " + std::to_string(i));
  }

  const AtrService::SchedulerStats stats = service.Stats();
  EXPECT_EQ(stats.memo_hits, 3u);
  // Blocker + the first walk: the whole sweep cost one solver run.
  EXPECT_EQ(stats.batches_executed, 2u);
  EXPECT_EQ(stats.jobs_executed, 5u);

  StatusOr<AtrService::GraphInfo> info = service.Info("g");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->decomposition_builds, 1u);
}

TEST(ServiceResultMemo, GreedyJobsShareTheVersionsTriangleIndex) {
  AtrService::Options options;
  options.workers = 1;
  options.queue_capacity = 64;
  AtrService service(options);
  ASSERT_TRUE(service.AddGraph("g", SchedGraph()).ok());
  ASSERT_TRUE(service.AddGraph("other", SchedGraph(12)).ok());
  StatusOr<GraphSnapshot> snapshot = service.Snapshot("g");
  ASSERT_TRUE(snapshot.ok());

  // The blockers park the worker on "other", so only the jobs on "g" run
  // there: its index can be built only through their contexts.
  std::vector<SolverOptions> specs(3);
  specs[0].budget = 1;
  specs[1].budget = 3;
  specs[2].budget = 2;
  const std::vector<SolveResult> gas =
      RunBehindBlocker(service, specs, "gas", "other");
  EXPECT_TRUE(snapshot->triangles->built());
  const std::vector<SolveResult> base_plus =
      RunBehindBlocker(service, specs, "base+", "other");
  // b=1 and b=3 run for each solver; b=2 reads the b=3 walk.
  EXPECT_EQ(service.Stats().memo_hits, 2u);

  AtrEngine engine(SchedGraph());
  for (size_t i = 0; i < specs.size(); ++i) {
    StatusOr<SolveResult> gas_oracle = engine.Run("gas", specs[i]);
    ASSERT_TRUE(gas_oracle.ok());
    ExpectSameResult(*gas_oracle, gas[i], "gas spec " + std::to_string(i));
    StatusOr<SolveResult> base_plus_oracle = engine.Run("base+", specs[i]);
    ASSERT_TRUE(base_plus_oracle.ok());
    ExpectSameResult(*base_plus_oracle, base_plus[i],
                     "base+ spec " + std::to_string(i));
  }
}

TEST(ServiceResultMemo, SubmitsDifferingOnlyInReservedWireByteShareAWalk) {
  AtrService::Options options;
  options.workers = 1;
  options.queue_capacity = 64;
  AtrService service(options);
  ASSERT_TRUE(service.AddGraph("g", SchedGraph()).ok());

  // Two wire Submits for one GAS job, one from an older client that sets
  // the reserved byte after `trials` (it once picked a greedy state-
  // maintenance path). Only the tenant string and the priority follow that
  // byte.
  net::SubmitRequest request;
  request.graph = "g";
  request.solver = "gas";
  request.options.budget = 3;
  std::vector<uint8_t> frames[2] = {request.EncodeFrame(),
                                    request.EncodeFrame()};
  frames[1][frames[1].size() - 9] = 1;
  std::vector<SolverOptions> specs;
  for (const std::vector<uint8_t>& frame : frames) {
    StatusOr<net::SubmitRequest> decoded = net::SubmitRequest::Decode(
        std::span<const uint8_t>(frame.data() + 8, frame.size() - 8));
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    specs.push_back(decoded->options.ToSolverOptions());
  }
  const std::vector<SolveResult> results =
      RunBehindBlocker(service, specs, "gas");

  AtrEngine engine(SchedGraph());
  StatusOr<SolveResult> oracle = engine.Run("gas", specs[0]);
  ASSERT_TRUE(oracle.ok());
  ExpectSameResult(*oracle, results[0], "reserved byte 0");
  ExpectSameResult(*oracle, results[1], "reserved byte 1");
  const AtrService::SchedulerStats stats = service.Stats();
  EXPECT_EQ(stats.memo_hits, 1u);
  // Blocker + the first job's walk.
  EXPECT_EQ(stats.batches_executed, 2u);
}

TEST(ServiceResultMemo, NonGreedySolversAlwaysRun) {
  AtrService::Options options;
  options.workers = 1;
  options.queue_capacity = 64;
  AtrService service(options);
  ASSERT_TRUE(service.AddGraph("g", SchedGraph()).ok());

  // Randomized baselines stay out of the memo (their trial streams are not
  // prefix-consistent across budgets), and so does exact.
  std::vector<SolverOptions> rand_specs(3);
  for (SolverOptions& o : rand_specs) {
    o.budget = 2;
    o.trials = 10;
    o.seed = 7;
  }
  std::vector<SolverOptions> exact_specs(3);
  for (SolverOptions& o : exact_specs) o.budget = 1;

  AtrEngine engine(SchedGraph());
  for (const auto& [solver, specs] :
       {std::pair{"rand", rand_specs}, std::pair{"exact", exact_specs}}) {
    const std::vector<SolveResult> results =
        RunBehindBlocker(service, specs, solver);
    for (size_t i = 0; i < specs.size(); ++i) {
      StatusOr<SolveResult> oracle = engine.Run(solver, specs[i]);
      ASSERT_TRUE(oracle.ok());
      ExpectSameResult(*oracle, results[i],
                       std::string(solver) + " spec " + std::to_string(i));
    }
  }
  const AtrService::SchedulerStats stats = service.Stats();
  EXPECT_EQ(stats.memo_hits, 0u);
  // Two blockers and six solo jobs: one solver run each.
  EXPECT_EQ(stats.batches_executed, 8u);
}

TEST(ServiceResultMemo, LaterJobsReadTheLongestWalkAtAnyThreadCount) {
  AtrService::Options options;
  options.workers = 1;
  AtrService service(options);
  ASSERT_TRUE(service.AddGraph("g", SchedGraph()).ok());

  // Each job waits for the one before it, so no two are ever queued
  // together: only a memo can answer a later job from an earlier walk.
  std::vector<SolverOptions> specs(4);
  specs[0].budget = 2;
  specs[0].threads = 1;
  specs[1].budget = 4;
  specs[1].threads = 1;
  specs[2].budget = 3;
  specs[2].threads = 4;
  specs[3].budget = 4;
  specs[3].budget_checkpoints = {1, 4};
  specs[3].threads = 0;
  AtrEngine engine(SchedGraph());
  for (size_t i = 0; i < specs.size(); ++i) {
    StatusOr<JobHandle> job = service.Submit("g", "gas", specs[i]);
    ASSERT_TRUE(job.ok()) << job.status().message();
    StatusOr<SolveResult> result = job->Wait();
    ASSERT_TRUE(result.ok()) << result.status().message();
    StatusOr<SolveResult> oracle = engine.Run("gas", specs[i]);
    ASSERT_TRUE(oracle.ok());
    ExpectSameResult(*oracle, *result, "spec " + std::to_string(i));
    if (i >= 2) {
      // Read from the b=4 walk: no solver ran, so no time and no progress.
      EXPECT_EQ(result->seconds, 0.0) << i;
      EXPECT_EQ(job->Progress().round, 0u) << i;
    }
  }
  service.Drain();
  AtrService::SchedulerStats stats = service.Stats();
  EXPECT_EQ(stats.batches_executed, 2u);
  EXPECT_EQ(stats.memo_hits, 2u);

  // The stored walk reaches budget 1, but an invalid job still runs and
  // fails exactly as it does alone.
  SolverOptions invalid;
  invalid.budget = 1;
  invalid.budget_checkpoints = {2, 1};
  StatusOr<SolveResult> solo = engine.Run("gas", invalid);
  ASSERT_FALSE(solo.ok());
  StatusOr<JobHandle> job = service.Submit("g", "gas", invalid);
  ASSERT_TRUE(job.ok()) << job.status().message();
  StatusOr<SolveResult> result = job->Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), solo.status().code());
  EXPECT_EQ(result.status().message(), solo.status().message());
  service.Drain();
  EXPECT_EQ(service.Stats().memo_hits, 2u);
}

TEST(ServiceResultMemo, UpdatedVersionStartsEmpty) {
  AtrService::Options options;
  options.workers = 1;
  AtrService service(options);
  ASSERT_TRUE(service.AddGraph("g", SchedGraph()).ok());

  SolverOptions three;
  three.budget = 3;
  StatusOr<JobHandle> first = service.Submit("g", "gas", three);
  ASSERT_TRUE(first.ok()) << first.status().message();
  StatusOr<SolveResult> v1_walk = first->Wait();
  ASSERT_TRUE(v1_walk.ok()) << v1_walk.status().message();

  // Removing v1's first anchor changes the answer on v2.
  StatusOr<GraphSnapshot> v1 = service.Snapshot("g");
  ASSERT_TRUE(v1.ok());
  GraphDelta delta;
  delta.remove.push_back(v1->graph->Edge(v1_walk->anchor_edges[0]));
  StatusOr<GraphSnapshot> v2 = service.UpdateGraph("g", delta);
  ASSERT_TRUE(v2.ok()) << v2.status().message();

  SolverOptions two;
  two.budget = 2;
  AtrEngine engine(*v2->graph);
  StatusOr<SolveResult> oracle = engine.Run("gas", two);
  ASSERT_TRUE(oracle.ok());
  ASSERT_NE(oracle->anchor_edges,
            std::vector<EdgeId>(v1_walk->anchor_edges.begin(),
                                v1_walk->anchor_edges.begin() + 2));
  StatusOr<JobHandle> second = service.Submit("g", "gas", two);
  ASSERT_TRUE(second.ok()) << second.status().message();
  StatusOr<SolveResult> result = second->Wait();
  ASSERT_TRUE(result.ok()) << result.status().message();
  ExpectSameResult(*oracle, *result, "b=2 on v2");
  service.Drain();
  EXPECT_EQ(service.Stats().memo_hits, 0u);
  EXPECT_EQ(service.Stats().batches_executed, 2u);
}

// --- Service differential: every solver, mixed tenants, one pool ---------

struct JobSpec {
  const char* solver;
  SolverOptions options;
};

std::vector<JobSpec> AllSolverSpecs() {
  std::vector<JobSpec> specs;
  {
    SolverOptions o;
    o.budget = 3;
    specs.push_back({"gas", o});
  }
  {
    SolverOptions o;
    o.budget = 2;
    specs.push_back({"base+", o});
  }
  {
    SolverOptions o;
    o.budget = 2;
    specs.push_back({"base", o});
  }
  {
    SolverOptions o;
    o.budget = 4;
    o.budget_checkpoints = {1, 2, 4};
    specs.push_back({"gas", o});
  }
  {
    SolverOptions o;
    o.budget = 1;
    specs.push_back({"exact", o});
  }
  {
    SolverOptions o;
    o.budget = 2;
    o.trials = 40;
    o.seed = 9;
    specs.push_back({"rand", o});
  }
  {
    SolverOptions o;
    o.budget = 2;
    o.trials = 25;
    o.seed = 5;
    specs.push_back({"sup", o});
  }
  {
    SolverOptions o;
    o.budget = 2;
    o.trials = 25;
    o.seed = 6;
    specs.push_back({"tur", o});
  }
  {
    SolverOptions o;
    o.budget = 2;
    specs.push_back({"akt:4", o});
  }
  return specs;
}

TEST(ServiceDifferential, AllSolversMatchSerialOracleAcrossTenants) {
  constexpr int kGraphs = 4;
  constexpr int kSubmitters = 3;

  AtrService::Options options;
  options.workers = 4;
  options.queue_capacity = 128;
  AtrService service(options);

  std::vector<std::string> names;
  for (int g = 0; g < kGraphs; ++g) {
    names.push_back("g" + std::to_string(g));
    ASSERT_TRUE(service.AddGraph(names.back(), SchedGraph(100 + g)).ok());
  }
  const std::vector<JobSpec> specs = AllSolverSpecs();

  // Serial oracle: one private engine per graph.
  std::vector<std::vector<SolveResult>> oracle(kGraphs);
  for (int g = 0; g < kGraphs; ++g) {
    AtrEngine engine(SchedGraph(100 + g));
    for (const JobSpec& spec : specs) {
      StatusOr<SolveResult> result = engine.Run(spec.solver, spec.options);
      ASSERT_TRUE(result.ok()) << spec.solver;
      oracle[g].push_back(*result);
    }
  }

  // kSubmitters threads submit every (graph, spec) pair under distinct
  // tenants and rotating priorities — the memo and fair-share dispatch
  // engage at once.
  std::vector<std::vector<std::vector<JobHandle>>> handles(
      kSubmitters,
      std::vector<std::vector<JobHandle>>(kGraphs));
  std::vector<std::thread> submitters;
  std::atomic<int> failures{0};
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      AtrService::SubmitOptions submit;
      submit.tenant = "tenant-" + std::to_string(t);
      for (int g = 0; g < kGraphs; ++g) {
        for (size_t s = 0; s < specs.size(); ++s) {
          submit.priority = static_cast<int>(s % 3) - 1;
          StatusOr<JobHandle> job = service.Submit(
              names[g], specs[s].solver, specs[s].options, submit);
          if (!job.ok()) {
            ++failures;
            continue;
          }
          handles[t][g].push_back(*job);
        }
      }
    });
  }
  for (std::thread& thread : submitters) thread.join();
  ASSERT_EQ(failures.load(), 0);

  for (int t = 0; t < kSubmitters; ++t) {
    for (int g = 0; g < kGraphs; ++g) {
      ASSERT_EQ(handles[t][g].size(), specs.size());
      for (size_t s = 0; s < specs.size(); ++s) {
        StatusOr<SolveResult> result = handles[t][g][s].Wait();
        ASSERT_TRUE(result.ok()) << result.status().message();
        ExpectSameResult(oracle[g][s], *result,
                         std::string(specs[s].solver) + " on " + names[g] +
                             " from submitter " + std::to_string(t));
      }
    }
  }

  // Memo hits and solver runs share the one decomposition per graph.
  for (const std::string& name : names) {
    StatusOr<AtrService::GraphInfo> info = service.Info(name);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->decomposition_builds, 1u) << name;
  }
  // The worker counts a job just after publishing its result; Drain waits
  // for that count.
  service.Drain();
  EXPECT_EQ(service.Stats().jobs_executed,
            static_cast<uint64_t>(kSubmitters * kGraphs * specs.size()));
}

}  // namespace
}  // namespace atr
