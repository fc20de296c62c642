#include "api/service.h"

#include <atomic>
#include <utility>
#include <vector>

#include "api/registry.h"
#include "truss/incremental.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace atr {
namespace internal {

// The longest finished walk of each greedy solver (base, base+, gas) on one
// graph version. A greedy solver picks each round's best edge whatever
// budget is left, so a budget-b answer is the first b rounds of any longer
// walk: a later job whose budget the stored walk reaches is carved out of
// it instead of solved. Results never depend on threads, so the solver
// name is the whole key; the memo holds at most one walk per solver and
// dies with its version.
class ResultMemo {
 public:
  // The `options.budget`-round prefix of the stored walk, with the totals
  // and checkpoint gains a solo greedy run reports
  // (core/greedy_internal.h), or nullopt when no stored walk reaches the
  // budget.
  // A hit ran no solver, so its `seconds` is 0.
  std::optional<SolveResult> Find(const std::string& solver,
                                  const SolverOptions& options) const {
    MutexLock lock(&mu_);
    auto it = walks_.find(solver);
    if (it == walks_.end() || it->second.rounds.size() < options.budget) {
      return std::nullopt;
    }
    const SolveResult& walk = it->second;
    SolveResult result;
    result.solver = walk.solver;
    result.anchor_edges.assign(walk.anchor_edges.begin(),
                               walk.anchor_edges.begin() + options.budget);
    result.rounds.assign(walk.rounds.begin(),
                         walk.rounds.begin() + options.budget);
    for (const AnchorRound& round : result.rounds) {
      result.total_gain += round.gain;
      result.fully_reusable += round.fully_reusable;
      result.partially_reusable += round.partially_reusable;
      result.non_reusable += round.non_reusable;
    }
    result.gain_at_checkpoint =
        PrefixGains(result.rounds, EffectiveCheckpoints(options));
    return result;
  }

  // Keeps `walk`, a finished run of `solver` that was not stopped early,
  // when it has more rounds than the stored one.
  void Offer(const std::string& solver, const SolveResult& walk) {
    MutexLock lock(&mu_);
    SolveResult& stored = walks_[solver];
    if (walk.rounds.size() > stored.rounds.size()) stored = walk;
  }

 private:
  mutable Mutex mu_;
  std::map<std::string, SolveResult> walks_ ATR_GUARDED_BY(mu_);
};

// Shared state behind one JobHandle. The submitting thread, the pool
// worker, and any number of handle copies coordinate through `mu`/`cv`;
// the cancel flag is the std::atomic the running solver polls between
// rounds, so Cancel() reaches mid-solve jobs without the mutex.
struct JobState {
  JobId id = 0;
  std::string graph_name;
  std::string solver_name;
  SolverOptions options;            // the caller's options, unmodified
  std::unique_ptr<Solver> solver;   // resolved at Submit time
  std::function<GraphSnapshot()> snapshot;  // service's build-once entry
  // The pinned version's memo; null for a job that neither reads nor
  // fills it (see Memoizable).
  std::shared_ptr<ResultMemo> memo;

  mutable Mutex mu;
  CondVar cv;
  JobHandle::State state ATR_GUARDED_BY(mu) = JobHandle::State::kQueued;
  std::optional<StatusOr<SolveResult>> result ATR_GUARDED_BY(mu);
  SolveProgress progress ATR_GUARDED_BY(mu);
  std::atomic<bool> cancel{false};
  // Completion hook (worker thread): taken out under mu when the result is
  // published, invoked after the lock drops so it may call handle methods.
  std::function<void()> on_done ATR_GUARDED_BY(mu);
};

// Publishes `result` as the job's terminal state and fires the completion
// hook outside the lock. Long-lived JobHandle copies must pin only the
// result, not the graph snapshot, the solver, or the caller's closures.
void PublishResult(const std::shared_ptr<JobState>& state,
                   StatusOr<SolveResult> result, JobHandle::State terminal) {
  std::function<void()> done;
  {
    MutexLock lock(&state->mu);
    state->result = std::move(result);
    state->state = terminal;
    state->snapshot = nullptr;
    state->memo.reset();
    state->solver.reset();
    state->options = SolverOptions();
    done = std::move(state->on_done);
    state->on_done = nullptr;
    state->cv.NotifyAll();
  }
  // Outside the lock: the hook may call JobHandle methods (TryGet sees the
  // result — it was published above).
  if (done) done();
}

void PublishCancelledBeforeStart(const std::shared_ptr<JobState>& state) {
  PublishResult(
      state,
      StatusOr<SolveResult>(Status::Cancelled(
          "job " + std::to_string(state->id) + " (" + state->solver_name +
          " on \"" + state->graph_name + "\") cancelled before it started")),
      JobHandle::State::kCancelled);
}

}  // namespace internal

// --- JobHandle ------------------------------------------------------------

namespace {
const std::string kEmptyString;
}  // namespace

JobId JobHandle::id() const { return state_ == nullptr ? 0 : state_->id; }

const std::string& JobHandle::graph_name() const {
  return state_ == nullptr ? kEmptyString : state_->graph_name;
}

const std::string& JobHandle::solver_name() const {
  return state_ == nullptr ? kEmptyString : state_->solver_name;
}

JobHandle::State JobHandle::state() const {
  if (state_ == nullptr) return State::kQueued;
  MutexLock lock(&state_->mu);
  return state_->state;
}

bool JobHandle::Done() const {
  if (state_ == nullptr) return false;
  MutexLock lock(&state_->mu);
  return state_->result.has_value();
}

StatusOr<SolveResult> JobHandle::Wait() {
  if (state_ == nullptr) {
    return Status::FailedPrecondition("Wait: empty JobHandle");
  }
  MutexLock lock(&state_->mu);
  while (!state_->result.has_value()) state_->cv.Wait(state_->mu);
  return *state_->result;
}

std::optional<StatusOr<SolveResult>> JobHandle::TryGet() const {
  if (state_ == nullptr) return std::nullopt;
  MutexLock lock(&state_->mu);
  if (!state_->result.has_value()) return std::nullopt;
  return *state_->result;
}

bool JobHandle::Cancel() {
  if (state_ == nullptr) return false;
  MutexLock lock(&state_->mu);
  if (state_->result.has_value()) return false;
  state_->cancel.store(true, std::memory_order_relaxed);
  return true;
}

SolveProgress JobHandle::Progress() const {
  if (state_ == nullptr) return SolveProgress{};
  MutexLock lock(&state_->mu);
  return state_->progress;
}

// --- AtrService -----------------------------------------------------------

// One immutable snapshot version of a cataloged graph. The AddGraph
// version's decomposition is built lazily (exactly once, under `once`);
// UpdateGraph versions are born built — their decomposition is seeded
// eagerly and the once flag is consumed at construction. `built` is set
// with release order after `decomposition` is published and read with
// acquire by Info(), so an observed true implies a readable snapshot.
// Every version starts with an unbuilt triangle index holder and an empty
// result memo, whichever path made it: the write path never builds an
// index and never solves.
struct AtrService::GraphVersion {
  std::shared_ptr<const Graph> graph;
  uint64_t version = 1;
  std::once_flag once;
  SharedTrussDecomposition decomposition;
  std::atomic<bool> built{false};
  const std::shared_ptr<LazyTriangleIndex> triangles =
      std::make_shared<LazyTriangleIndex>();
  internal::ResultMemo memo;

  // Marks this version born built (UpdateGraph publications and restored
  // snapshots): the once flag is consumed here so SnapshotOf never counts
  // a build for it.
  void InstallPrebuilt(SharedTrussDecomposition prebuilt) {
    std::call_once(once, [this, &prebuilt] {
      decomposition = std::move(prebuilt);
      built.store(true, std::memory_order_release);
    });
  }
};

// One catalog slot: the chain of snapshot versions, of which `current` is
// the one new submits pin. `version_mu` guards the `current` pointer only
// (reads are brief); `update_mu` serializes whole UpdateGraph calls so
// concurrent updates to one graph cannot both seed from the same
// predecessor and lose one delta.
struct AtrService::CatalogEntry {
  mutable Mutex version_mu;
  std::shared_ptr<GraphVersion> current ATR_GUARDED_BY(version_mu);
  // Serializes whole UpdateGraph calls; guards no fields itself.
  Mutex update_mu;
  std::atomic<uint32_t> builds{0};
  std::atomic<uint64_t> delta_updates{0};
  // Deltas since the last base snapshot; compaction resets it.
  std::atomic<uint64_t> delta_chain{0};
  std::atomic<uint64_t> jobs_submitted{0};

  std::shared_ptr<GraphVersion> Current() const ATR_EXCLUDES(version_mu) {
    MutexLock lock(&version_mu);
    return current;
  }
};

// The runner counts into the service; scheduler_ is its last member, so
// the workers are joined before any member they touch is destroyed.
AtrService::AtrService(const Options& options)
    : scheduler_({.workers = options.workers,
                  .capacity = options.queue_capacity},
                 [this](FairScheduler::Job job) {
                   RunJob(std::static_pointer_cast<internal::JobState>(
                       job.payload));
                 }) {}

AtrService::~AtrService() = default;

Status AtrService::InsertEntry(const std::string& name, const char* what,
                               std::shared_ptr<CatalogEntry> entry) {
  MutexLock lock(&catalog_mu_);
  const bool inserted = catalog_.emplace(name, std::move(entry)).second;
  if (!inserted) {
    return Status::FailedPrecondition(std::string(what) + ": graph \"" + name +
                                      "\" is already registered");
  }
  return Status::Ok();
}

Status AtrService::AddGraph(const std::string& name, Graph graph) {
  return AddGraph(name, std::make_shared<const Graph>(std::move(graph)));
}

Status AtrService::AddGraph(const std::string& name,
                            std::shared_ptr<const Graph> graph) {
  if (graph == nullptr) {
    return Status::InvalidArgument("AddGraph: graph must not be null");
  }
  auto entry = std::make_shared<CatalogEntry>();
  entry->current = std::make_shared<GraphVersion>();
  entry->current->graph = std::move(graph);
  return InsertEntry(name, "AddGraph", std::move(entry));
}

Status AtrService::RestoreGraph(const std::string& name,
                                std::shared_ptr<const Graph> graph,
                                TrussDecomposition decomposition,
                                uint64_t version,
                                uint64_t delta_chain_length) {
  if (graph == nullptr) {
    return Status::InvalidArgument("RestoreGraph: graph must not be null");
  }
  if (decomposition.trussness.size() != graph->NumEdges() ||
      decomposition.layer.size() != graph->NumEdges()) {
    return Status::InvalidArgument(
        "RestoreGraph: decomposition shape does not match the graph (" +
        std::to_string(decomposition.trussness.size()) + " trussness / " +
        std::to_string(decomposition.layer.size()) + " layer entries for " +
        std::to_string(graph->NumEdges()) + " edges)");
  }
  if (version == 0) {
    return Status::InvalidArgument("RestoreGraph: version must be >= 1");
  }
  auto entry = std::make_shared<CatalogEntry>();
  entry->current = std::make_shared<GraphVersion>();
  entry->current->graph = std::move(graph);
  entry->current->version = version;
  entry->current->InstallPrebuilt(
      std::make_shared<TrussDecomposition>(std::move(decomposition)));
  entry->delta_chain.store(delta_chain_length, std::memory_order_relaxed);
  return InsertEntry(name, "RestoreGraph", std::move(entry));
}

void AtrService::SetUpdateListener(UpdateListener listener) {
  MutexLock lock(&listener_mu_);
  update_listener_ =
      listener ? std::make_shared<const UpdateListener>(std::move(listener))
               : nullptr;
}

Status AtrService::ResetDeltaChain(const std::string& name) {
  std::shared_ptr<CatalogEntry> entry = FindEntry(name);
  if (entry == nullptr) {
    return Status::NotFound("ResetDeltaChain: unknown graph \"" + name + "\"");
  }
  entry->delta_chain.store(0, std::memory_order_relaxed);
  return Status::Ok();
}

Status AtrService::RemoveGraph(const std::string& name) {
  MutexLock lock(&catalog_mu_);
  if (catalog_.erase(name) == 0) {
    return Status::NotFound("RemoveGraph: unknown graph \"" + name + "\"");
  }
  return Status::Ok();
}

std::vector<std::string> AtrService::GraphNames() const {
  std::vector<std::string> names;
  MutexLock lock(&catalog_mu_);
  for (const auto& [name, entry] : catalog_) names.push_back(name);
  return names;
}

std::shared_ptr<AtrService::CatalogEntry> AtrService::FindEntry(
    const std::string& name) const {
  MutexLock lock(&catalog_mu_);
  auto it = catalog_.find(name);
  return it == catalog_.end() ? nullptr : it->second;
}

GraphSnapshot AtrService::SnapshotOf(CatalogEntry& entry,
                                     GraphVersion& version) {
  std::call_once(version.once, [&entry, &version] {
    version.decomposition = ComputeSharedTrussDecomposition(*version.graph);
    entry.builds.fetch_add(1, std::memory_order_relaxed);
    version.built.store(true, std::memory_order_release);
  });
  return GraphSnapshot{version.graph, version.decomposition,
                       version.triangles, version.version};
}

StatusOr<GraphSnapshot> AtrService::Snapshot(const std::string& name) {
  std::shared_ptr<CatalogEntry> entry = FindEntry(name);
  if (entry == nullptr) {
    return Status::NotFound("Snapshot: unknown graph \"" + name + "\"");
  }
  std::shared_ptr<GraphVersion> version = entry->Current();
  return SnapshotOf(*entry, *version);
}

StatusOr<GraphSnapshot> AtrService::UpdateGraph(const std::string& name,
                                                const GraphDelta& delta) {
  std::shared_ptr<CatalogEntry> entry = FindEntry(name);
  if (entry == nullptr) {
    return Status::NotFound("UpdateGraph: unknown graph \"" + name + "\"");
  }
  // One update at a time per graph; Submits/Snapshots stay lock-free with
  // respect to this (they only graze version_mu to read `current`).
  MutexLock update_lock(&entry->update_mu);
  std::shared_ptr<GraphVersion> prev = entry->Current();

  // Validate the delta before anything expensive: a rejected delta must
  // not force the predecessor's lazy decomposition build.
  StatusOr<GraphEditResult> edited = prev->graph->ApplyEdits(delta);
  if (!edited.ok()) return edited.status();

  // Seeding needs the predecessor's decomposition; a graph updated before
  // any job ever touched it pays its single lazy build here.
  const GraphSnapshot prev_snapshot = SnapshotOf(*entry, *prev);

  auto next_graph = std::make_shared<const Graph>(std::move(edited->graph));

  // One engine carries the predecessor's decomposition across the edit:
  // retire the removed edges on the old topology, move the surviving state
  // onto the new edge ids (added edges start removed), then stream the
  // additions in. The subset decomposition over the survivors is the same
  // in both topologies (same edges, same vertex ids, and the dead
  // additions take part in no triangle), so the result is exact.
  IncrementalTruss engine(*prev->graph, *prev_snapshot.decomposition);
  for (const EdgeId e : edited->removed_edges) engine.RemoveEdge(e);
  engine.CarryAcross(*next_graph, edited->edge_remap);
  for (const EdgeId e : edited->added_edges) engine.InsertEdge(e);

  auto next = std::make_shared<GraphVersion>();
  next->graph = next_graph;
  next->version = prev->version + 1;
  next->InstallPrebuilt(std::make_shared<const TrussDecomposition>(
      std::move(engine).decomposition()));

  // Write-ahead durability: the persistence listener records the delta
  // BEFORE the version becomes visible. On failure the update aborts and
  // the current version stays — a served version is never missing from
  // the log. (Still under update_mu, so log records arrive in version
  // order with no gaps.)
  std::shared_ptr<const UpdateListener> listener;
  {
    MutexLock lock(&listener_mu_);
    listener = update_listener_;
  }
  if (listener != nullptr && *listener) {
    Status persisted = (*listener)(name, next->version, delta);
    if (!persisted.ok()) return persisted;
  }

  {
    // Count the update inside the publication so a concurrent Info()
    // never observes delta_updates ahead of the published version.
    MutexLock lock(&entry->version_mu);
    entry->current = next;
    entry->delta_updates.fetch_add(1, std::memory_order_relaxed);
    entry->delta_chain.fetch_add(1, std::memory_order_relaxed);
  }
  return GraphSnapshot{next->graph, next->decomposition, next->triangles,
                       next->version};
}

StatusOr<AtrService::GraphInfo> AtrService::Info(
    const std::string& name) const {
  std::shared_ptr<CatalogEntry> entry = FindEntry(name);
  if (entry == nullptr) {
    return Status::NotFound("Info: unknown graph \"" + name + "\"");
  }
  std::shared_ptr<GraphVersion> version;
  uint64_t delta_updates = 0;
  {
    // One critical section for both so delta_updates == version - 1 holds
    // for every reader (updates publish them together).
    MutexLock lock(&entry->version_mu);
    version = entry->current;
    delta_updates = entry->delta_updates.load(std::memory_order_relaxed);
  }
  GraphInfo info;
  info.name = name;
  info.num_vertices = version->graph->NumVertices();
  info.num_edges = version->graph->NumEdges();
  info.decomposition_builds = entry->builds.load(std::memory_order_relaxed);
  if (version->built.load(std::memory_order_acquire)) {
    info.max_trussness = version->decomposition->max_trussness;
  }
  info.version = version->version;
  info.delta_updates = delta_updates;
  info.delta_chain_length = entry->delta_chain.load(std::memory_order_relaxed);
  info.jobs_submitted = entry->jobs_submitted.load(std::memory_order_relaxed);
  return info;
}

StatusOr<JobHandle> AtrService::Submit(const std::string& graph_name,
                                       const std::string& solver_name,
                                       const SolverOptions& options) {
  return SubmitInternal(graph_name, solver_name, options, SubmitOptions{},
                        nullptr, /*blocking=*/true);
}

StatusOr<JobHandle> AtrService::Submit(const std::string& graph_name,
                                       const std::string& solver_name,
                                       const SolverOptions& options,
                                       const SubmitOptions& submit,
                                       std::function<void()> done) {
  return SubmitInternal(graph_name, solver_name, options, submit,
                        std::move(done), /*blocking=*/true);
}

StatusOr<JobHandle> AtrService::TrySubmit(const std::string& graph_name,
                                          const std::string& solver_name,
                                          const SolverOptions& options,
                                          const SubmitOptions& submit,
                                          std::function<void()> done) {
  return SubmitInternal(graph_name, solver_name, options, submit,
                        std::move(done), /*blocking=*/false);
}

namespace {

// Jobs that read and fill their version's memo: the greedy family, whose
// answers are prefixes of longer walks, when the caller holds no control
// surface (progress callback, external cancel flag, wall-clock limit).
// Exact, the randomized baselines (a budget-b answer is not a prefix of a
// longer run) and AKT always run, and so does a hooked job.
bool Memoizable(const std::string& solver_name, const SolverOptions& options) {
  return (solver_name == "base" || solver_name == "base+" ||
          solver_name == "gas") &&
         !options.progress && options.cancel == nullptr &&
         options.wall_clock_limit_seconds == 0.0;
}

// Publishes the job's answer from `memo` when a stored walk reaches its
// budget, and counts the hit. A hit runs no solver and emits no progress
// event. An invalid job is never a hit, so it fails with exactly the
// solver's own error.
bool AnswerFromMemo(const std::shared_ptr<internal::JobState>& state,
                    const Graph& graph, const internal::ResultMemo& memo,
                    std::atomic<uint64_t>& memo_hits) {
  if (!ValidateSolverOptions(graph, state->options).ok()) return false;
  std::optional<SolveResult> hit =
      memo.Find(state->solver_name, state->options);
  if (!hit.has_value()) return false;
  memo_hits.fetch_add(1, std::memory_order_relaxed);
  internal::PublishResult(state, std::move(*hit), JobHandle::State::kDone);
  return true;
}

}  // namespace

StatusOr<JobHandle> AtrService::SubmitInternal(const std::string& graph_name,
                                               const std::string& solver_name,
                                               const SolverOptions& options,
                                               const SubmitOptions& submit,
                                               std::function<void()> done,
                                               bool blocking) {
  std::shared_ptr<CatalogEntry> entry = FindEntry(graph_name);
  if (entry == nullptr) {
    return Status::NotFound("Submit: unknown graph \"" + graph_name + "\"");
  }
  StatusOr<std::unique_ptr<Solver>> solver = SolverRegistry::Create(solver_name);
  if (!solver.ok()) return solver.status();

  auto state = std::make_shared<internal::JobState>();
  state->id = next_job_id_.fetch_add(1, std::memory_order_relaxed);
  state->graph_name = graph_name;
  state->solver_name = solver_name;
  state->options = options;
  state->solver = std::move(*solver);
  state->on_done = std::move(done);
  // Pin the version that is current NOW: a queued job is unaffected by
  // UpdateGraph publications between submit and run (the decomposition
  // build itself stays lazy until the job actually starts).
  std::shared_ptr<GraphVersion> version = entry->Current();
  state->snapshot = [entry, version] { return SnapshotOf(*entry, *version); };
  if (Memoizable(solver_name, options)) {
    // A hit is answered here, before queue admission; `done` runs on this
    // thread.
    if (AnswerFromMemo(state, *version->graph, version->memo, memo_hits_)) {
      submit_hits_.fetch_add(1, std::memory_order_relaxed);
      entry->jobs_submitted.fetch_add(1, std::memory_order_relaxed);
      return JobHandle(state);
    }
    state->memo =
        std::shared_ptr<internal::ResultMemo>(version, &version->memo);
  }

  FairScheduler::Job job;
  job.tenant = submit.tenant;
  job.priority = submit.priority;
  job.payload = state;

  Status queued = blocking ? scheduler_.Submit(std::move(job))
                           : scheduler_.TrySubmit(std::move(job));
  if (!queued.ok()) return queued;  // saturated (TrySubmit) or shut down
  entry->jobs_submitted.fetch_add(1, std::memory_order_relaxed);
  return JobHandle(state);
}

void AtrService::SetTenantWeight(const std::string& tenant, uint32_t weight) {
  scheduler_.SetTenantWeight(tenant, weight);
}

size_t AtrService::TenantLoad(const std::string& tenant) const {
  return scheduler_.TenantLoad(tenant);
}

size_t AtrService::QueueLoad() const { return scheduler_.Load(); }

int AtrService::Workers() const { return scheduler_.workers(); }

AtrService::SchedulerStats AtrService::Stats() const {
  return SchedulerStats{
      scheduler_.jobs_executed() +
          submit_hits_.load(std::memory_order_relaxed),
      solver_runs_.load(std::memory_order_relaxed),
      memo_hits_.load(std::memory_order_relaxed)};
}

void AtrService::Drain() { scheduler_.WaitIdle(); }

void AtrService::RunJob(const std::shared_ptr<internal::JobState>& state) {
  {
    MutexLock lock(&state->mu);
    if (state->cancel.load(std::memory_order_relaxed)) {
      lock.Unlock();
      internal::PublishCancelledBeforeStart(state);
      return;
    }
    state->state = JobHandle::State::kRunning;
  }

  const GraphSnapshot snapshot = state->snapshot();
  // The job missed at submit; a walk may have been stored since.
  if (state->memo != nullptr &&
      AnswerFromMemo(state, *snapshot.graph, *state->memo, memo_hits_)) {
    return;
  }
  solver_runs_.fetch_add(1, std::memory_order_relaxed);

  // Fork the per-job read path: a private context primed with the shared
  // immutable snapshot. The solver mutates only this context (counters)
  // and its own stack — the snapshot is never written. The version's
  // triangle index holder is shared too; the first job whose solver reads
  // the index builds it.
  SolverContext context(*snapshot.graph);
  context.PrimeDecomposition(snapshot.decomposition);
  context.PrimeTriangles(snapshot.triangles);

  // Rewire the control surface onto the job: the solver polls the job's
  // cancel flag (JobHandle::Cancel at native round/trial granularity), and
  // the progress chain records a pollable snapshot, relays a caller-owned
  // cancel flag, and forwards to the caller's callback.
  SolverOptions effective = state->options;
  const std::atomic<bool>* user_cancel = state->options.cancel;
  const std::function<bool(const SolveProgress&)> user_progress =
      state->options.progress;
  effective.cancel = &state->cancel;
  // A caller-owned flag already raised folds into the job flag now, so the
  // solver's own cancel polling (every solver checks it, including the
  // randomized trial loop) observes it from the first check; later raises
  // are relayed at progress-event granularity below.
  if (user_cancel != nullptr && user_cancel->load(std::memory_order_relaxed)) {
    state->cancel.store(true, std::memory_order_relaxed);
  }
  effective.progress = [state, user_cancel,
                        user_progress](const SolveProgress& event) {
    {
      MutexLock lock(&state->mu);
      state->progress = event;
    }
    if (user_cancel != nullptr &&
        user_cancel->load(std::memory_order_relaxed)) {
      state->cancel.store(true, std::memory_order_relaxed);
    }
    bool keep_going = true;
    if (user_progress) keep_going = user_progress(event);
    return keep_going && !state->cancel.load(std::memory_order_relaxed);
  };

  StatusOr<SolveResult> result = state->solver->Solve(context, effective);
  // A cancelled walk is never stored: it may stop short of its budget.
  if (state->memo != nullptr && result.ok() && !result->stopped_early) {
    state->memo->Offer(state->solver_name, *result);
  }
  internal::PublishResult(state, std::move(result), JobHandle::State::kDone);
}

}  // namespace atr
