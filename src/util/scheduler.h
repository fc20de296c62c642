// FairScheduler — multi-tenant job scheduler for job-level concurrency
// (AtrService's submit path).
//
// FairScheduler keeps one FIFO *per tenant per priority* and dispatches
// across tenants with weighted deficit round-robin (WDRR): each tenant in
// the ready ring may dispatch one job per unit of weight per visit, so a
// tenant flooding the queue cannot starve a light one — the light
// tenant's next job dispatches after at most one DRR cycle, not after the
// flood drains. Within a tenant, higher priority buckets drain first and
// each bucket is FIFO. Each dispatch hands one job to the runner.
//
// A tenant exists while it has queued or running jobs, or a weight other
// than 1: an idle default-weight tenant is forgotten when its last job
// finishes, so a stream of distinct tenant names holds no memory.
//
// Capacity and backpressure: Submit blocks while the total pending count
// is at capacity, TrySubmit fails fast with kResourceExhausted, and both
// reject with kFailedPrecondition after Shutdown. Worker threads install
// a ScopedParallelism override — the constructing thread's
// ParallelWorkerCount() split evenly across the pool, at least 1 — so
// inner ParallelFor fan-out shares one machine budget with job
// concurrency.
//
//   FairScheduler sched({.workers = 4}, [](FairScheduler::Job job) {
//     ... run the job ...
//   });
//   sched.Submit({.tenant = "acme", .priority = 1, .payload = state});

#ifndef ATR_UTIL_SCHEDULER_H_
#define ATR_UTIL_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace atr {

class FairScheduler {
 public:
  // One schedulable unit. The scheduler never looks inside `payload`; the
  // runner downcasts it back to whatever the submitter enqueued.
  struct Job {
    std::string tenant;  // "" is the default tenant (still fair-shared)
    int priority = 0;    // higher runs first within the tenant
    std::shared_ptr<void> payload;
  };

  struct Options {
    // Worker threads. 0 = min(4, the calling thread's ParallelWorkerCount).
    int workers = 0;
    // Max jobs waiting to run across all tenants (excludes running jobs);
    // Submit blocks / TrySubmit fails at this count. 0 = 4x workers.
    size_t capacity = 0;
  };

  // `runner` receives each job once, on a scheduler worker thread.
  FairScheduler(const Options& options, std::function<void(Job)> runner);
  ~FairScheduler();

  FairScheduler(const FairScheduler&) = delete;
  FairScheduler& operator=(const FairScheduler&) = delete;

  // Enqueues `job`; blocks while the pending count is at capacity.
  // kFailedPrecondition after Shutdown. Must not be called from a
  // scheduler worker (CHECK: a full queue would deadlock the worker).
  Status Submit(Job job) ATR_EXCLUDES(mu_);

  // Non-blocking Submit: kResourceExhausted at capacity.
  Status TrySubmit(Job job) ATR_EXCLUDES(mu_);

  // Dispatch share for `tenant` (default weight 1). Takes effect at the
  // tenant's next DRR visit. Weight 0 is clamped to 1.
  void SetTenantWeight(const std::string& tenant, uint32_t weight)
      ATR_EXCLUDES(mu_);

  // Blocks until no job is pending or running.
  void WaitIdle() ATR_EXCLUDES(mu_);

  // Stops accepting work, drains everything queued, joins the workers.
  // Idempotent; the destructor calls it.
  void Shutdown() ATR_EXCLUDES(mu_);

  int workers() const { return static_cast<int>(threads_.size()); }

  // Pending plus running: the load signal behind retry-after estimates.
  size_t Load() const ATR_EXCLUDES(mu_);
  // Pending plus running for one tenant (per-tenant retry-after hints).
  size_t TenantLoad(const std::string& tenant) const ATR_EXCLUDES(mu_);

  // Tenants the scheduler currently holds state for.
  size_t tenants() const ATR_EXCLUDES(mu_);

  // Jobs the runner has returned from (monotonic).
  uint64_t jobs_executed() const ATR_EXCLUDES(mu_);

 private:
  // Per-tenant state: priority buckets (higher first), each FIFO.
  struct TenantQueue {
    uint32_t weight = 1;
    uint64_t deficit = 0;
    std::map<int, std::deque<Job>, std::greater<int>> buckets;
    size_t queued = 0;
    size_t running = 0;
    bool in_ring = false;
  };

  void WorkerLoop() ATR_EXCLUDES(mu_);
  // Queues an admitted job (the tail of Submit and TrySubmit).
  void EnqueueLocked(Job job) ATR_REQUIRES(mu_);
  // Dequeues the next job under mu_. Requires total_pending_ > 0.
  Job NextJobLocked() ATR_REQUIRES(mu_);
  void DropFromRingLocked(const std::string& tenant) ATR_REQUIRES(mu_);

  size_t capacity_ = 0;
  int inner_threads_ = 1;
  std::function<void(Job)> runner_;

  mutable Mutex mu_;
  CondVar not_empty_;
  CondVar not_full_;
  CondVar idle_;
  std::map<std::string, TenantQueue> tenants_ ATR_GUARDED_BY(mu_);
  // Tenants with queued jobs, DRR order.
  std::vector<std::string> ring_ ATR_GUARDED_BY(mu_);
  // ring_ index of the next tenant to serve.
  size_t cursor_ ATR_GUARDED_BY(mu_) = 0;
  size_t total_pending_ ATR_GUARDED_BY(mu_) = 0;
  size_t running_ ATR_GUARDED_BY(mu_) = 0;
  uint64_t jobs_executed_ ATR_GUARDED_BY(mu_) = 0;
  bool shutdown_ ATR_GUARDED_BY(mu_) = false;

  std::vector<std::thread> threads_;
};

}  // namespace atr

#endif  // ATR_UTIL_SCHEDULER_H_
