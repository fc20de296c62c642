#include "util/scheduler.h"

#include <algorithm>
#include <utility>

#include "util/macros.h"
#include "util/parallel_for.h"

namespace atr {
namespace {

// Set while a thread is executing scheduler jobs; Submit CHECKs against
// it so a job can never block on the queue its own worker is draining.
thread_local bool t_sched_worker = false;

}  // namespace

FairScheduler::FairScheduler(const Options& options,
                             std::function<void(Job)> runner)
    : runner_(std::move(runner)) {
  ATR_CHECK_MSG(runner_ != nullptr, "FairScheduler needs a runner");
  // Resolve defaults on the constructing thread: its worker budget is the
  // one the pool must share, not whatever the pool threads would see.
  const int machine = ParallelWorkerCount();
  const int workers =
      options.workers > 0 ? options.workers : std::min(4, machine);
  capacity_ = options.capacity > 0 ? options.capacity
                                   : static_cast<size_t>(4 * workers);
  inner_threads_ = std::max(1, machine / workers);
  threads_.reserve(workers);
  for (int w = 0; w < workers; ++w) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

FairScheduler::~FairScheduler() { Shutdown(); }

Status FairScheduler::Submit(Job job) {
  ATR_CHECK_MSG(!t_sched_worker,
                "FairScheduler::Submit called from a scheduler worker; a "
                "full queue would deadlock the worker against itself");
  MutexLock lock(&mu_);
  while (total_pending_ >= capacity_ && !shutdown_) not_full_.Wait(mu_);
  if (shutdown_) {
    return Status::FailedPrecondition("FairScheduler::Submit after Shutdown");
  }
  EnqueueLocked(std::move(job));
  return Status::Ok();
}

Status FairScheduler::TrySubmit(Job job) {
  MutexLock lock(&mu_);
  if (shutdown_) {
    return Status::FailedPrecondition(
        "FairScheduler::TrySubmit after Shutdown");
  }
  if (total_pending_ >= capacity_) {
    return Status::ResourceExhausted(
        "FairScheduler::TrySubmit: pending queue is at capacity (" +
        std::to_string(capacity_) + ")");
  }
  EnqueueLocked(std::move(job));
  return Status::Ok();
}

void FairScheduler::EnqueueLocked(Job job) {
  TenantQueue& t = tenants_[job.tenant];
  if (!t.in_ring) {
    t.in_ring = true;
    ring_.push_back(job.tenant);
  }
  t.buckets[job.priority].push_back(std::move(job));
  ++t.queued;
  ++total_pending_;
  not_empty_.NotifyOne();
}

void FairScheduler::SetTenantWeight(const std::string& tenant,
                                    uint32_t weight) {
  MutexLock lock(&mu_);
  tenants_[tenant].weight = std::max<uint32_t>(1, weight);
}

void FairScheduler::WaitIdle() {
  MutexLock lock(&mu_);
  while (!(total_pending_ == 0 && running_ == 0)) idle_.Wait(mu_);
}

void FairScheduler::Shutdown() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
    not_empty_.NotifyAll();
    not_full_.NotifyAll();
  }
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

size_t FairScheduler::Load() const {
  MutexLock lock(&mu_);
  return total_pending_ + running_;
}

size_t FairScheduler::TenantLoad(const std::string& tenant) const {
  MutexLock lock(&mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return 0;
  return it->second.queued + it->second.running;
}

size_t FairScheduler::tenants() const {
  MutexLock lock(&mu_);
  return tenants_.size();
}

uint64_t FairScheduler::jobs_executed() const {
  MutexLock lock(&mu_);
  return jobs_executed_;
}

void FairScheduler::DropFromRingLocked(const std::string& tenant) {
  auto it = std::find(ring_.begin(), ring_.end(), tenant);
  if (it == ring_.end()) return;
  const size_t index = static_cast<size_t>(it - ring_.begin());
  ring_.erase(it);
  if (index < cursor_) --cursor_;
  if (cursor_ >= ring_.size()) cursor_ = 0;
  TenantQueue& t = tenants_[tenant];
  t.in_ring = false;
  t.deficit = 0;
}

FairScheduler::Job FairScheduler::NextJobLocked() {
  ATR_CHECK_MSG(!ring_.empty(), "NextJobLocked with an empty ring");
  if (cursor_ >= ring_.size()) cursor_ = 0;
  const std::string tenant = ring_[cursor_];
  TenantQueue& t = tenants_[tenant];
  if (t.deficit == 0) t.deficit = std::max<uint32_t>(1, t.weight);
  auto bucket = t.buckets.begin();
  ATR_CHECK_MSG(
      bucket != t.buckets.end() && !bucket->second.empty(),
      "ring tenant with no queued jobs");
  Job job = std::move(bucket->second.front());
  bucket->second.pop_front();
  if (bucket->second.empty()) t.buckets.erase(bucket);
  --t.queued;
  --total_pending_;
  --t.deficit;
  if (t.queued == 0) {
    DropFromRingLocked(tenant);
  } else if (t.deficit == 0) {
    // Deficit spent: the next dispatch serves the next tenant in the ring.
    if (++cursor_ >= ring_.size()) cursor_ = 0;
  }
  return job;
}

void FairScheduler::WorkerLoop() {
  t_sched_worker = true;
  // One thread budget for the pool: inner ParallelFor calls issued by jobs
  // on this worker see inner_threads_ instead of the machine default.
  ScopedParallelism inner(inner_threads_);
  for (;;) {
    Job job;
    // Stays valid while the job runs: only an idle tenant's entry is erased.
    std::map<std::string, TenantQueue>::iterator tenant;
    {
      MutexLock lock(&mu_);
      while (total_pending_ == 0 && !shutdown_) not_empty_.Wait(mu_);
      if (total_pending_ == 0) return;  // shutdown with a drained queue
      job = NextJobLocked();
      tenant = tenants_.find(job.tenant);
      ++tenant->second.running;
      ++running_;
      not_full_.NotifyOne();
    }
    runner_(std::move(job));
    {
      MutexLock lock(&mu_);
      --running_;
      ++jobs_executed_;
      // Forget an idle default-weight tenant: tenant names come from
      // clients, and an entry per name ever seen would grow without bound.
      TenantQueue& t = tenant->second;
      if (--t.running == 0 && t.queued == 0 && t.weight == 1) {
        tenants_.erase(tenant);
      }
      if (total_pending_ == 0 && running_ == 0) idle_.NotifyAll();
    }
  }
}

}  // namespace atr
