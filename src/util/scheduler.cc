#include "util/scheduler.h"

#include <algorithm>
#include <utility>

#include "util/macros.h"
#include "util/parallel_for.h"

namespace atr {
namespace {

// Set while a thread is executing scheduler batches; Submit CHECKs against
// it so a job can never block on the queue its own worker is draining.
thread_local bool t_sched_worker = false;

}  // namespace

FairScheduler::FairScheduler(const Options& options, BatchRunner runner)
    : runner_(std::move(runner)) {
  ATR_CHECK_MSG(runner_ != nullptr, "FairScheduler needs a BatchRunner");
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
  TenantQueue& t = tenants_[job.tenant];
  if (!t.in_ring) {
    t.in_ring = true;
    ring_.push_back(job.tenant);
  }
  t.buckets[job.priority].push_back(std::move(job));
  ++t.queued;
  ++total_pending_;
  not_empty_.NotifyOne();
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
  TenantQueue& t = tenants_[job.tenant];
  if (!t.in_ring) {
    t.in_ring = true;
    ring_.push_back(job.tenant);
  }
  t.buckets[job.priority].push_back(std::move(job));
  ++t.queued;
  ++total_pending_;
  not_empty_.NotifyOne();
  return Status::Ok();
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

uint64_t FairScheduler::jobs_executed() const {
  MutexLock lock(&mu_);
  return jobs_executed_;
}

uint64_t FairScheduler::batches_executed() const {
  MutexLock lock(&mu_);
  return batches_executed_;
}

uint64_t FairScheduler::jobs_fused() const {
  MutexLock lock(&mu_);
  return jobs_fused_;
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

std::vector<FairScheduler::Job> FairScheduler::NextBatchLocked() {
  ATR_CHECK_MSG(!ring_.empty(), "NextBatchLocked with an empty ring");
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
  std::vector<Job> batch;
  batch.push_back(std::move(job));
  if (!batch.front().batch_key.empty()) {
    CollectBatchLocked(batch.front().batch_key, &batch);
  }
  return batch;
}

void FairScheduler::CollectBatchLocked(std::string key,
                                       std::vector<Job>* batch) {
  // Fused riders are not charged against their tenant's deficit: the
  // marginal cost of riding an already-dispatched decomposition walk is
  // near zero, so fusing them early is strictly better for everyone than
  // making them wait their DRR turn to redo the same work.
  for (auto& [name, t] : tenants_) {
    if (batch->size() >= kMaxBatch) break;
    if (t.queued == 0) continue;
    for (auto bucket = t.buckets.begin();
         bucket != t.buckets.end() && batch->size() < kMaxBatch;) {
      std::deque<Job>& queue = bucket->second;
      for (auto it = queue.begin();
           it != queue.end() && batch->size() < kMaxBatch;) {
        if (it->batch_key == key) {
          batch->push_back(std::move(*it));
          it = queue.erase(it);
          --t.queued;
          --total_pending_;
        } else {
          ++it;
        }
      }
      if (queue.empty()) {
        bucket = t.buckets.erase(bucket);
      } else {
        ++bucket;
      }
    }
    if (t.queued == 0 && t.in_ring) DropFromRingLocked(name);
  }
}

void FairScheduler::WorkerLoop() {
  t_sched_worker = true;
  // One thread budget for the pool: inner ParallelFor calls issued by jobs
  // on this worker see inner_threads_ instead of the machine default.
  ScopedParallelism inner(inner_threads_);
  for (;;) {
    std::vector<Job> batch;
    std::vector<std::string> batch_tenants;
    {
      MutexLock lock(&mu_);
      while (total_pending_ == 0 && !shutdown_) not_empty_.Wait(mu_);
      if (total_pending_ == 0) return;  // shutdown with a drained queue
      batch = NextBatchLocked();
      running_ += batch.size();
      batch_tenants.reserve(batch.size());
      for (const Job& job : batch) {
        ++tenants_[job.tenant].running;
        batch_tenants.push_back(job.tenant);
      }
      // A batch may have freed several capacity slots at once.
      not_full_.NotifyAll();
    }
    const size_t fused = batch.size();
    runner_(std::move(batch));
    {
      MutexLock lock(&mu_);
      running_ -= fused;
      for (const std::string& tenant : batch_tenants) {
        --tenants_[tenant].running;
      }
      jobs_executed_ += fused;
      ++batches_executed_;
      if (fused > 1) jobs_fused_ += fused;
      if (total_pending_ == 0 && running_ == 0) idle_.NotifyAll();
    }
  }
}

}  // namespace atr
