// Measurement plumbing shared by the benchmark workloads: sample sets with
// order statistics, an in-memory span recorder for the traced run, and the
// result sink that prints metrics and the final JSON line.

#ifndef ATR_PERFBENCH_TRACE_H_
#define ATR_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// A set of measured values (times or counts) with order statistics.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Sum() const;
  double Mean() const;
  double Median() const { return Quantile(0.5); }
  // Linear interpolation between closest ranks; 0 when empty.
  double Quantile(double q) const;
  // The gated tail, p90. It stops at p90 on purpose: on a shared host, p99
  // of millisecond operations measures preemption of the host, not the
  // program (update p99 read 4 ms and 13 ms in back-to-back sets of the
  // same code).
  double Tail() const { return Quantile(0.9); }
  // "range min .. max", for the printed lines.
  std::string Range() const;

 private:
  std::vector<double> values_;
};

// In-memory span recorder. Disabled tracers record nothing, so the untraced
// run pays one branch per span. Thread-safe.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  // Opens a span; `request` groups the spans of one operation and `parent`
  // is the id of the span that caused it (0 = none). Returns 0 when
  // disabled.
  uint32_t Begin(const char* name, uint64_t request = 0, uint32_t parent = 0);
  void End(uint32_t id);

  // Adds `value` to the named per-layer count (one sample per call).
  void Count(const char* name, double value);

  // Durations (ms) of every closed span with this name.
  Samples Durations(const std::string& name) const;
  // Samples recorded by Count under this name.
  Samples Counts(const std::string& name) const;

  // Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t request;
    uint32_t parent;
    double start_us;
    double end_us;
  };

  double NowUs() const;

  const bool enabled_;
  const Clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // index + 1 is the span id
  std::map<std::string, Samples> counts_;
};

// RAII span around one call into a layer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t request = 0,
             uint32_t parent = 0)
      : tracer_(tracer), id_(tracer.Begin(name, request, parent)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  const uint32_t id_;
};

// Collects one run's outcome. Every metric is printed as a human-readable
// line (with its sample count); the JSON line at exit carries only the
// metrics the run mode selected.
class Report {
 public:
  // `key` is the metric name in BENCHMARK.json; `label` is the name the
  // line prints (the workload-specific meaning of a shared key).
  void Metric(const std::string& key, const std::string& label, double value,
              const std::string& unit, size_t samples,
              const std::string& range = "");
  // A correctness check over `attempted` operations of which `failed`
  // produced a wrong or failed result.
  void Check(const std::string& what, uint64_t attempted, uint64_t failed);
  // A line with no metric (configuration, notes).
  void Note(const std::string& line);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  // Prints the failure share and the JSON result line.
  void Finish() const;

 private:
  struct Entry {
    std::string key;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace perfbench

#endif  // ATR_PERFBENCH_TRACE_H_
