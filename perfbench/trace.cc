#include "trace.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Samples::Sum() const {
  double sum = 0.0;
  for (const double v : values_) sum += v;
  return sum;
}

double Samples::Mean() const {
  return values_.empty() ? 0.0 : Sum() / static_cast<double>(values_.size());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

std::string Samples::Range() const {
  if (values_.empty()) return "(no samples)";
  const auto [lo, hi] = std::minmax_element(values_.begin(), values_.end());
  char buf[64];
  std::snprintf(buf, sizeof(buf), "range %.4g .. %.4g", *lo, *hi);
  return buf;
}

uint32_t Tracer::Begin(const char* name, uint64_t request, uint32_t parent) {
  if (!enabled_) return 0;
  const double now = NowUs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, request, parent, now, -1.0});
  return static_cast<uint32_t>(spans_.size());
}

void Tracer::End(uint32_t id) {
  if (id == 0) return;
  const double now = NowUs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_us = now;
}

void Tracer::Count(const char* name, double value) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  counts_[name].Add(value);
}

Samples Tracer::Durations(const std::string& name) const {
  Samples out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& span : spans_) {
    if (span.end_us >= 0.0 && name == span.name) {
      out.Add((span.end_us - span.start_us) / 1000.0);
    }
  }
  return out;
}

Samples Tracer::Counts(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counts_.find(name);
  return it == counts_.end() ? Samples() : it->second;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"parent\": %" PRIu32 ", \"request\": %" PRIu64
                 ", \"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f}\n",
                 i + 1, s.parent, s.request, s.name, s.start_us, s.end_us);
  }
  return std::fclose(f) == 0;
}

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0_).count();
}

void Report::Metric(const std::string& key, const std::string& label,
                    double value, const std::string& unit, size_t samples,
                    const std::string& range) {
  const bool alias = !key.empty() && key != label;
  std::printf("  %-28s %14.6g %-6s n=%zu %s%s%s\n", label.c_str(), value,
              unit.c_str(), samples, range.c_str(), alias ? "  -> " : "",
              alias ? key.c_str() : "");
  if (!key.empty()) metrics_.push_back(Entry{key, value, unit});
}

void Report::Check(const std::string& what, uint64_t attempted,
                   uint64_t failed) {
  std::printf("  check %-40s %" PRIu64 "/%" PRIu64 " failed\n", what.c_str(),
              failed, attempted);
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Note(const std::string& line) {
  std::printf("  %s\n", line.c_str());
}

void Report::Finish() const {
  const double frac = attempted_ == 0
                          ? 1.0
                          : static_cast<double>(failed_) /
                                static_cast<double>(attempted_);
  std::printf("  %-28s %14.6g %-6s n=%" PRIu64 "\n", "failed_frac", frac,
              "ratio", attempted_);
  std::string json = "{\"correct\": ";
  json += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics_[i].key + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
