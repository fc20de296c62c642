// Wall-clock timing for the benchmark harnesses.

#ifndef ATR_UTIL_TIMER_H_
#define ATR_UTIL_TIMER_H_

#include <chrono>

namespace atr {

// Monotonic stopwatch started at construction.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace atr

#endif  // ATR_UTIL_TIMER_H_
