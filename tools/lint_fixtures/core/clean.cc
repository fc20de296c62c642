// Fixture: a core/ file that must lint CLEAN. Exercises the patterns the
// rules must NOT fire on: seeded (deterministic) randomness, the
// monotonic clock, RAII guards, a GetEnv look-alike name, banned tokens
// inside strings and comments.

#include <chrono>
#include <cstdio>
#include <random>
#include <string>

namespace {
struct Guard {
  void Lock() {}
  void Unlock() {}
};
}  // namespace

std::string GetEnvironmentLabel() { return "test"; }

int DeterministicDraw(unsigned seed) {
  std::mt19937 gen(seed);  // explicitly seeded: allowed
  return static_cast<int>(gen());
}

long MonotonicNowMs() {
  // steady_clock is monotonic, not wall clock: allowed.
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string Describe() {
  Guard guard;
  guard.Lock();    // wrapper methods, not std::mutex::lock(): allowed
  guard.Unlock();
  // mu.lock() or getenv("X") in a comment must not fire, nor "rand()" in
  // a string:
  std::string text = "call rand() and fprintf(stderr, ...) at your peril";
  return text + GetEnvironmentLabel();  // not a GetEnv* reader: allowed
}
