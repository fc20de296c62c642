// Project-wide invariant-check and assertion macros.
//
// The library does not use C++ exceptions. Programming errors (violated
// invariants, out-of-contract calls) abort the process with a diagnostic via
// ATR_CHECK; recoverable errors (I/O, malformed input) are reported through
// atr::Status (see util/status.h).
//
// ATR_CHECK is active in every build type: truss/anchor algorithms are
// intricate enough that silent invariant corruption is far more expensive
// than the branch. ATR_DCHECK guards the hot inner loops and is not
// evaluated outside debug builds.

#ifndef ATR_UTIL_MACROS_H_
#define ATR_UTIL_MACROS_H_

#include <cstdio>
#include <cstdlib>

#define ATR_CHECK(condition)                                                \
  do {                                                                      \
    if (!(condition)) {                                                     \
      std::fprintf(stderr, "ATR_CHECK failed at %s:%d: %s\n", __FILE__,     \
                   __LINE__, #condition);                                   \
      std::abort();                                                         \
    }                                                                       \
  } while (false)

#define ATR_CHECK_MSG(condition, msg)                                       \
  do {                                                                      \
    if (!(condition)) {                                                     \
      std::fprintf(stderr, "ATR_CHECK failed at %s:%d: %s (%s)\n",          \
                   __FILE__, __LINE__, #condition, msg);                    \
      std::abort();                                                         \
    }                                                                       \
  } while (false)

#ifdef NDEBUG
// The condition stays compiled (type-checked, and its operands count as
// used) but is never evaluated.
#define ATR_DCHECK(condition)   \
  do {                          \
    (void)sizeof(condition);    \
  } while (false)
#else
#define ATR_DCHECK(condition) ATR_CHECK(condition)
#endif

#endif  // ATR_UTIL_MACROS_H_
