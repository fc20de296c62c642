// Fixture: process-wide environment knobs outside the sanctioned files.
// atr_lint.py must flag every line marked VIOLATION under rule `env-knob`.

#include <cstdlib>

#include "util/env.h"

double KernelCutoff() {
  return atr::GetEnvDouble("ATR_KERNEL_CUTOFF", 1.0);  // VIOLATION: env-knob
}

bool Verbose() {
  return std::getenv("ATR_VERBOSE") != nullptr;  // VIOLATION: env-knob
}

const char* TraceDir() {
  return secure_getenv("ATR_TRACE_DIR");  // VIOLATION: env-knob
}
