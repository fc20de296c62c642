#!/usr/bin/env python3
"""ATR invariant linter — project-specific rules clang-tidy cannot express.

Rules (each with an id usable in suppressions):

  determinism   src/core/, src/graph/, and src/truss/ must stay
                bit-deterministic: no process randomness
                (rand/srand/std::random_device) and no wall clock
                (system_clock, time(), gettimeofday, localtime).
                Seeded generators (std::mt19937 with an explicit seed) and
                the monotonic steady_clock are fine — only ambient
                nondeterminism is banned.

  raii-lock     No naked .lock()/.unlock()/.try_lock() calls outside
                src/util/mutex.h. Everything else goes through the
                annotated Mutex/MutexLock wrappers so the clang
                thread-safety analysis sees every acquire and release.

  stderr        No raw fprintf(stderr, ...) outside the sanctioned files
                (util/macros.h for ATR_CHECK, net/server.cc for the two
                operational disconnect logs). Diagnostics elsewhere either
                flow through Status or carry an explicit suppression.

  env-knob      No environment reads (getenv, secure_getenv, GetEnv*)
                outside the sanctioned files: util/env.h and util/env.cc
                (the readers), util/parallel_for.cc (ATR_THREADS) and
                eval/datasets.cc (the bench-scale knobs). A tuning value
                read from the environment is a process-wide option that no
                test or benchmark sweeps; pass it as a parameter instead.

Suppression: append `// atr-lint: allow(<rule>)` to the offending line or
place it alone on the line directly above. Every suppression is a reviewed
exception; docs/STATIC_ANALYSIS.md has the policy.

Usage:
  tools/atr_lint.py [path ...]        lint files/trees (default: src/)
  tools/atr_lint.py --list-rules      print the rule catalog

Exit status: 0 clean, 1 violations found, 2 usage/IO error.
"""

import argparse
import os
import re
import sys

LINT_EXTENSIONS = {".cc", ".cpp", ".cxx", ".h", ".hpp"}

ALLOW_RE = re.compile(r"//\s*atr-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")


def _path_parts(path):
    return os.path.normpath(path).split(os.sep)


class Rule:
    """One lint rule: a set of banned patterns scoped by path predicates."""

    def __init__(self, rule_id, summary, patterns, applies, sanctioned=()):
        self.rule_id = rule_id
        self.summary = summary
        self.patterns = [(re.compile(p), msg) for p, msg in patterns]
        self._applies = applies
        self._sanctioned = tuple(sanctioned)

    def applies_to(self, path):
        norm = os.path.normpath(path).replace(os.sep, "/")
        for suffix in self._sanctioned:
            if norm.endswith(suffix):
                return False
        return self._applies(norm, _path_parts(path))


def _in_deterministic_kernel(_norm, parts):
    return "core" in parts or "graph" in parts or "truss" in parts


RULES = [
    Rule(
        "determinism",
        "no ambient randomness or wall clock in src/core/ + src/graph/ + "
        "src/truss/",
        [
            (r"\b(?:std::)?s?rand\s*\(", "rand()/srand() is ambient randomness"),
            (r"\bstd::random_device\b", "random_device is ambient randomness"),
            (r"\bsystem_clock\b", "system_clock is wall-clock time"),
            (r"\bgettimeofday\s*\(", "gettimeofday is wall-clock time"),
            (r"\b(?:std::)?time\s*\(\s*(?:NULL|nullptr|0)?\s*\)",
             "time() is wall-clock time"),
            (r"\b(?:std::)?(?:localtime|gmtime|ctime)\s*\(",
             "calendar time is wall-clock time"),
        ],
        applies=_in_deterministic_kernel,
    ),
    Rule(
        "raii-lock",
        "no naked .lock()/.unlock()/.try_lock() outside src/util/mutex.h",
        [
            (r"\.\s*(?:try_)?lock\s*\(\s*\)",
             "use Mutex/MutexLock (util/mutex.h) so the thread-safety "
             "analysis sees the acquire"),
            (r"\.\s*unlock\s*\(\s*\)",
             "use MutexLock::Unlock() so the thread-safety analysis sees "
             "the release"),
        ],
        applies=lambda norm, parts: True,
        sanctioned=["util/mutex.h"],
    ),
    Rule(
        "stderr",
        "no raw fprintf(stderr, ...) outside sanctioned files",
        [
            (r"\bfprintf\s*\(\s*stderr\b",
             "route diagnostics through Status, or suppress with a reviewed "
             "atr-lint: allow(stderr)"),
        ],
        applies=lambda norm, parts: True,
        sanctioned=["util/macros.h", "net/server.cc"],
    ),
    Rule(
        "env-knob",
        "no environment reads outside util/env, util/parallel_for.cc and "
        "eval/datasets.cc",
        [
            (r"\b(?:(?:std::)?(?:secure_)?getenv|GetEnv[A-Z0-9]\w*)\s*\(",
             "an environment variable is a process-wide knob; take the value "
             "as a parameter"),
        ],
        applies=lambda norm, parts: True,
        sanctioned=["util/env.h", "util/env.cc", "util/parallel_for.cc",
                    "eval/datasets.cc"],
    ),
]


def strip_code_line(line, in_block_comment):
    """Remove comments and string/char literal contents from one line.

    Returns (stripped_line, still_in_block_comment). Deliberately simple:
    no raw strings, no line continuations — the codebase avoids both in
    the constructs these rules match.
    """
    out = []
    i = 0
    n = len(line)
    state = "block" if in_block_comment else "code"
    while i < n:
        c = line[i]
        nxt = line[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                break
            if c == "/" and nxt == "*":
                state = "block"
                i += 2
                continue
            if c == '"':
                state = "dq"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "sq"
                out.append(c)
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
                continue
            i += 1
        else:  # inside a string or char literal
            if c == "\\":
                i += 2
                continue
            if (state == "dq" and c == '"') or (state == "sq" and c == "'"):
                out.append(c)
                state = "code"
                i += 1
                continue
            i += 1
    return "".join(out), state == "block"


def allowed_rules(raw_line):
    match = ALLOW_RE.search(raw_line)
    if not match:
        return set()
    return {r.strip() for r in match.group(1).split(",")}


def lint_file(path):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            raw_lines = f.read().splitlines()
    except OSError as err:
        print(f"atr_lint: cannot read {path}: {err}", file=sys.stderr)
        return None

    active = [rule for rule in RULES if rule.applies_to(path)]
    if not active:
        return []

    findings = []
    in_block = False
    prev_allows = set()
    for lineno, raw in enumerate(raw_lines, start=1):
        code, in_block = strip_code_line(raw, in_block)
        allows = allowed_rules(raw) | prev_allows
        # An allow-comment alone on a line covers the next line.
        prev_allows = allowed_rules(raw) if not code.strip() else set()
        for rule in active:
            if rule.rule_id in allows:
                continue
            for pattern, message in rule.patterns:
                if pattern.search(code):
                    findings.append(
                        (path, lineno, rule.rule_id, message, raw.strip()))
                    break
    return findings


def collect_files(paths):
    files = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
        elif os.path.isdir(path):
            for root, _dirs, names in os.walk(path):
                for name in sorted(names):
                    if os.path.splitext(name)[1] in LINT_EXTENSIONS:
                        files.append(os.path.join(root, name))
        else:
            print(f"atr_lint: no such path: {path}", file=sys.stderr)
            return None
    return files


def main(argv):
    parser = argparse.ArgumentParser(
        prog="atr_lint.py",
        description="ATR invariant linter (see module docstring).")
    parser.add_argument("paths", nargs="*", help="files or trees (default: src/)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.rule_id:12s} {rule.summary}")
        return 0

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = args.paths or [os.path.join(repo_root, "src")]
    files = collect_files(paths)
    if files is None:
        return 2

    total = 0
    for path in files:
        findings = lint_file(path)
        if findings is None:
            return 2
        for fpath, lineno, rule_id, message, snippet in findings:
            total += 1
            print(f"{fpath}:{lineno}: [{rule_id}] {message}")
            print(f"    {snippet}")
    if total:
        print(f"atr_lint: {total} violation(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
