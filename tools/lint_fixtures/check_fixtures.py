#!/usr/bin/env python3
"""Self-test for tools/atr_lint.py, registered as a tier-1 ctest.

Three properties are checked:
  1. the real tree (src/) lints clean — the baseline stays at zero,
  2. every violation fixture fires its intended rule on the intended
     lines (the `// VIOLATION: <rule>` markers are the ground truth),
  3. the clean and suppressed fixtures produce no findings.
"""

import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
LINTER = os.path.join(REPO, "tools", "atr_lint.py")

MARKER_RE = re.compile(r"//\s*VIOLATION:\s*([a-z-]+)")
FINDING_RE = re.compile(r"^(.*):(\d+): \[([a-z-]+)\]")


def run_linter(*paths):
    proc = subprocess.run(
        [sys.executable, LINTER, *paths],
        capture_output=True, text=True, check=False)
    findings = set()
    for line in proc.stdout.splitlines():
        match = FINDING_RE.match(line)
        if match:
            findings.add((match.group(1), int(match.group(2)), match.group(3)))
    return proc.returncode, findings, proc.stdout + proc.stderr


def expected_violations(path):
    expected = set()
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            match = MARKER_RE.search(line)
            if match:
                expected.add((path, lineno, match.group(1)))
    return expected


def fail(message, output=""):
    print(f"FAIL: {message}")
    if output:
        print(output)
    sys.exit(1)


def main():
    # 1. The real tree is the zero baseline.
    code, findings, output = run_linter(os.path.join(REPO, "src"))
    if code != 0 or findings:
        fail("src/ must lint clean", output)

    # 2. Each violation fixture fires exactly its marked lines.
    violation_fixtures = [
        os.path.join(HERE, "core", "uses_rand.cc"),
        os.path.join(HERE, "core", "uses_wallclock.cc"),
        os.path.join(HERE, "env_knob.cc"),
        os.path.join(HERE, "naked_lock.cc"),
        os.path.join(HERE, "stray_stderr.cc"),
    ]
    for fixture in violation_fixtures:
        expected = expected_violations(fixture)
        if not expected:
            fail(f"{fixture} has no VIOLATION markers — fixture rot")
        code, findings, output = run_linter(fixture)
        if code != 1:
            fail(f"{fixture}: expected exit 1, got {code}", output)
        if findings != expected:
            fail(
                f"{fixture}: findings mismatch\n"
                f"  expected: {sorted(expected)}\n"
                f"  got:      {sorted(findings)}", output)

    # 3. Clean and suppressed fixtures stay silent.
    for fixture in [os.path.join(HERE, "core", "clean.cc"),
                    os.path.join(HERE, "suppressed.cc")]:
        code, findings, output = run_linter(fixture)
        if code != 0 or findings:
            fail(f"{fixture}: expected no findings", output)

    print("atr_lint fixture corpus: all checks passed")


if __name__ == "__main__":
    main()
