#!/usr/bin/env python3
"""Check a fresh `mdxbench -bench-core` snapshot against the committed one.

Usage:
    check_bench.py BENCH_core.json fresh_core.json

Only the deterministic fields gate: every case's simulated-cycle count is a
pure function of the spec, identical on any machine, and every experiment
must pass its shape criterion. A divergence is a semantic change and fails.

Cycle rates are hardware-dependent and the committed ones were recorded on a
different machine, so the rate ratio is printed for the log and never fails
the check. Timing regressions are judged by bench/run.sh, which runs parent
and change on the same box.
"""

import json
import sys


def fail(msg):
    print("check_bench: FAIL:", msg)
    sys.exit(1)


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        sys.exit(2)
    with open(sys.argv[1]) as f:
        base = {e["name"]: e for e in json.load(f)}
    with open(sys.argv[2]) as f:
        cur = {e["name"]: e for e in json.load(f)}
    if set(base) - set(cur):
        fail(f"missing core cases: {sorted(set(base) - set(cur))}")
    for name, b in base.items():
        c = cur[name]
        if not c["pass"]:
            fail(f"{name}: shape criterion failed")
        if c["cycles"] != b["cycles"]:
            fail(
                f"{name}: simulated cycles diverged from baseline: "
                f"{c['cycles']} vs {b['cycles']} (deterministic field)"
            )
        ratio = c["cycles_per_sec"] / b["cycles_per_sec"]
        print(
            f"check_bench: {name}: {c['cycles_per_sec']:.0f} cyc/s, "
            f"{ratio:.2f}x the committed {b['cycles_per_sec']:.0f} (informational)"
        )
    print("check_bench: OK")


if __name__ == "__main__":
    main()
