#!/usr/bin/env python3
"""Compare the stdout of figure benches between two builds, byte for byte.

The figure benches print deterministic tables for a given
``NEBULA_BENCH_SCALE`` (any pool size), so a change that must not alter
behaviour can be checked by running each bench from a build of the parent
and a build of the change and comparing what they print.

Usage:
  python3 tools/cmp_bench_stdout.py --parent-build ../parent/build \\
      --change-build build bench_fig08_memory bench_fig_faults

Prints ``identical`` or ``different`` per bench and exits 1 if any bench
differs or fails to run. The two builds of one bench run concurrently;
benches run one after another.
"""

import argparse
import os
import subprocess
import sys
import time


def start(build, bench, env):
    path = os.path.join(build, "bench", bench)
    if not os.access(path, os.X_OK):
        sys.exit(f"{path}: no such executable")
    return subprocess.Popen([path], stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, env=env)


def first_difference(a, b):
    """1-based line number and the two lines where `a` and `b` first differ."""
    la, lb = a.splitlines(), b.splitlines()
    for i in range(max(len(la), len(lb))):
        x = la[i] if i < len(la) else b"<end of output>"
        y = lb[i] if i < len(lb) else b"<end of output>"
        if x != y:
            return i + 1, x, y
    return len(la), b"<ends with a newline or not>", b""


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent-build", required=True)
    ap.add_argument("--change-build", required=True)
    ap.add_argument("--scale", default="0.3",
                    help="NEBULA_BENCH_SCALE for both runs (default 0.3)")
    ap.add_argument("benches", nargs="+",
                    help="bench names, e.g. bench_fig08_memory")
    args = ap.parse_args()

    env = dict(os.environ, NEBULA_BENCH_SCALE=args.scale)
    all_identical = True
    for bench in args.benches:
        t0 = time.monotonic()
        runs = [start(b, bench, env)
                for b in (args.parent_build, args.change_build)]
        outs = [p.communicate()[0] for p in runs]
        secs = time.monotonic() - t0
        codes = [p.returncode for p in runs]
        if codes != [0, 0]:
            print(f"{bench}: failed (exit codes: parent {codes[0]}, "
                  f"change {codes[1]})")
            all_identical = False
        elif outs[0] == outs[1]:
            print(f"{bench}: identical ({len(outs[0])} bytes, {secs:.0f} s)")
        else:
            line, x, y = first_difference(outs[0], outs[1])
            print(f"{bench}: different (from line {line})")
            print(f"  parent: {x.decode(errors='replace')}")
            print(f"  change: {y.decode(errors='replace')}")
            all_identical = False
        sys.stdout.flush()
    return 0 if all_identical else 1


if __name__ == "__main__":
    sys.exit(main())
