#!/usr/bin/env python3
"""Perf-trajectory harness: distil kernel benchmarks into BENCH_kernels.json.

Runs ``bench_micro_kernels`` with ``--benchmark_format=json`` (or ingests a
pre-recorded dump via ``--from-json``) and records the distilled numbers in
``BENCH_kernels.json`` at the repo root, keyed by label. Each perf change
appends its label, so the file carries the before/after trajectory of every
kernel across the project's history. End-to-end round timing lives in
``roundbench`` (roundbench/README.md).

Usage:
  python3 tools/perf_trajectory.py --bench-bin build/bench/bench_micro_kernels
  python3 tools/perf_trajectory.py --from-json dump.json --label seed

Typically driven through the ``bench_trajectory`` CMake target.
"""

import argparse
import datetime
import json
import os
import subprocess
import sys

DEFAULT_FILTER = "BM_Gemm|BM_Conv|BM_ModuleLayer"


def run_benchmark(bench_bin, bench_filter, min_time):
    cmd = [
        bench_bin,
        f"--benchmark_filter={bench_filter}",
        "--benchmark_format=json",
        f"--benchmark_min_time={min_time}",
    ]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def distil(raw):
    """Reduce a google-benchmark JSON dump to {name: {ns, gflops?}}."""
    results = {}
    for b in raw.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        entry = {"real_time_ns": round(b["real_time"], 1)}
        ips = b.get("items_per_second")
        if ips:
            # BM_Gemm reports 2*n^3 items (flops) per iteration.
            entry["gflops"] = round(ips / 1e9, 3)
        results[b["name"]] = entry
    return results


def load_trajectory(path, note):
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    return {"schema": 1, "note": note, "entries": []}


def append_entry(out_path, note, label, context, results):
    """Append/replace `label` in a label-keyed trajectory file."""
    traj = load_trajectory(out_path, note)
    entry = {
        "label": label,
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        **context,
        "results": results,
    }
    entries = [e for e in traj["entries"] if e["label"] != label]
    entries.append(entry)
    traj["entries"] = entries
    with open(out_path, "w") as f:
        json.dump(traj, f, indent=2, sort_keys=False)
        f.write("\n")
    return entries


KERNELS_NOTE = (
    "Kernel perf trajectory. Regenerate with `make bench_trajectory` "
    "(or tools/perf_trajectory.py). Entries are append/replace by "
    "label; the first entry is the seed baseline."
)


def run_kernel_suite(args):
    if args.from_json:
        try:
            with open(args.from_json) as f:
                raw = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"error: cannot read {args.from_json}: {e}", file=sys.stderr)
            return 1
    else:
        raw = run_benchmark(args.bench_bin, args.filter, args.min_time)

    results = distil(raw)
    if not results:
        print("no benchmarks matched filter", file=sys.stderr)
        return 1

    out_path = os.path.join(args.repo_root, "BENCH_kernels.json")
    raw_ctx = raw.get("context", {})
    context = {"num_cpus": raw_ctx.get("num_cpus")}
    # Dispatch context, emitted by bench_micro_kernels' custom main: which
    # micro-kernel ran and what the CPU advertises. Old dumps lack these.
    for key in ("gemm_kernel", "cpu_features"):
        if raw_ctx.get(key) is not None:
            context[key] = raw_ctx[key]
    entries = append_entry(out_path, KERNELS_NOTE, args.label, context,
                           results)

    baseline = entries[0]["results"] if len(entries) > 1 else None
    print(f"wrote {out_path} [{args.label}]")
    for name, r in sorted(results.items()):
        line = f"  {name:32s} {r['real_time_ns']:>14.1f} ns"
        if "gflops" in r:
            line += f"  {r['gflops']:>8.3f} GFLOP/s"
        if baseline and name in baseline:
            speedup = baseline[name]["real_time_ns"] / r["real_time_ns"]
            line += f"  ({speedup:.2f}x vs {entries[0]['label']})"
        print(line)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench-bin", help="path to bench_micro_kernels")
    ap.add_argument("--from-json", help="ingest an existing benchmark dump")
    ap.add_argument("--label", default="current", help="entry label")
    ap.add_argument("--filter", default=DEFAULT_FILTER)
    ap.add_argument("--min-time", default="0.2")
    ap.add_argument("--repo-root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    args = ap.parse_args()

    if not (args.bench_bin or args.from_json):
        ap.error("need --bench-bin or --from-json")
    return run_kernel_suite(args)


if __name__ == "__main__":
    sys.exit(main())
