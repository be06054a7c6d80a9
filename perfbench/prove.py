"""Repeat the benchmark over seeds and report each end-to-end metric's spread.

    python3 perfbench/prove.py --seeds 0-9 --out perfbench/results/<name>.json
    python3 perfbench/prove.py --workload table1 --seeds 0-4

Runs BENCHMARK.json's command with --trace 0 once per workload and seed,
then once with --trace 1 on the first seed.  For each end-to-end metric
it prints the median, the quartiles of statistics.quantiles(n=4), and the
spread (q3 - q1) / median next to the metric's bound.  Run from the
repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return {"record": json.loads(lines[-2])["record"], "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", help="repeat for several (default: all)")
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--no-trace", action="store_true", help="skip the traced run")
    ap.add_argument("--out", help="write every run and the summary to this JSON file")
    args = ap.parse_args(argv)

    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    report = {"seeds": seeds, "run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for workload in workloads:
        runs = [run_once(bench, workload, s, 0) for s in seeds]
        entry = {"runs": runs, "summary": {}}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values * 3)
            spread = (q3 - q1) / q2
            entry["summary"][name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
            gated = name != "setup_s"
            mark = "ok" if not gated or spread < bound / 3 else ("WITHIN BOUND" if spread < bound else "TOO WIDE")
            ok &= not gated or spread < bound
            print(f"{workload:18s} {name:12s} median {q2:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {spread:.4f}  bound {bound}  {mark}", flush=True)
        correct = all(r["result"]["correct"] for r in runs)
        ok &= correct
        print(f"{workload:18s} correct on every run: {correct}", flush=True)
        if not args.no_trace:
            entry["traced"] = run_once(bench, workload, seeds[0], 1)
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
