"""cdlab benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 20 --trace 0

Run from the repository root; cdlab is imported from ./src.  Workloads
(see workloads.py and BENCHMARK.json): table1, figure_lu,
expected_large_n, predict_large_n.

With --trace 0 the result holds the end-to-end metrics:

- wall_s       seconds of one pass (one or more cdlab.cli.main calls): the
               median over a CLI seed's passes, averaged over the run's CLI
               seeds so that each input weighs the same;
- setup_s      median over SETUP_SAMPLES fresh processes of the seconds from
               interpreter start until the first pass can begin (import cdlab,
               build the inputs, one small warm-up call of the same command);
- peak_rss_mb  peak resident memory of the process that ran the passes.

With --trace 1 it holds the per-layer metrics of tracing.py and sweep.py.
Both print `attempted` output values checked and `failed` values that were
nonfinite or off their reference, so failed / attempted is the error rate.
A JSON run record (versions, cores, BLAS threads, git sha) precedes the
result line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def spawn(root: str, args, mode: str, timeout: float) -> tuple[float, str]:
    """Run worker.py; (seconds from start to its "ready" line, the rest of its stdout)."""
    cmd = [sys.executable, WORKER, "--root", root, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--mode", mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(timeout, 1.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or code != 0:
        raise WorkerFailed(f"worker ({mode}) exited with code {code}")
    return ready, rest


def git_sha(root: str) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cdlab benchmark: one workload, one seed, one JSON line")
    ap.add_argument("--workload", required=True,
                    choices=("table1", "figure_lu", "expected_large_n", "predict_large_n"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cdlab", "cli.py")):
        print(f"perfbench: no cdlab source at {os.path.join(root, 'src', 'cdlab')}; "
              "run from the repository root", file=sys.stderr)
        return 2

    start = time.perf_counter()

    def remaining() -> float:
        return TIME_LIMIT_S - (time.perf_counter() - start)

    try:
        setups = [spawn(root, args, "setup", min(60.0, remaining()))[0] for _ in range(SETUP_SAMPLES - 1)]
        ready, out = spawn(root, args, "measure", remaining())
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(ready)
    summary = json.loads(out.strip().splitlines()[-1])

    record = dict(summary["record"], git_sha=git_sha(root), workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, cli_seeds=summary["cli_seeds"],
                  passes=summary["passes"], setup_samples_s=setups,
                  first_failure=summary["first_failure"])
    if args.trace:
        values = summary["per_layer"]
    else:
        wall = statistics.fmean(statistics.median(walls) for walls in summary["walls"])
        values = {"wall_s": wall, "setup_s": statistics.median(setups),
                  "peak_rss_mb": summary["peak_rss_mb"]}
        record["walls_s_by_cli_seed"] = summary["walls"]
    units = metric_units("per_layer" if args.trace else "end_to_end")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": summary["failed"] == 0 and summary["attempted"] > 0,
                      "attempted": summary["attempted"], "failed": summary["failed"], "metrics": metrics}))
    return 0


def metric_units(kind: str) -> dict[str, str]:
    """Metric names and units of one kind ("end_to_end" or "per_layer"), from BENCHMARK.json."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


if __name__ == "__main__":
    raise SystemExit(main())
