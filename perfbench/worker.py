"""One benchmark process: set a workload up, time its passes, check its outputs.

    python3 perfbench/worker.py --root . --workload table1 --seed 0 --mode measure --seconds 20 --trace 0

run.py starts it.  Modes:

- setup:     import cdlab, build the inputs, warm up, print "ready", exit.
             run.py times interpreter start to that line as setup_s.
- measure:   as setup, then the timed passes; prints a JSON summary as its
             last line.  With --trace 1 it also times traced passes, the
             epoch-kernel sweep and a drift pass against reference/.
- reference: save the outputs of CLI seed 0 to reference/<workload>.json,
             the point later drift is measured from.

Before "ready" the process only imports cdlab and workloads.py, builds
the inputs and makes the warm-up call; tracing, the sweep and the
references load afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"


def timed_pass(main, commands) -> tuple[float, int]:
    """Run one pass of main() calls; (seconds, calls that raised)."""
    t0 = time.perf_counter()
    raised = 0
    for argv in commands:
        try:
            main(argv)
        except Exception:
            traceback.print_exc()
            raised += 1
    return time.perf_counter() - t0, raised


def read_outputs(commands) -> list[str | None]:
    texts = []
    for argv in commands:
        path = argv[argv.index("--output") + 1]
        try:
            with open(path) as fh:
                texts.append(fh.read())
        except FileNotFoundError:
            texts.append(None)
    return texts


def clear_outputs(commands) -> None:
    for argv in commands:
        path = argv[argv.index("--output") + 1]
        if os.path.exists(path):
            os.remove(path)


def run_record() -> dict:
    """Versions, core count and BLAS threads of this process."""
    import ctypes
    import glob
    import platform

    import numpy
    import scipy

    blas = []
    for mod in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(mod.__file__)), mod.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
            lib = ctypes.CDLL(path)
            entry = {"used_by": mod.__name__, "library": os.path.basename(path)}
            for suffix in ("64_", ""):
                get_threads = getattr(lib, "scipy_openblas_get_num_threads" + suffix, None)
                get_config = getattr(lib, "scipy_openblas_get_config" + suffix, None)
                if get_threads is not None:
                    get_threads.restype = ctypes.c_int
                    entry["threads"] = get_threads()
                if get_config is not None:
                    get_config.restype = ctypes.c_char_p
                    entry["config"] = get_config().decode()
                if get_threads is not None:
                    break
            blas.append(entry)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "cli_threads": 1,
    }


def measure(args, cli, wl, inputs, outdir) -> dict:
    import resource
    import statistics

    import numpy as np

    from tracing import Tracer, COMMAND, ROOT
    from sweep import epoch_sweep
    from workloads import Tally, cli_seeds

    seeds = cli_seeds(args.seed)
    k = len(inputs)
    passes = []  # (input index, seconds, calls raised, output texts)

    def one_pass(j, main=cli.main, wrap=None):
        clear_outputs(inputs[j])
        fn = timed_pass if wrap is None else wrap(ROOT, timed_pass)
        wall, raised = fn(main, inputs[j])
        passes.append((j, wall, raised, read_outputs(inputs[j])))
        return wall

    summary = {}
    if not args.trace:
        # Closed loop, one client: at least one pass per input, then until --seconds.
        start = time.perf_counter()
        j = 0
        while True:
            wall = one_pass(j % k)
            j += 1
            if j >= k and time.perf_counter() - start + wall > args.seconds:
                break
        summary["walls"] = [[p[1] for p in passes if p[0] == j] for j in range(k)]
        summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        # Each input once untraced and once traced, alternating which goes first.
        tracers, traced, untraced = [], [], []
        for j in range(k):
            for traced_now in ((False, True) if j % 2 == 0 else (True, False)):
                if not traced_now:
                    untraced.append(one_pass(j))
                    continue
                tracer = Tracer()
                with tracer.patched():
                    traced.append(one_pass(j, main=tracer.wrap(COMMAND, cli.main), wrap=tracer.wrap))
                tracers.append(tracer)
        # median_low keeps counts to values one pass actually had.
        per_pass = [t.metrics() for t in tracers]
        layer = {name: statistics.median_low(m[name] for m in per_pass) for name in per_pass[0]}
        layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        spans = {}
        for j, tracer in enumerate(tracers):
            spans.update(tracer.columns(j))
        np.savez(os.path.join(args.root, OUT_DIR, f"spans-{args.workload}.npz"), **spans)
        layer.update(epoch_sweep(args.seed))
        layer["checks.max_drift_rel"] = drift(wl, outdir, cli)
        summary["per_layer"] = layer

    tally = Tally()
    refs = {}
    for j, wall, raised, texts in passes:
        if raised or None in texts:
            tally.missing(f"{wl.name} output of CLI seed {seeds[j]}", 1)
            continue
        if j not in refs:
            refs[j] = wl.reference(seeds[j])
        try:
            wl.check(texts, refs[j], tally)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            tally.missing(f"{wl.name} output of CLI seed {seeds[j]} ({exc!r})", 1)
    summary.update(attempted=tally.values, failed=tally.failed, first_failure=tally.first_failure,
                   passes=len(passes), cli_seeds=seeds, record=run_record())
    return summary


def reference_path(wl) -> str:
    return os.path.join(HERE, "reference", f"{wl.name}.json")


def seed0_values(wl, outdir, cli) -> dict[str, list[float]] | None:
    """Output values of one untimed pass at CLI seed 0; None if a call failed."""
    commands = [c + ["--output", os.path.join(outdir, f"seed0-{i}.{wl.ext}")]
                for i, c in enumerate(wl.commands(0))]
    _, raised = timed_pass(cli.main, commands)
    texts = read_outputs(commands)
    return None if raised or None in texts else wl.values(texts)


def drift(wl, outdir, cli) -> float:
    """Largest relative difference of CLI seed 0's outputs from reference/.

    Compared per saved column; a failed pass, or a column that is gone or
    changed length, counts as 1.0.
    """
    values = seed0_values(wl, outdir, cli)
    if values is None:
        return 1.0
    with open(reference_path(wl)) as fh:
        saved = json.load(fh)["values"]
    worst = 0.0
    for key, refs in saved.items():
        now = values.get(key, [])
        if len(now) != len(refs):
            worst = max(worst, 1.0)
        for v, r in zip(now, refs):
            worst = max(worst, abs(v - r) / abs(r) if r != 0.0 else abs(v))
    return worst


def save_reference(wl, outdir, cli) -> None:
    values = seed0_values(wl, outdir, cli)
    if values is None:
        raise SystemExit("reference pass failed")
    os.makedirs(os.path.dirname(reference_path(wl)), exist_ok=True)
    with open(reference_path(wl), "w") as fh:
        json.dump({"workload": wl.name, "cli_seed": 0, "values": values}, fh)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "measure", "reference"), default="measure")
    args = ap.parse_args(argv)
    args.root = os.path.abspath(args.root)

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import cdlab.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"cdlab was imported from {cli.__file__}, not from {src}")
    from workloads import WORKLOADS, cli_seeds

    wl = WORKLOADS[args.workload]
    outdir = os.path.join(args.root, OUT_DIR, f"{wl.name}-{os.getpid()}")
    os.makedirs(outdir, exist_ok=True)
    try:
        inputs = [
            [c + ["--output", os.path.join(outdir, f"{j}-{i}.{wl.ext}")] for i, c in enumerate(wl.commands(s))]
            for j, s in enumerate(cli_seeds(args.seed))
        ]
        cli.main(wl.warmup + ["--seed", str(args.seed), "--output", os.path.join(outdir, f"warmup.{wl.ext}")])
        print("ready", flush=True)
        if args.mode == "reference":
            save_reference(wl, outdir, cli)
        elif args.mode == "measure":
            print(json.dumps(measure(args, cli, wl, inputs, outdir)), flush=True)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
