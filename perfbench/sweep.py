"""Epoch-kernel sweep: microseconds per epoch of the public `cdlab.run` per model, ordering and n.

No CLI command runs the dense model through `run()`, so these numbers
are per-layer only: no end-to-end metric reflects them.  The dense model
stops at n = 1000, because at n = 10^4 its matrix alone is 800 MB.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

ORDERINGS = ("ccd", "rcd", "rpcd")
# Epochs per timed call, each call about 40 ms on a 2-core x86 host.
EPOCHS = {
    ("perm_invariant", 100): 2000,
    ("perm_invariant", 1000): 200,
    ("perm_invariant", 10000): 20,
    ("dense", 100): 50,
    ("dense", 1000): 4,
}
DELTA = 0.03  # slow enough that f stays far above 0 over every timed call
CONDITION = 1e4
REPEATS = 3


def metric_names() -> list[str]:
    return [f"engine.epoch_us.{model}.{o}.n{n}" for (model, n) in EPOCHS for o in ORDERINGS]


def epoch_sweep(seed: int) -> dict[str, float]:
    """Median over REPEATS of run(..., tol=0, max_epochs=k) time per epoch, in microseconds."""
    from cdlab import OrderingPolicy, PermInvariantQuadratic, build_log_uniform_spectrum, run

    rng = np.random.default_rng(seed)
    out = {}
    for (model_name, n), epochs in EPOCHS.items():
        if model_name == "dense":
            model = build_log_uniform_spectrum(n, CONDITION, seed)
        else:
            model = PermInvariantQuadratic(n, DELTA)
        x0 = rng.standard_normal(n)
        for ordering in ORDERINGS:
            per_epoch = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                traj = run(model, OrderingPolicy(ordering), x0, max_epochs=epochs, tol=0.0, seed=seed)
                per_epoch.append((time.perf_counter() - t0) / traj.epochs)
            out[f"engine.epoch_us.{model_name}.{ordering}.n{n}"] = 1e6 * statistics.median(per_epoch)
    return out
