"""Experiment harness: rate tables, figure data, predictors, single runs.

Subcommands
-----------
table1       observed vs predicted per-epoch rates for the three
             orderings over a grid of delta values
figure NAME  plot data behind the three standard figures
             (lu | different_n | expected), emitted as CSV/JSON rows
predict      every rate predictor for one (n, delta), as one record
solve        a single trajectory as epoch/objective rows

All randomness flows from --seed through documented SeedSequence mixing
(base seed, delta index, variant code, replicate), so identical
invocations produce byte-identical output files.  Starting points are
i.i.d. standard normal from the derived stream.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, asdict

import numpy as np

from .engine import (
    OrderingPolicy,
    closed_form_C,
    derive_seed,
    epoch_map,
    expected_over_x0,
    run,
)
from .errors import NumericalError
from .quadratic import PermInvariantQuadratic, build_log_uniform_spectrum, quadratic_constants
from .rates import (
    ccd_bounds,
    empirical_rate,
    generic_bounds,
    rcd_rates,
    rho_M,
    rpcd_asymptotic_rate,
    sd_rate,
    spectral_radius,
)
from .recurrence import evolve, recurrence_coeffs

__all__ = [
    "ExperimentConfig",
    "Table1Row",
    "TABLE1_DELTAS",
    "cmd_table1",
    "cmd_figure",
    "cmd_predict",
    "cmd_solve",
    "main",
]

TABLE1_DELTAS = (0.80, 0.50, 0.33, 0.20, 0.10, 0.03)
VARIANT_CODE = {"ccd": 0, "rcd": 1, "rpcd": 2}


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared experiment parameters; validated on construction."""

    n: int = 100
    deltas: tuple[float, ...] = TABLE1_DELTAS
    seed: int = 0
    replicates: int = 20
    tol: float = 1e-8
    max_epochs: int = 500_000
    epochs_budget: int = 5000
    output_path: str | None = None
    format: str = "csv"

    def __post_init__(self):
        if not self.deltas:
            raise ValueError("at least one delta is required")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if self.tol <= 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")
        for d in self.deltas:
            PermInvariantQuadratic(self.n, d)  # window check


@dataclass(frozen=True)
class Table1Row:
    """One delta row: empirical and predicted per-epoch rates."""

    delta: float
    rho_ccd_emp: float
    rho_C_sq: float
    rho_rcd_emp: float
    rho_rcd_pred: float
    rho_rpcd_emp: float
    rho_rpcd_emp_std: float
    rho_M: float


def _replicate_rate(config: ExperimentConfig, d_idx: int, variant: str, replicate: int) -> float:
    """Rate of one seeded run; NaN when the run diverges or is too short.

    The generator seeds both the Gaussian starting point and the
    coordinate ordering of the run.
    """
    rng = np.random.default_rng(derive_seed(config.seed, d_idx, VARIANT_CODE[variant], replicate))
    x0 = rng.standard_normal(config.n)
    model = PermInvariantQuadratic(config.n, config.deltas[d_idx])
    try:
        traj = run(model, OrderingPolicy(variant), x0, max_epochs=config.max_epochs,
                   tol=config.tol, seed=rng)
        return empirical_rate(traj)
    except (NumericalError, ValueError):
        return math.nan


def _valid_rates(config: ExperimentConfig, d_idx: int, variant: str) -> np.ndarray:
    """Finite replicate rates of one variant; cyclic descent runs once."""
    n_reps = 1 if variant == "ccd" else config.replicates
    rates = np.array([_replicate_rate(config, d_idx, variant, r) for r in range(n_reps)])
    return rates[~np.isnan(rates)]


def cmd_table1(config: ExperimentConfig) -> list[Table1Row]:
    """Empirical and predicted rate columns for each delta.

    Cyclic descent is run once per delta; the randomized orderings are
    run over `replicates` derived seeds and reported as replicate means
    (the permutation variant also with the replicate standard
    deviation).  A delta whose runs all fail is flagged with NaN
    empirical cells; predicted columns are always emitted.
    """
    rows = []
    for d_idx, delta in enumerate(config.deltas):
        ccd, rcd, rpcd = (_valid_rates(config, d_idx, v) for v in ("ccd", "rcd", "rpcd"))
        rows.append(
            Table1Row(
                delta=delta,
                rho_ccd_emp=float(ccd.mean()) if ccd.size else math.nan,
                rho_C_sq=spectral_radius(closed_form_C(config.n, delta)) ** 2,
                rho_rcd_emp=float(rcd.mean()) if rcd.size else math.nan,
                rho_rcd_pred=rcd_rates(config.n, delta)[1],
                rho_rpcd_emp=float(rpcd.mean()) if rpcd.size else math.nan,
                rho_rpcd_emp_std=float(rpcd.std(ddof=1)) if rpcd.size > 1 else math.nan,
                rho_M=rho_M(config.n, delta),
            )
        )
    return rows


def figure_lu(config: ExperimentConfig, condition: float = 1e4, sequences: int = 10):
    """Expected relative objective per epoch on a log-uniform spectrum.

    Emits, for each epoch, (1/2) trace(G' A G) / (n/2) with G the
    accumulated epoch product: the cyclic product C^l, and the mean over
    `sequences` sampled permutation-ordered products.  Stops at the
    epoch budget or when both curves fall below tol.
    """
    model = build_log_uniform_spectrum(config.n, condition, derive_seed(config.seed, 0))
    C = epoch_map(model)
    n = config.n
    f0 = 0.5 * n
    seq_rngs = [np.random.default_rng(derive_seed(config.seed, 1000 + k)) for k in range(sequences)]
    G_ccd = np.eye(n)
    G_seqs = [np.eye(n) for _ in range(sequences)]
    rows = [{"epoch": 0, "ccd_rel": 1.0, "rpcd_rel": 1.0}]
    for epoch in range(1, config.epochs_budget + 1):
        G_ccd = C @ G_ccd
        ccd_val = expected_over_x0(model, (G_ccd,))
        rpcd_vals = []
        for k, rng in enumerate(seq_rngs):
            G_seqs[k] = epoch_map(model, rng.permutation(n)) @ G_seqs[k]
            rpcd_vals.append(expected_over_x0(model, (G_seqs[k],)))
        rpcd_val = float(np.mean(rpcd_vals))
        rows.append(
            {"epoch": epoch, "ccd_rel": ccd_val / f0, "rpcd_rel": rpcd_val / f0}
        )
        if ccd_val <= config.tol and rpcd_val <= config.tol:
            break
    return rows


def figure_different_n(config: ExperimentConfig, delta: float = 0.001, ns=(10, 20, 40, 80)):
    """Per-epoch traces of all three orderings across dimensions.

    Uses a fixed epoch budget (rather than running tiny-delta cyclic
    descent to tolerance, which would need ~n^2/delta epochs); rates are
    meant to be read off the last-10-epoch window.
    """
    rows = []
    for n in ns:
        PermInvariantQuadratic(n, delta)
        for variant in ("ccd", "rpcd", "rcd"):
            rng = np.random.default_rng(derive_seed(config.seed, n, VARIANT_CODE[variant], 0))
            x0 = rng.standard_normal(n)
            traj = run(
                PermInvariantQuadratic(n, delta),
                OrderingPolicy(variant),
                x0,
                max_epochs=config.epochs_budget,
                tol=config.tol,
                seed=rng,
            )
            f0 = traj.f_per_epoch[0]
            for epoch, f in enumerate(traj.f_per_epoch):
                rows.append(
                    {
                        "variant": variant,
                        "n": n,
                        "epoch": epoch,
                        "f": float(f),
                        "f_over_f0": float(f / f0) if f0 > 0 else 0.0,
                    }
                )
    return rows


def figure_expected(config: ExperimentConfig, delta: float = 0.05):
    """Realized objective of one permutation-ordered run vs its closed form.

    The closed-form column is (n/2)(eta_l + nu_l), recomputed from the
    recurrence matrix at every epoch.
    """
    n = config.n
    rng = np.random.default_rng(derive_seed(config.seed, 0, VARIANT_CODE["rpcd"], 0))
    x0 = rng.standard_normal(n)
    traj = run(
        PermInvariantQuadratic(n, delta),
        OrderingPolicy("rpcd"),
        x0,
        max_epochs=config.max_epochs,
        tol=config.tol,
        seed=rng,
    )
    M = recurrence_coeffs(n, delta)
    rows = []
    for epoch, f in enumerate(traj.f_per_epoch):
        pair = evolve(M, delta, epoch)
        rows.append(
            {
                "epoch": epoch,
                "f_realized": float(f),
                "f_expected": 0.5 * n * (pair.eta + pair.nu),
            }
        )
    return rows


def cmd_figure(name: str, config: ExperimentConfig, **kwargs):
    """Dispatch to one of the figure-data generators."""
    if name == "lu":
        return figure_lu(config, **kwargs)
    if name == "different_n":
        return figure_different_n(config, **kwargs)
    if name == "expected":
        return figure_expected(config, **kwargs)
    raise ValueError(f"unknown figure {name!r}; expected lu, different_n, or expected")


def cmd_predict(n: int, delta: float) -> dict:
    """Every predictor for one (n, delta), as a flat record."""
    model = PermInvariantQuadratic(n, delta)
    consts = quadratic_constants(model)
    M = recurrence_coeffs(n, delta)
    upper, lower = ccd_bounds(n, delta)
    q_epoch, r_epoch = rcd_rates(n, delta)
    gb = generic_bounds(consts, n, alpha=1.0 / consts.L)
    return {
        "n": n,
        "delta": delta,
        "rho_C_sq": spectral_radius(closed_form_C(n, delta)) ** 2,
        "rho_M": rho_M(n, delta),
        "rpcd_asymptotic": rpcd_asymptotic_rate(n, delta),
        "ccd_upper": upper,
        "ccd_lower": lower,
        "rcd_epoch": q_epoch,
        "rcd_epoch_r": r_epoch,
        "sd_rate": sd_rate(consts),
        "bt_alpha": gb.alpha,
        "beck_tetruashvili": gb.beck_tetruashvili,
        "sun_ye": gb.sun_ye,
        "sun_ye_terms": list(gb.sun_ye_terms),
        "d1": M.d1,
        "d2": M.d2,
        "m1": M.m1,
        "m2": M.m2,
    }


def cmd_solve(
    n: int,
    delta: float,
    variant: str,
    seed: int = 0,
    tol: float = 1e-8,
    max_epochs: int = 500_000,
    x0_mode: str = "gaussian",
):
    """One run; rows of (epoch, f, f_over_f0)."""
    rng = np.random.default_rng(derive_seed(seed, 0, VARIANT_CODE[variant], 0))
    if x0_mode == "gaussian":
        x0 = rng.standard_normal(n)
    elif x0_mode == "zero":
        x0 = np.zeros(n)
    else:
        raise ValueError(f"x0_mode must be gaussian or zero, got {x0_mode!r}")
    traj = run(
        PermInvariantQuadratic(n, delta),
        OrderingPolicy(variant),
        x0,
        max_epochs=max_epochs,
        tol=tol,
        seed=rng,
    )
    f0 = traj.f_per_epoch[0]
    return [
        {"epoch": epoch, "f": float(f), "f_over_f0": float(f / f0) if f0 > 0 else 0.0}
        for epoch, f in enumerate(traj.f_per_epoch)
    ]


def write_rows(rows, fieldnames, fmt: str, path: str | None, config_echo: dict | None = None) -> str:
    """Serialize rows to CSV (LF, header row) or JSON (with config echo).

    Returns the serialized text; writes it to `path` unless path is None
    or "-", in which case it goes to stdout.
    """
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        payload = {"config": config_echo or {}, "rows": rows}
        text = json.dumps(payload, indent=2) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    return text


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-epochs", type=int, default=500_000)
    p.add_argument("--epochs-budget", type=int, default=5000)
    p.add_argument("--replicates", type=int, default=20)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, metavar="PATH")


def _config_from_args(args, deltas=None) -> ExperimentConfig:
    return ExperimentConfig(
        n=args.n,
        deltas=tuple(deltas) if deltas is not None else TABLE1_DELTAS,
        seed=args.seed,
        replicates=args.replicates,
        tol=args.tol,
        max_epochs=args.max_epochs,
        epochs_budget=args.epochs_budget,
        output_path=args.output,
        format=args.format,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cdlab",
        description="Coordinate descent ordering experiments on convex quadratics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table1", help="observed vs predicted per-epoch rates")
    p_table.add_argument(
        "--delta", type=float, action="append", default=None,
        help="delta value; repeat for several (default: the standard grid)",
    )
    _add_common_flags(p_table)

    p_fig = sub.add_parser("figure", help="emit data behind a standard figure")
    p_fig.add_argument("name", choices=("lu", "different_n", "expected"))
    p_fig.add_argument("--delta", type=float, default=None)
    p_fig.add_argument("--condition", type=float, default=1e4)
    p_fig.add_argument("--sequences", type=int, default=10,
                       help="permutation sequences averaged for the lu figure")
    _add_common_flags(p_fig)

    p_pred = sub.add_parser("predict", help="all rate predictors for one (n, delta)")
    p_pred.add_argument("--delta", type=float, required=True)
    _add_common_flags(p_pred)

    p_solve = sub.add_parser("solve", help="one trajectory as epoch/objective rows")
    p_solve.add_argument("--delta", type=float, required=True)
    p_solve.add_argument("--variant", choices=("ccd", "rcd", "rpcd"), default="ccd")
    p_solve.add_argument("--x0", choices=("gaussian", "zero"), default="gaussian")
    _add_common_flags(p_solve)

    args = parser.parse_args(argv)

    if args.command == "table1":
        config = _config_from_args(args, deltas=args.delta)
        rows = [asdict(r) for r in cmd_table1(config)]
        write_rows(rows, list(rows[0].keys()), args.format, args.output, asdict(config))
        return 0

    if args.command == "figure":
        config = _config_from_args(args)
        kwargs = {}
        if args.name == "lu":
            kwargs = {"condition": args.condition, "sequences": args.sequences}
        elif args.delta is not None:
            kwargs = {"delta": args.delta}
        rows = cmd_figure(args.name, config, **kwargs)
        echo = dict(asdict(config), figure=args.name, **kwargs)
        write_rows(rows, list(rows[0].keys()), args.format, args.output, echo)
        return 0

    if args.command == "predict":
        report = cmd_predict(args.n, args.delta)
        if args.format == "csv":
            row = {k: v for k, v in report.items() if k != "sun_ye_terms"}
            write_rows([row], list(row.keys()), "csv", args.output)
        else:
            text = json.dumps({"config": {"n": args.n, "delta": args.delta}, "report": report},
                              indent=2) + "\n"
            if args.output in (None, "-"):
                sys.stdout.write(text)
            else:
                with open(args.output, "w", newline="") as fh:
                    fh.write(text)
        return 0

    if args.command == "solve":
        rows = cmd_solve(
            args.n, args.delta, args.variant,
            seed=args.seed, tol=args.tol, max_epochs=args.max_epochs, x0_mode=args.x0,
        )
        echo = {"command": "solve", "n": args.n, "delta": args.delta, "variant": args.variant,
                "seed": args.seed, "tol": args.tol, "max_epochs": args.max_epochs, "x0": args.x0}
        write_rows(rows, list(rows[0].keys()), args.format, args.output, echo)
        return 0

    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
