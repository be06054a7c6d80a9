"""Experiment harness: rate tables, figure data, predictors, single runs.

Subcommands
-----------
table1       observed vs predicted per-epoch rates for the three
             orderings over a grid of delta values
figure NAME  plot data behind the three standard figures
             (lu | different_n | expected), emitted as CSV/JSON rows
predict      every rate predictor for one (n, delta), as one record
solve        a single trajectory as epoch/objective rows

The predicted columns (rho_C_sq, rho_M and the recurrence coefficients)
come from (n, delta) through `rates.rho_C` and `recurrence_coeffs`, in
O(1) and O(n); no command builds the dense epoch matrix of the
permutation-invariant model.

Each command takes exactly the flags it reads, plus --format and
--output; a flag it does not read is an argparse usage error (exit 2),
and so is a value outside its domain.  `predict` also accepts --seed,
which it ignores.  The JSON `config` echo lists the effective value of
every flag the command reads.

All randomness flows from --seed through documented SeedSequence mixing
(base seed, stream index, variant code, replicate), so identical
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
from dataclasses import asdict, dataclass, fields

import numpy as np

from .engine import (
    OrderingPolicy,
    _epoch_dense,
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
    rho_C,
    rho_M,
    rpcd_asymptotic_rate,
    sd_rate,
)
from .recurrence import recurrence_coeffs

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

    def __post_init__(self):
        if not self.deltas:
            raise ValueError("at least one delta is required")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if self.tol <= 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if self.max_epochs < 0:
            raise ValueError(f"max_epochs must be >= 0, got {self.max_epochs}")
        if self.epochs_budget < 0:
            raise ValueError(f"epochs_budget must be >= 0, got {self.epochs_budget}")
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


def _seeded_run(n, delta, variant, seed, stream, *, tol, max_epochs, replicate=0,
                x0_mode="gaussian"):
    """One run of `variant` on the (n, delta) model from a seeded start.

    One generator, seeded from (seed, stream, variant code, replicate),
    draws the Gaussian starting point and then the run's coordinate
    orders; a zero start draws nothing before the run.
    """
    rng = np.random.default_rng(derive_seed(seed, stream, VARIANT_CODE[variant], replicate))
    x0 = rng.standard_normal(n) if x0_mode == "gaussian" else np.zeros(n)
    return run(PermInvariantQuadratic(n, delta), OrderingPolicy(variant), x0,
               max_epochs=max_epochs, tol=tol, seed=rng)


def _replicate_rate(config: ExperimentConfig, d_idx: int, variant: str, replicate: int) -> float:
    """Rate of one seeded run; NaN when the run diverges or is too short."""
    try:
        traj = _seeded_run(config.n, config.deltas[d_idx], variant, config.seed, d_idx,
                           tol=config.tol, max_epochs=config.max_epochs, replicate=replicate)
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
    empirical cells; predicted columns are always emitted, from the
    scalar predictors rho_C(n, delta)^2 and rho_M(n, delta).
    """
    rows = []
    for d_idx, delta in enumerate(config.deltas):
        ccd, rcd, rpcd = (_valid_rates(config, d_idx, v) for v in ("ccd", "rcd", "rpcd"))
        rows.append(
            Table1Row(
                delta=delta,
                rho_ccd_emp=float(ccd.mean()) if ccd.size else math.nan,
                rho_C_sq=rho_C(config.n, delta) ** 2,
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
    `sequences` sampled permutation-ordered products.  Each permutation
    product is stepped in place, one coordinate row at a time, so a run
    builds one epoch map, C.  Stops at the epoch budget or when both
    curves fall below tol.
    """
    if sequences < 1:
        raise ValueError(f"sequences must be >= 1, got {sequences}")
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
        for G, rng in zip(G_seqs, seq_rngs):
            _epoch_dense(G, model.A, rng.permutation(n).tolist())
            rpcd_vals.append(expected_over_x0(model, (G,)))
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
        for variant in ("ccd", "rpcd", "rcd"):
            traj = _seeded_run(n, delta, variant, config.seed, n,
                               tol=config.tol, max_epochs=config.epochs_budget)
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

    The closed-form column is (n/2)(eta_l + nu_l), carried from row to
    row with the update of `evolve`, so row l equals evolve(M, delta, l).
    """
    n = config.n
    traj = _seeded_run(n, delta, "rpcd", config.seed, 0, tol=config.tol, max_epochs=config.max_epochs)
    M = recurrence_coeffs(n, delta)
    eta, nu = float(delta), 1.0 - float(delta)
    rows = []
    for epoch, f in enumerate(traj.f_per_epoch):
        rows.append({"epoch": epoch, "f_realized": float(f), "f_expected": 0.5 * n * (eta + nu)})
        eta, nu = M.d1 * eta + M.m1 * nu, M.d2 * eta + M.m2 * nu
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
    """Every predictor for one (n, delta), as a flat record.

    Nothing here builds an n x n matrix: rho_C_sq comes from a scalar
    equation and the recurrence coefficients from O(n) sums, so n = 1e6
    takes well under a second.
    """
    model = PermInvariantQuadratic(n, delta)
    consts = quadratic_constants(model)
    M = recurrence_coeffs(n, delta)
    upper, lower = ccd_bounds(n, delta)
    q_epoch, r_epoch = rcd_rates(n, delta)
    gb = generic_bounds(consts, n, alpha=1.0 / consts.L)
    return {
        "n": n,
        "delta": delta,
        "rho_C_sq": rho_C(n, delta) ** 2,
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
    if x0_mode not in ("gaussian", "zero"):
        raise ValueError(f"x0_mode must be gaussian or zero, got {x0_mode!r}")
    traj = _seeded_run(n, delta, variant, seed, 0, tol=tol, max_epochs=max_epochs, x0_mode=x0_mode)
    f0 = traj.f_per_epoch[0]
    return [
        {"epoch": epoch, "f": float(f), "f_over_f0": float(f / f0) if f0 > 0 else 0.0}
        for epoch, f in enumerate(traj.f_per_epoch)
    ]


def write_rows(rows, fmt: str, path: str | None, payload: dict) -> str:
    """Serialize `rows` as CSV (LF, header row) or `payload` as JSON.

    Every command writes its output here.  Returns the serialized text;
    writes it to `path` unless path is None or "-", in which case it goes
    to stdout.
    """
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    return text


# Every flag once, under the name its value has in the parsed arguments
# and in the JSON config echo.  `--delta` comes in two forms: repeated
# (table1's grid) and single.
_FLAGS = {
    "n": ("--n", dict(type=int, default=100)),
    "deltas": ("--delta", dict(type=float, action="append", metavar="DELTA",
                               help="delta value; repeat for several (default: the standard grid)")),
    "delta": ("--delta", dict(type=float, required=True)),
    "seed": ("--seed", dict(type=int, default=0)),
    "replicates": ("--replicates", dict(type=int, default=20)),
    "tol": ("--tol", dict(type=float, default=1e-8)),
    "max_epochs": ("--max-epochs", dict(type=int, default=500_000)),
    "epochs_budget": ("--epochs-budget", dict(type=int, default=5000)),
    "condition": ("--condition", dict(type=float, default=1e4)),
    "sequences": ("--sequences", dict(type=int, default=10,
                                      help="permutation sequences averaged")),
    "variant": ("--variant", dict(choices=tuple(VARIANT_CODE), default="ccd")),
    "x0": ("--x0", dict(choices=("gaussian", "zero"), default="gaussian")),
}
_CONFIG_FIELDS = {f.name for f in fields(ExperimentConfig)}


def _add_command(sub, name: str, help: str, reads: tuple[str, ...], **defaults):
    """Subcommand taking the flags named in `reads`, plus --format and --output.

    A flag named in `defaults` is optional with that default.
    """
    p = sub.add_parser(name, help=help)
    for flag in reads:
        option, kwargs = _FLAGS[flag]
        if flag in defaults:
            kwargs = dict(kwargs, required=False, default=defaults[flag])
        p.add_argument(option, dest=flag, **kwargs)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, metavar="PATH")
    p.set_defaults(reads=reads)
    return p


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdlab",
        description="Coordinate descent ordering experiments on convex quadratics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_command(sub, "table1", "observed vs predicted per-epoch rates",
                 ("n", "deltas", "seed", "replicates", "tol", "max_epochs"))
    figures = sub.add_parser("figure", help="emit data behind a standard figure")
    figures = figures.add_subparsers(dest="figure", required=True)
    _add_command(figures, "lu", "expected objective per epoch on a log-uniform spectrum",
                 ("n", "seed", "tol", "epochs_budget", "condition", "sequences"))
    _add_command(figures, "different_n", "traces of the three orderings at n = 10, 20, 40, 80",
                 ("delta", "seed", "tol", "epochs_budget"), delta=0.001)
    _add_command(figures, "expected", "one permutation-ordered run next to its closed form",
                 ("n", "delta", "seed", "tol", "max_epochs"), delta=0.05)
    predict = _add_command(sub, "predict", "all rate predictors for one (n, delta)", ("n", "delta"))
    predict.add_argument("--seed", type=int, default=0, help="ignored: predict draws nothing at random")
    _add_command(sub, "solve", "one trajectory as epoch/objective rows",
                 ("n", "delta", "variant", "seed", "tol", "max_epochs", "x0"))
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    echo = {name: getattr(args, name) for name in args.reads}
    if args.command == "table1":
        echo["deltas"] = tuple(args.deltas or TABLE1_DELTAS)
    config = {k: v for k, v in echo.items() if k in _CONFIG_FIELDS}
    # cdlab raises ValueError only for inputs outside their domain, and
    # every input here comes from the command line.  Output is written
    # only after the command returns.
    try:
        if args.command == "table1":
            rows = [asdict(r) for r in cmd_table1(ExperimentConfig(**config))]
        elif args.command == "figure":
            kwargs = {k: v for k, v in echo.items() if k not in config}
            rows = cmd_figure(args.figure, ExperimentConfig(**config), **kwargs)
            echo = {"figure": args.figure, **echo}
        elif args.command == "predict":
            report = cmd_predict(args.n, args.delta)
            rows = [{k: v for k, v in report.items() if k != "sun_ye_terms"}]
        else:
            rows = cmd_solve(args.n, args.delta, args.variant, seed=args.seed, tol=args.tol,
                             max_epochs=args.max_epochs, x0_mode=args.x0)
    except ValueError as err:
        parser.error(str(err))
    body = {"report": report} if args.command == "predict" else {"rows": rows}
    write_rows(rows, args.format, args.output, {"config": echo, **body})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
