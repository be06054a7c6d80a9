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
O(1) and O(n), and build no dense epoch matrix.  Neither does table1's
cyclic column below delta = 1, which reads the closed-form spectrum of C
(`engine._cyclic_tail`); every cell that route does not take steps the
cyclic run (`engine.run`), whose block path builds epoch_map(model) at
n <= 256.  table1's cells, figure different_n's runs and figure lu's
epoch products are independent: each command spreads them over one
forked process per available CPU (`_forked`), whose children send their
results as pickled frames and end with the exception they raised, if
any.  The split moves no output byte.

Each command is a function whose parameters, with their defaults, are
the flags it reads; it returns its rows as dicts (`cmd_predict` its one
report).  Any other flag is a usage error (exit 2), and so is a value
outside its domain: the flag table `_FLAGS` checks each as it parses,
and the model rejects a delta outside its window.  `predict` also
accepts --seed, which it ignores.  The JSON `config` echo lists the
effective value of every flag the command reads.

All randomness flows from --seed through documented SeedSequence mixing
(base seed, stream index, variant code, replicate), where the variant
code is the ordering's position in `engine.ORDERINGS`, so identical
invocations produce byte-identical output files.  Starting points are
i.i.d. standard normal from the derived stream.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import inspect
import io
import json
import math
import os
import pickle
import re
import signal
import sys

import numpy as np

from .engine import (
    ORDERINGS,
    OrderingPolicy,
    _cyclic_tail,
    _epoch_dense,
    _orders,
    _runs,
    derive_seed,
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
from .recurrence import evolve, recurrence_coeffs

__all__ = [
    "TABLE1_DELTAS",
    "DIFFERENT_N",
    "cmd_table1",
    "figure_lu",
    "figure_different_n",
    "figure_expected",
    "cmd_predict",
    "cmd_solve",
    "main",
]

TABLE1_DELTAS = (0.80, 0.50, 0.33, 0.20, 0.10, 0.03)
DIFFERENT_N = (10, 20, 40, 80)

# `figure_lu` evaluates each epoch product, the cyclic one too, exactly once its
# carried E f falls to 1/2 of its last exact value.  Each value stays above half
# the one it is carried from, so K decrements hold about 2K*eps of it in
# rounding; a pure decrement drifts to about eps*f0/f, 1.1e-7 relative at the defaults.
_REANCHOR = 0.5

# `cmd_table1` prices an rcd epoch at 2 rpcd ones: at n = 100 and 20 replicates each default rcd
# cell took 2.6-3.6x the rpcd cell of its delta (0.8: 13.2 vs 5.1 ms, 0.03: 158 vs 44 ms, 2-core
# x86), and its two shares came to 199 and 152 ms at 1, 178 and 173 ms at 2 (even: 176).
_RCD_EPOCH_COST = 2


def _seeded_start(n, variant, seed, stream, replicate=0, x0="gaussian"):
    """The generator of one seeded run, and the starting point it draws first.

    The generator is seeded from (seed, stream, variant code, replicate);
    a zero start draws nothing.
    """
    rng = np.random.default_rng(derive_seed(seed, stream, ORDERINGS.index(variant), replicate))
    return rng, rng.standard_normal(n) if x0 == "gaussian" else np.zeros(n)


def _seeded_run(n, delta, variant, seed, stream, *, tol, max_epochs, x0="gaussian"):
    """One run of `variant` on the (n, delta) model from a seeded start.

    The generator of `_seeded_start` draws the starting point and then
    the run's coordinate orders.
    """
    rng, start = _seeded_start(n, variant, seed, stream, x0=x0)
    return run(PermInvariantQuadratic(n, delta), OrderingPolicy(variant), start,
               max_epochs=max_epochs, tol=tol, seed=rng)


def _trace_rows(traj) -> list[dict]:
    """(epoch, f, f_over_f0) rows of one trajectory; f_over_f0 is 0 from a zero start."""
    f0 = traj.f_per_epoch[0]
    return [{"epoch": epoch, "f": float(f), "f_over_f0": float(f / f0) if f0 > 0 else 0.0}
            for epoch, f in enumerate(traj.f_per_epoch)]


def _valid_rates(n, delta, stream, variant, *, seed, replicates, tol, max_epochs):
    """(rates, transient): rates of the valid replicates of one variant; cyclic descent runs once.

    The cyclic rate comes from `_cyclic_tail`: the stop epoch and the
    objective over the rate window, from the spectrum of C at any n below
    delta = 1 (else by stepping the cyclic run with `run`).  The rcd and
    rpcd replicates run in one `_runs` call, each
    drawing its orders from its own seeded generator: rcd one row loop per
    replicate, rpcd one blocked scan per epoch for all of them.

    A replicate is dropped when its run loses numerical meaning (a
    NumericalError) or its rate window is too short or not positive (the
    ValueError of `empirical_rate`).  Any other error, such as a
    ValueError from the input checks of `run`, propagates.  `transient`: the
    cyclic run stopped at the budget above tol, so its rate is a transient's.
    """
    model = PermInvariantQuadratic(n, delta)
    tried = 1 if variant == "ccd" else replicates
    rngs, starts = zip(*(_seeded_start(n, variant, seed, stream, r) for r in range(tried)))
    if variant == "ccd":
        try:
            fs = [_cyclic_tail(model, starts[0], max_epochs, tol)[1]]
        except NumericalError:
            fs = []
    else:
        fs = [traj.f_per_epoch for traj in _runs(model, OrderingPolicy(variant), starts, rngs,
                                                 max_epochs, tol)
              if not isinstance(traj, NumericalError)]
    rates = []
    for f in fs:
        try:
            rates.append(empirical_rate(f))
        except ValueError:
            pass
    return np.array(rates), variant == "ccd" and bool(rates) and fs[0][-1] > tol


def _cpus() -> int:
    """Available CPUs, or 1 without os.fork or os.sched_getaffinity."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1


@contextlib.contextmanager
def _forked(costs, work):
    """Split jobs 0..len(costs)-1, costliest first to the least-loaded process; yield (shares, streams).

    streams[k] yields the items of work(shares[k]); streams[0] is work(shares[0]),
    run in this process as it is read.  A forked child per other share pickles
    each item as a frame, then an end frame: None, or the exception work raised
    (if it does not pickle, a RuntimeError of its repr), which its stream raises
    after the items; a child that ended before its end frame, a RuntimeError.
    However the block is left, every child is killed and reaped; with one share
    nothing forks.
    """
    procs = max(1, min(_cpus(), len(costs)))
    shares, loads = [[] for _ in range(procs)], [0.0] * procs
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        k = loads.index(min(loads))
        shares[k].append(i)
        loads[k] += costs[i]

    def stream(pipe):  # frames are (done, item) pairs
        try:
            while not (frame := pickle.load(pipe))[0]:
                yield frame[1]
        except (EOFError, pickle.UnpicklingError):
            raise RuntimeError("a forked process ended before its end frame") from None
        if frame[1] is not None:
            raise frame[1]

    children = []
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    os.close(r)  # so a child whose parent is gone meets a broken pipe
                    with open(w, "wb") as pipe:
                        end = None
                        try:
                            for item in work(share):
                                pipe.write(pickle.dumps((False, item)))
                                pipe.flush()
                        except Exception as err:
                            end = err
                        try:
                            frame = pickle.dumps((True, end))
                        except Exception:  # an exception that does not pickle
                            frame = pickle.dumps((True, RuntimeError(repr(end))))
                        pipe.write(frame)
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, open(r, "rb")))
        yield shares, [work(shares[0]), *(stream(pipe) for _, pipe in children)]
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _in_processes(jobs, costs):
    """Yield the results of the zero-argument `jobs` in job order, as a serial loop would.

    The jobs split over the processes of `_forked`.  Each share runs in
    job order up to its first exception, which is raised here, type and
    message kept, when iteration reaches that job.
    """
    def run(share):
        for i in sorted(share):
            yield i, jobs[i]()

    results = {}
    with _forked(costs, run) as (shares, streams):
        for share, outcomes in zip(shares, streams):
            try:
                for i, result in outcomes:
                    results[i] = result
            except Exception as err:  # at the share's first job with no result, if any
                results[min(set(share) - results.keys(), default=None)] = err
    for i in range(len(jobs)):
        if isinstance(results[i], Exception):
            raise results[i]
        yield results[i]


def cmd_table1(n: int = 100, deltas: tuple[float, ...] = TABLE1_DELTAS, seed: int = 0,
               replicates: int = 20, tol: float = 1e-8, max_epochs: int = 500_000) -> list[dict]:
    """Empirical and predicted rate columns for each delta.

    Every delta is checked against the model's window, and `replicates`
    against 1, before the first run.  Cyclic descent is run once per
    delta, its rate from the stop epoch and the window alone
    (`engine._cyclic_tail` reads them off the spectrum of C rather than
    stepping every epoch).  The randomized orderings are run over `replicates`
    derived seeds and reported as replicate means (the permutation
    variant also with the replicate standard deviation), one stack of
    replicates per ordering (`engine._runs`).  A cell with no valid
    replicate is NaN and named on stderr, and so is a cyclic rate read
    where the run stopped at the budget above tol; predicted columns are always
    emitted, from the scalar predictors rho_C(n, delta)^2 and rho_M(n, delta).
    The cells run in `_in_processes`, priced by predicted epochs
    ln(f0/tol)/-ln(rho), clamped to [1, max_epochs], times replicates, an
    rcd epoch at `_RCD_EPOCH_COST` (a ccd cell at 1, a rho outside (0, 1)
    or tol = 0 at the budget; rcd above delta = 1 at its expected-value
    rate); no output byte depends on the CPU count.
    """
    for delta in deltas:
        PermInvariantQuadratic(n, delta)  # window check
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    preds = [(rho_C(n, delta) ** 2, rcd_rates(n, delta)[1], rho_M(n, delta)) for delta in deltas]
    cells = [(d_idx, v) for d_idx in range(len(deltas)) for v in ORDERINGS]

    def cost(d_idx, variant):
        rho = preds[d_idx][ORDERINGS.index(variant)]  # preds follow ORDERINGS
        if math.isnan(rho):  # the R-linear rcd rate above delta = 1
            rho = rcd_rates(n, deltas[d_idx])[0]
        epochs = math.log(0.5 * n / tol) / -math.log(rho) if 0 < rho < 1 and tol > 0 else max_epochs
        return 1 if variant == "ccd" else max(1, min(epochs, max_epochs)) * replicates * (
            _RCD_EPOCH_COST if variant == "rcd" else 1)

    jobs = [functools.partial(_valid_rates, n, deltas[d_idx], d_idx, v, seed=seed,
                              replicates=replicates, tol=tol, max_epochs=max_epochs)
            for d_idx, v in cells]
    emp = []
    results = _in_processes(jobs, [cost(*cell) for cell in cells])
    for (d_idx, v), (rates, transient) in zip(cells, results):
        if not rates.size:
            print(f"cdlab table1: no valid {v} replicate at delta={deltas[d_idx]} "
                  f"({1 if v == 'ccd' else replicates} tried); its empirical cells are NaN",
                  file=sys.stderr)
        if transient:
            print(f"cdlab table1: the ccd run at delta={deltas[d_idx]} stopped at the {max_epochs}"
                  "-epoch budget above tol; its rho_ccd_emp is a transient's rate", file=sys.stderr)
        emp.append(rates)
    rows = []
    for d_idx, (delta, (rho_c_sq, rho_rcd, rho_m)) in enumerate(zip(deltas, preds)):
        ccd, rcd, rpcd = emp[3 * d_idx:3 * d_idx + 3]
        rows.append({
            "delta": delta,
            "rho_ccd_emp": float(ccd.mean()) if ccd.size else math.nan,
            "rho_C_sq": rho_c_sq,
            "rho_rcd_emp": float(rcd.mean()) if rcd.size else math.nan,
            "rho_rcd_pred": rho_rcd,
            "rho_rpcd_emp": float(rpcd.mean()) if rpcd.size else math.nan,
            "rho_rpcd_emp_std": float(rpcd.std(ddof=1)) if rpcd.size > 1 else math.nan,
            "rho_M": rho_m,
        })
    return rows


def _lu_values(model, orders, epochs):
    """Yield after each epoch every product's E f, its last value less its `_epoch_dense` decrease.

    A product whose value falls to `_REANCHOR` of its last exact one is
    re-evaluated alone, so no product's values depend on the others.
    """
    n = len(model.A)
    G = np.tile(np.eye(n), (len(orders), 1, 1))
    vals = exact = np.full(len(orders), 0.5 * n)
    for _ in range(epochs):
        vals = vals - _epoch_dense(G, model.A, np.array([next(o) for o in orders]))
        if (low := vals <= _REANCHOR * exact).any():
            vals[low] = exact[low] = expected_over_x0(model, G[low])
        yield vals


def figure_lu(n: int = 100, seed: int = 0, tol: float = 1e-8, epochs_budget: int = 5000,
              condition: float = 1e4, sequences: int = 10) -> list[dict]:
    """Expected relative objective per epoch on a log-uniform spectrum.

    Emits, for each epoch, (1/2) trace(G' A G) / (n/2) for the cyclic
    product C^l and the mean over `sequences` permutation-ordered products
    (`_orders`), with its sample standard deviation (NaN for one sequence).
    `_lu_values` carries each product's E f on its own, so the products
    split evenly over the processes of `_forked`: each stream yields its
    share's values, one per epoch, and this process zips the streams and
    stops at the budget or when both curves fall below tol.
    """
    if sequences < 1:
        raise ValueError(f"sequences must be >= 1, got {sequences}")
    model = build_log_uniform_spectrum(n, condition, derive_seed(seed, 0))
    f0 = 0.5 * n
    orders = [_orders(OrderingPolicy("ccd"), n, None)] + [
        _orders(OrderingPolicy("rpcd"), n, np.random.default_rng(derive_seed(seed, 1000 + k)))
        for k in range(sequences)]

    def values(share):
        return _lu_values(model, [orders[s] for s in share], epochs_budget)

    V = [np.full(sequences + 1, f0)]
    with _forked([1] * (sequences + 1), values) as (shares, streams):
        for parts in zip(*streams):
            V.append(vals := np.empty(sequences + 1))
            for share, part in zip(shares, parts):
                vals[share] = part
            if vals[0] <= tol and np.mean(vals[1:]) <= tol:
                break
    V = np.array(V)
    std = np.std(V[:, 1:] / f0, axis=1, ddof=1).tolist() if sequences > 1 else [math.nan] * len(V)
    return [{"epoch": epoch, "ccd_rel": c, "rpcd_rel": m, "rpcd_rel_std": d} for epoch, (c, m, d)
            in enumerate(zip((V[:, 0] / f0).tolist(), (np.mean(V[:, 1:], axis=1) / f0).tolist(), std))]


def figure_different_n(delta: float = 0.001, seed: int = 0, tol: float = 1e-8,
                       epochs_budget: int = 5000) -> list[dict]:
    """Per-epoch traces of all three orderings at each n in `DIFFERENT_N`.

    Uses a fixed epoch budget (rather than running tiny-delta cyclic
    descent to tolerance, which would need ~n^2/delta epochs); rates are
    meant to be read off the last-10-epoch window.  The runs go through
    `_in_processes`, priced at n each (a ccd run at 1).
    """
    for n in DIFFERENT_N:
        PermInvariantQuadratic(n, delta)  # window check, every n before the first run
    runs = [(n, variant) for n in DIFFERENT_N for variant in ("ccd", "rpcd", "rcd")]
    trajs = _in_processes([functools.partial(_seeded_run, n, delta, variant, seed, n, tol=tol,
                                             max_epochs=epochs_budget) for n, variant in runs],
                          [1 if variant == "ccd" else n for n, variant in runs])
    return [{"variant": variant, "n": n, **row}
            for (n, variant), traj in zip(runs, trajs) for row in _trace_rows(traj)]


def figure_expected(n: int = 100, delta: float = 0.05, seed: int = 0, tol: float = 1e-8,
                    max_epochs: int = 500_000) -> list[dict]:
    """Realized objective of one permutation-ordered run vs its closed form.

    The closed-form column is (n/2)(eta_l + nu_l), with (eta_l, nu_l)
    the rows of one `evolve` call over the run's epochs.
    """
    traj = _seeded_run(n, delta, "rpcd", seed, 0, tol=tol, max_epochs=max_epochs)
    pairs = evolve(recurrence_coeffs(n, delta), delta, traj.epochs).tolist()
    return [{"epoch": epoch, "f_realized": float(f), "f_expected": 0.5 * n * (eta + nu)}
            for epoch, (f, (eta, nu)) in enumerate(zip(traj.f_per_epoch, pairs))]


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
        "rho_M": M.radius(),
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


def cmd_solve(n: int, delta: float, variant: str = "ccd", seed: int = 0, tol: float = 1e-8,
              max_epochs: int = 500_000, x0: str = "gaussian") -> list[dict]:
    """One run; rows of (epoch, f, f_over_f0)."""
    if x0 not in ("gaussian", "zero"):
        raise ValueError(f"x0 must be gaussian or zero, got {x0!r}")
    return _trace_rows(_seeded_run(n, delta, variant, seed, 0, tol=tol, max_epochs=max_epochs,
                                   x0=x0))


def write_rows(rows, fmt: str, path: str | None, config: dict) -> str:
    """Serialize `rows` as CSV (LF, header row) or as JSON with the `config` echo.

    Every command writes its output here.  A dict is one report
    (`cmd_predict`): JSON carries it whole under "report", and its one
    CSV row holds only the scalar fields.  Returns the serialized text;
    writes it to `path` unless path is None or "-", in which case it goes
    to stdout.
    """
    if isinstance(rows, dict):
        body = {"report": rows}
        rows = [{k: v for k, v in rows.items() if not isinstance(v, list)}]
    else:
        body = {"rows": rows}
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = json.dumps({"config": config, **body}, indent=2) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    return text


def _checked(convert, ok, domain: str):
    """Argparse type: `convert` the text, then require `ok(value)`."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {domain}, got {text}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


class _Repeated(argparse.Action):
    """Collect every use of a flag in a tuple that replaces the default."""

    def __call__(self, parser, namespace, value, option_string=None):
        given = getattr(namespace, self.dest)
        setattr(namespace, self.dest, (() if given is self.default else given) + (value,))


_COUNT = _checked(int, lambda v: v >= 1, ">= 1")
_LIMIT = _checked(int, lambda v: v >= 0, ">= 0")
_OUTPUT = _checked(str, lambda p: p and os.path.isdir(os.path.dirname(p) or ".") and not os.path.isdir(p),
                   "a file in an existing directory")  # checked before the command runs

# Every flag once, under the name of the parameter it fills and of its
# JSON config echo, with the domain of its values.  A command function's
# default overrides the one here.  `--delta` comes in two forms:
# repeated (table1's grid) and single.
_FLAGS = {
    "n": ("--n", dict(type=int, default=100)),
    "deltas": ("--delta", dict(type=float, action=_Repeated, metavar="DELTA",
                               help="delta value; repeat for several (default: the standard grid)")),
    "delta": ("--delta", dict(type=float, required=True)),
    "seed": ("--seed", dict(type=_LIMIT)),
    "replicates": ("--replicates", dict(type=_COUNT)),
    "tol": ("--tol", dict(type=_checked(float, lambda v: v > 0, "> 0"))),
    "max_epochs": ("--max-epochs", dict(type=_LIMIT)),
    "epochs_budget": ("--epochs-budget", dict(type=_LIMIT)),
    "condition": ("--condition", dict(type=float)),
    "sequences": ("--sequences", dict(type=_COUNT, help="permutation sequences averaged")),
    "variant": ("--variant", dict(choices=ORDERINGS)),
    "x0": ("--x0", dict(choices=("gaussian", "zero"))),
}


# An argument that is "-" and a number (a digit, or any case of inf,
# infinity or nan) is a value, so a negative one reaches its domain check;
# argparse's own matcher misses -1e-3 and -inf.
_NEGATIVE_NUMBER = re.compile(r"^-(\.?\d|(inf|infinity|nan)$)", re.IGNORECASE)


@functools.cache  # main() rebuilds the parser per call; each signature costs ~20 us
def _flag_params(func) -> dict:
    """The parameters of `func` that are flags, each with its default (or Parameter.empty)."""
    return {name: param.default for name, param in inspect.signature(func).parameters.items()
            if name in _FLAGS}


def _add_command(sub, name: str, help: str, func):
    """Subcommand calling `func` with the flags among its parameters.

    A parameter with a default makes its flag optional with that default.
    Every subcommand also takes --format and --output.
    """
    p = sub.add_parser(name, help=help)
    p._negative_number_matcher = _NEGATIVE_NUMBER
    params = _flag_params(func)
    for flag, default in params.items():
        option, kwargs = _FLAGS[flag]
        if default is not inspect.Parameter.empty:
            kwargs = dict(kwargs, required=False, default=default)
        p.add_argument(option, dest=flag, **kwargs)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", type=_OUTPUT, default=None, metavar="PATH")
    p.set_defaults(func=func, reads=tuple(params))
    return p


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdlab",
        description="Coordinate descent ordering experiments on convex quadratics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_command(sub, "table1", "observed vs predicted per-epoch rates", cmd_table1)
    figures = sub.add_parser("figure", help="emit data behind a standard figure")
    figures = figures.add_subparsers(dest="figure", required=True)
    _add_command(figures, "lu", "expected objective per epoch on a log-uniform spectrum",
                 figure_lu)
    _add_command(figures, "different_n", "traces of the three orderings at n = 10, 20, 40, 80",
                 figure_different_n)
    _add_command(figures, "expected", "one permutation-ordered run next to its closed form",
                 figure_expected)
    predict = _add_command(sub, "predict", "all rate predictors for one (n, delta)", cmd_predict)
    predict.add_argument("--seed", type=_LIMIT, default=0, help="ignored: predict draws nothing at random")
    _add_command(sub, "solve", "one trajectory as epoch/objective rows", cmd_solve)
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    flags = {name: getattr(args, name) for name in args.reads}
    # cdlab raises ValueError only for inputs outside their domain, and
    # every input here comes from the command line.  Output is written
    # only after the command returns.
    try:
        rows = args.func(**flags)
    except ValueError as err:
        parser.error(str(err))
    echo = {"figure": args.figure} if "figure" in args else {}
    write_rows(rows, args.format, args.output, {**echo, **flags})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
