"""The four benchmark workloads: CLI inputs, warm-up calls, references and output checks.

Every workload is a list of `cdlab.cli.main` argument lists per input.
An input is identified by the CLI seed it passes as `--seed`; `run.py`
derives `INPUTS_PER_RUN` CLI seeds from the benchmark seed, so one run
averages over several starting points instead of timing one draw.

References are computed after the timed passes and after peak memory is
read, so they add to neither wall_s nor peak_rss_mb.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

INPUTS_PER_RUN = 4


def cli_seeds(seed: int) -> list[int]:
    """CLI seeds of one benchmark run; seed 0 starts with CLI seed 0."""
    return [seed * INPUTS_PER_RUN + j for j in range(INPUTS_PER_RUN)]


class Tally:
    """Output values checked and failed; a value fails if nonfinite or off its check."""

    def __init__(self):
        self.values = 0
        self.failed = 0
        self.first_failure = None

    def check(self, what: str, value, ok: bool = True) -> None:
        self.values += 1
        good = isinstance(value, (int, float)) and math.isfinite(value) and bool(ok)
        if not good:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = f"{what} = {value!r}"

    def missing(self, what: str, count: int) -> None:
        self.values += count
        self.failed += count
        if self.first_failure is None:
            self.first_failure = f"{what} missing"


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b != 0.0 else abs(a)


def _csv_rows(text: str) -> list[dict]:
    return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(text))]


def _csv_columns(text: str) -> dict[str, list[float]]:
    """Output values by column, so drift skips columns a later version adds."""
    columns: dict[str, list[float]] = {}
    for row in _csv_rows(text):
        for key, value in row.items():
            columns.setdefault(key, []).append(value)
    return columns


def _flatten(obj) -> list[float]:
    if isinstance(obj, dict):
        return [v for key in obj for v in _flatten(obj[key])]
    if isinstance(obj, list):
        return [v for item in obj for v in _flatten(item)]
    return [float(obj)]


def _epoch_map(A: np.ndarray) -> np.ndarray:
    # C = -(L+D)^{-1} L' by a general solve, independent of cdlab.engine.
    return -np.linalg.solve(np.tril(A), np.triu(A, 1))


class Table1:
    """`cdlab table1` at defaults: the paper's Table 1."""

    name = "table1"
    ext = "csv"
    warmup = ["table1", "--delta", "0.8", "--replicates", "2"]

    DELTAS = (0.80, 0.50, 0.33, 0.20, 0.10, 0.03)
    # The paper's Table 1 at n = 100; tolerances of acceptance criteria 1 and 2.
    RHO_C_SQ = (0.9342, 0.9924, 0.9971, 0.9988, 0.9995, 0.9999)
    RHO_M = (0.1162, 0.3289, 0.4994, 0.6635, 0.8164, 0.9412)
    RCD_PRED = (0.4095, 0.5123, 0.6081, 0.7161, 0.8336, 0.9434)
    RCD_EMP = (0.3146, 0.4764, 0.5945, 0.7059, 0.8287, 0.9428)
    PRED_TOL = 5e-4
    CCD_TOL = 2e-3
    RCD_TOL = 0.05

    def commands(self, cli_seed: int) -> list[list[str]]:
        return [["table1", "--seed", str(cli_seed)]]

    def reference(self, cli_seed: int):
        return None

    def check(self, texts: list[str], ref, tally: Tally) -> None:
        rows = _csv_rows(texts[0])
        for i, delta in enumerate(self.DELTAS):
            if i >= len(rows):
                tally.missing(f"table1 row delta={delta}", 8)
                continue
            r = rows[i]
            rpcd_tol = 0.03 if delta > 0.5 else 0.02
            tally.check("delta", r["delta"], r["delta"] == delta)
            tally.check("rho_C_sq", r["rho_C_sq"], abs(r["rho_C_sq"] - self.RHO_C_SQ[i]) <= self.PRED_TOL)
            tally.check("rho_M", r["rho_M"], abs(r["rho_M"] - self.RHO_M[i]) <= self.PRED_TOL)
            tally.check("rho_rcd_pred", r["rho_rcd_pred"],
                        abs(r["rho_rcd_pred"] - self.RCD_PRED[i]) <= self.PRED_TOL)
            tally.check("rho_ccd_emp", r["rho_ccd_emp"], abs(r["rho_ccd_emp"] - r["rho_C_sq"]) <= self.CCD_TOL)
            tally.check("rho_rpcd_emp", r["rho_rpcd_emp"], abs(r["rho_rpcd_emp"] - r["rho_M"]) <= rpcd_tol)
            tally.check("rho_rcd_emp", r["rho_rcd_emp"], abs(r["rho_rcd_emp"] - self.RCD_EMP[i]) <= self.RCD_TOL)
            tally.check("rho_rpcd_emp_std", r["rho_rpcd_emp_std"], r["rho_rpcd_emp_std"] >= 0.0)
        if len(rows) > len(self.DELTAS):
            tally.missing("table1 extra rows", len(rows) - len(self.DELTAS))

    def values(self, texts: list[str]) -> dict[str, list[float]]:
        return _csv_columns(texts[0])


class FigureLU:
    """`cdlab figure lu` on a log-uniform spectrum with a fixed epoch budget."""

    name = "figure_lu"
    ext = "csv"
    N = 100
    CONDITION = 1e4
    SEQUENCES = 10
    BUDGET = 200  # about 1 s per pass on a 2-core x86 host
    CCD_RTOL = 1e-9
    warmup = ["figure", "lu", "--n", "100", "--condition", "1e4", "--sequences", "2",
              "--epochs-budget", "2"]

    def commands(self, cli_seed: int) -> list[list[str]]:
        return [["figure", "lu", "--n", str(self.N), "--condition", repr(self.CONDITION),
                 "--sequences", str(self.SEQUENCES), "--epochs-budget", str(self.BUDGET),
                 "--seed", str(cli_seed)]]

    def reference(self, cli_seed: int) -> np.ndarray:
        """(1/2) tr((C^k)' A C^k) / (n/2) for k = 0..BUDGET, by np.linalg.matrix_power."""
        from cdlab import build_log_uniform_spectrum

        # The CLI builds its matrix from SeedSequence([seed, 0]).
        A = build_log_uniform_spectrum(self.N, self.CONDITION, np.random.SeedSequence([cli_seed, 0])).A
        C = _epoch_map(A)
        out = np.empty(self.BUDGET + 1)
        for k in range(self.BUDGET + 1):
            G = np.linalg.matrix_power(C, k)
            out[k] = 0.5 * np.trace(G.T @ A @ G) / (0.5 * self.N)
        return out

    def check(self, texts: list[str], ref: np.ndarray, tally: Tally) -> None:
        rows = _csv_rows(texts[0])
        if len(rows) != self.BUDGET + 1:
            tally.missing(f"figure_lu rows ({len(rows)} of {self.BUDGET + 1})", 3 * abs(self.BUDGET + 1 - len(rows)))
        prev = math.inf
        for k, r in enumerate(rows[: self.BUDGET + 1]):
            tally.check("epoch", r["epoch"], r["epoch"] == k)
            tally.check(f"ccd_rel[{k}]", r["ccd_rel"], _rel(r["ccd_rel"], ref[k]) <= self.CCD_RTOL)
            # E f(G x0) is nonincreasing per sequence, so is the mean over sequences.
            ok = 0.0 < r["rpcd_rel"] <= 1.0 and r["rpcd_rel"] <= prev * (1.0 + 1e-12)
            tally.check(f"rpcd_rel[{k}]", r["rpcd_rel"], ok)
            prev = r["rpcd_rel"]

    def values(self, texts: list[str]) -> dict[str, list[float]]:
        return _csv_columns(texts[0])


class ExpectedLargeN:
    """`cdlab figure expected --n 3000`: one random-permutation run next to its closed form."""

    name = "expected_large_n"
    ext = "csv"
    N = 3000
    DELTA = 0.05
    TOL = 1e-8  # the CLI default --tol
    EXPECTED_RTOL = 1e-10
    warmup = ["figure", "expected", "--n", "300", "--delta", "0.05"]

    def commands(self, cli_seed: int) -> list[list[str]]:
        return [["figure", "expected", "--n", str(self.N), "--delta", repr(self.DELTA),
                 "--seed", str(cli_seed)]]

    def reference(self, cli_seed: int) -> np.ndarray:
        """The 2x2 recurrence matrix; the same for every seed."""
        if getattr(self, "_ref", None) is None:
            from cdlab import recurrence_coeffs

            self._ref = recurrence_coeffs(self.N, self.DELTA).as_array()
        return self._ref

    def check(self, texts: list[str], M: np.ndarray, tally: Tally) -> None:
        rows = _csv_rows(texts[0])
        if not rows:
            tally.missing("figure_expected rows", 3)
            return
        start = np.array([self.DELTA, 1.0 - self.DELTA])
        prev = math.inf
        for k, r in enumerate(rows):
            expected = 0.5 * self.N * float(np.sum(np.linalg.matrix_power(M, k) @ start))
            tally.check("epoch", r["epoch"], r["epoch"] == k)
            tally.check(f"f_expected[{k}]", r["f_expected"], _rel(r["f_expected"], expected) <= self.EXPECTED_RTOL)
            last = k == len(rows) - 1
            ok = 0.0 <= r["f_realized"] <= prev and (r["f_realized"] <= self.TOL) == last
            tally.check(f"f_realized[{k}]", r["f_realized"], ok)
            prev = r["f_realized"]

    def values(self, texts: list[str]) -> dict[str, list[float]]:
        return _csv_columns(texts[0])


class PredictLargeN:
    """`cdlab predict --n 700 --format json` for three deltas of the Table 1 grid."""

    name = "predict_large_n"
    ext = "json"
    N = 700
    DELTAS = (0.50, 0.20, 0.03)
    RHO_C_RTOL = 1e-8  # spectral_radius vs eigvals differs by ~1.6e-10 relative
    RHO_M_RTOL = 1e-9
    warmup = ["predict", "--n", "100", "--delta", "0.5", "--format", "json"]

    def commands(self, cli_seed: int) -> list[list[str]]:
        return [["predict", "--n", str(self.N), "--delta", repr(d), "--format", "json",
                 "--seed", str(cli_seed)] for d in self.DELTAS]

    def reference(self, cli_seed: int) -> list[tuple[float, float]]:
        """(max|eig C|^2, max|eig M|) per delta, from a dense C built by a general solve."""
        if getattr(self, "_ref", None) is None:
            n = self.N
            refs = []
            for d in self.DELTAS:
                C = _epoch_map(d * np.eye(n) + (1.0 - d) * np.ones((n, n)))
                one = np.ones(n)
                c1, ct1 = C @ one, C.T @ one
                frob = float(np.sum(C * C))
                d2 = (c1 @ c1 - frob) / (n * (n - 1))
                m2 = ((one @ c1) ** 2 - ct1 @ ct1) / (n * (n - 1))
                M = np.array([[frob / n - d2, ct1 @ ct1 / n - m2], [d2, m2]])
                refs.append((float(np.abs(np.linalg.eigvals(C)).max() ** 2),
                             float(np.abs(np.linalg.eigvals(M)).max())))
            self._ref = refs
        return self._ref

    def check(self, texts: list[str], ref, tally: Tally) -> None:
        for text, delta, (rho_c_sq, rho_m) in zip(texts, self.DELTAS, ref):
            report = json.loads(text)["report"]
            n, d, c_sq, m = (report.pop(key) for key in ("n", "delta", "rho_C_sq", "rho_M"))
            tally.check("n", n, n == self.N)
            tally.check("delta", d, d == delta)
            tally.check("rho_C_sq", c_sq, _rel(c_sq, rho_c_sq) <= self.RHO_C_RTOL)
            tally.check("rho_M", m, _rel(m, rho_m) <= self.RHO_M_RTOL)
            for v in _flatten(report):
                tally.check("predictor", v)

    def values(self, texts: list[str]) -> dict[str, list[float]]:
        return {f"{delta}:{key}": _flatten(value)
                for text, delta in zip(texts, self.DELTAS)
                for key, value in json.loads(text)["report"].items()}


WORKLOADS = {w.name: w for w in (Table1(), FigureLU(), ExpectedLargeN(), PredictLargeN())}
