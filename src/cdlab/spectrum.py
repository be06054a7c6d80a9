"""The branch equation of the cyclic epoch map, and its roots.

Apart from the zero eigenvalue of its zero first column, the
eigenvalues of C = closed_form_C(n, delta) are the roots lambda != 1 of

    (lambda - 1 + delta)^n = delta^n lambda^(n-1).

For delta > 1 the dominant one is real, and `rho_C` bisects for it.
For delta < 1 branch k = 1..n-1 holds one, lambda = mu^n, with mu the
root of mu^n - delta w^k mu^(n-1) + delta - 1 = 0 (w = e^(2 pi i/n))
that Newton's method reaches from mu = 1; branch n - k is the conjugate
of branch k.  One loop, `_newton`, finds branch 1 for `rho_C` and
branches 1..n//2 for `_cyclic_spectrum`.  Two polishes follow it:

- `rho_C`: three Newton steps in double on lambda itself,
  lambda - 1 + delta - delta w lambda^((n-1)/n) = 0 on the same
  principal branch, since mu^n carries the rounding of mu times n
  (|mu|^n rounds to 1.0 at n = 1e6, delta = 0.5).  Both equations add
  delta - 1 as one term: it is exact for delta >= 0.5, and lambda - 1
  would lose lambda's low bits as lambda -> 0.
- `_cyclic_spectrum`: three steps in `_EXTENDED` on t = log mu,
  expm1(nt) + delta = delta e^(i theta_k + (n-1)t), theta_k = 2 pi k/n,
  so that lambda^e = e^(e n t) is off by about e |log lambda| ulps, not
  e.  This residual cancels as lambda -> 0 (rho_C(4, 1 - 1e-12) read
  1.4e-7 relative off 40 digits through it), so `rho_C` keeps the first.

C's eigenvectors are geometric: v_k,i = r_k^i (i = 0..n-1), r_k = mu_k w^-k,
and the left ones u_k = (L+D)' J v_k, J reversing the order.  Hence x0's
coefficient c_k = u_k'x0 / u_k'v_k, with u_k'x0 = sum_j r^(n-1-j) ((L+D) x0)_j
and u_k'v_k = n r^(n-1) + (1-delta)/(1-r) ((1-r^n)/(1-r) - n r^(n-1)), and
`_cyclic_iterates` sums x^e = Re sum_k c_k lambda_k^e v_k (conjugates
doubled; C's zero first column drops out at e >= 1).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import NumericalError
from .quadratic import PermInvariantQuadratic

__all__ = ["rho_C"]

# Newton iterations on the branch equation (`_newton`) before a root fails.
_NEWTON_ITERATIONS = 100

# The float type of `_cyclic_spectrum`'s polish: its pi, its delta and its
# complex t.  numpy's long double is plain double on Windows and macOS arm64.
_EXTENDED = np.longdouble


def _newton(n, delta, dw):
    """mu from 1 by Newton's method on mu^n - dw mu^(n-1) + delta - 1, dw = delta w^k.

    dw is one Python complex or an array of them, one per branch, which
    all stop together.  NumericalError (last_estimate |mu|^n) after
    `_NEWTON_ITERATIONS` steps.
    """
    # bool for rho_C's one branch: np.all took rho_C(100, 0.5) from 9 to 26 us (timeit)
    mu, stop = (np.ones_like(dw), np.all) if isinstance(dw, np.ndarray) else (1.0 + 0j, bool)
    for _ in range(_NEWTON_ITERATIONS):
        s = (mu ** (n - 1) * (mu - dw) + (delta - 1.0)) / (mu ** (n - 2) * (n * mu - (n - 1) * dw))
        mu = mu - s
        if stop(abs(s) <= 1e-14 * abs(mu)):
            return mu
    raise NumericalError(f"the branch equation did not converge at n={n}, delta={delta}",
                         last_estimate=abs(mu) ** n)


def rho_C(n: int, delta: float) -> float:
    """Spectral radius of the cyclic epoch matrix C = closed_form_C(n, delta).

    From the branch equation (module docstring) with no matrix: (1-delta)^2
    at n = 2, 0 at delta = 1 (C = 0), else |lambda| of the dominant root.
    Against 40-digit roots it is within 1e-13 relative for n <= 700 and
    1e-10 at n = 1e6, up to delta = 1 - 1e-12.

    Raises ValueError outside the window delta in (0, n/(n-1)), and
    NumericalError if Newton's method does not converge.
    """
    PermInvariantQuadratic(n, delta)  # validate the (n, delta) window
    if n == 2:
        return (1.0 - delta) ** 2
    if delta == 1.0:
        return 0.0
    if delta > 1.0:
        return _rho_C_real_root(n, delta)
    dw = delta * cmath.exp(2j * math.pi / n)
    lam = _newton(n, delta, dw) ** n
    for _ in range(3):
        lam -= ((lam + (delta - 1.0) - dw * lam ** ((n - 1) / n))
                / (1.0 - dw * (n - 1) / n * lam ** (-1.0 / n)))
    return abs(lam)


def _rho_C_real_root(n: int, delta: float) -> float:
    """1 - u for the root u in (0, 1) of n log(1 - u/delta) = (n-1) log(1 - u).

    The left side minus the right is negative just above u = 0 (where
    the spurious root lambda = 1 sits) and positive near u = 1, with one
    sign change between; bisect until the bracket stops shrinking.
    """
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return 1.0 - mid
        if n * math.log1p(-mid / delta) - (n - 1) * math.log1p(-mid) < 0.0:
            lo = mid
        else:
            hi = mid


def _cyclic_spectrum(n: int, delta: float):
    """t_k = log mu_k, k = 1..n//2, for the cyclic map at delta < 1, or None.

    C's nonzero eigenvalues are e^(n t_k) and their conjugates, t polished
    in `_EXTENDED` (module docstring): f after 70 epochs at (64, 0.9) read
    2.3e-15 off 40 digits, 1.8e-13 with a double polish.  None where a
    branch does not converge, moves by over an ulp of t in its last step
    (under 0.32 up to n = 1e4; where long double is double, 5 of the 6
    default cells fail this), or gives an eigenvalue twice.
    """
    pi = _EXTENDED("3.14159265358979323846264338327950288")
    theta = 2 * pi * np.arange(1, n // 2 + 1) / n
    try:
        mu = _newton(n, delta, delta * np.exp(1j * theta.astype(float)))
    except NumericalError:
        return None
    t, delta = np.log(mu).astype(np.result_type(_EXTENDED, complex)), _EXTENDED(delta)
    for _ in range(3):
        z, zw = n * t, 1j * theta + (n - 1) * t
        s = (np.expm1(z) - delta * np.expm1(zw)) / (n * np.exp(z) - delta * (n - 1) * np.exp(zw))
        t -= s
    t = t.astype(complex)
    log_lam = np.sort(np.concatenate([n * t, (n * t[: (n - 1) // 2]).conj()]))
    if np.all(abs(s) <= 2.0**-52 * abs(t)) and np.all(log_lam[1:] != log_lam[:-1]):
        return t


def _cyclic_iterates(n: int, delta: float, x0: np.ndarray):
    """(iterates, log rho(C)^2) from x0 at delta < 1, or None where `_cyclic_spectrum` is.

    iterates(epochs) is the (len(epochs), n) array of x^e, e >= 1, by C's
    eigen-expansion (module docstring): O(n^2) a row, in 8 MB row blocks.
    """
    if (t := _cyclic_spectrum(n, delta)) is None:
        return None
    k, log_lam = np.arange(1, len(t) + 1), n * t
    unit = np.exp(-2j * np.pi * np.arange(n) / n)  # w^-j
    b = -(-n // -(-n * len(t) // 2**19))  # rows per block of about 8 MB of r_k^i
    R = np.exp(np.arange(b)[:, None] * t) * unit[np.arange(b)[:, None] * k % n]  # r_k^j, j < b

    def blocks():  # rows i.. of [Re V, Im V], V[i, k] = r_k^i: a complex gemv
        for i in range(0, n, b):  # stalled 8 ms in 2 of 10 processes on two threads
            V = R[: n - i] * (np.exp(i * t) * unit[i * k % n]) if i else R
            yield slice(i, i + b), np.hstack([V.real, V.imag])

    xt = x0.copy()  # (L+D) x0
    xt[1:] += (1.0 - delta) * np.cumsum(x0)[:-1]
    num = sum(xt[::-1][r] @ W for r, W in blocks())
    r_last, one_r = np.exp((n - 1) * t) * unit[(n - 1) * k % n], -np.expm1(t - 2j * np.pi * k / n)
    c = (num[: len(t)] + 1j * num[len(t):]) * np.where(2 * k == n, 1.0, 2.0)
    c /= n * r_last + (1.0 - delta) / one_r * (-np.expm1(log_lam) / one_r - n * r_last)

    def iterates(epochs):
        a = c * np.exp(np.multiply.outer(np.asarray(epochs, dtype=float), log_lam))
        a, Y = np.hstack([a.real, -a.imag]), np.empty((len(a), n))
        for r, W in blocks():
            Y[:, r] = a @ W.T
        return Y

    return iterates, 2.0 * log_lam.real.max()
