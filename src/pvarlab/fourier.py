"""Fourier partial sums, Fejer means, and uniform-convergence criteria.

Coefficient convention: a_n = (1/pi) integral f cos(nx), b_n likewise with
sin, S_n = a0/2 + sum_{k<=n} a_k cos(kx) + b_k sin(kx), and the coefficient
magnitude is sqrt(a_n^2 + b_n^2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .modulus import (ModulusOfVariation, _check_count, _check_p, _check_ratio, _ratio_vanishes,
                      epsilon_p_table)
from .sampled import SampledFunction

TWO_PI = 2.0 * math.pi

__all__ = [
    "FourierCoeffs",
    "fourier_coeffs",
    "partial_sum",
    "fejer_mean",
    "fejer_kernel",
    "fejer_kernel_integral",
    "modulus_of_continuity",
    "OmegaPower",
    "OmegaLog",
    "theta",
    "thetas",
    "ConvergenceSequences",
    "convergence_sequences",
    "q_sequence",
    "Unif2Report",
    "unif2_verdicts",
    "coeff_decay_report",
    "sine_integral_lower",
    "nikolskii_bound_check",
]


# ---------------------------------------------------------------------------
# Coefficients, partial sums, Fejer means
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FourierCoeffs:
    a0: float
    a: np.ndarray
    b: np.ndarray
    N: int


def _one_period(f: SampledFunction):
    if not f.periodic or f.period is None:
        raise ValueError("Fourier coefficients need a periodic function")
    if abs(f.period - TWO_PI) > 1e-9:
        raise ValueError("expected period 2*pi")
    g, v = f.grid, f.values
    if abs((g[-1] - g[0]) - f.period) <= 1e-12:  # duplicated endpoint
        g, v = g[:-1], v[:-1]
    steps = np.diff(g)
    if (np.max(steps) - np.min(steps) > 1e-9 * np.max(steps)
            or abs((g[-1] - g[0]) * g.size / (g.size - 1) - f.period) > 1e-9 * f.period):
        raise ValueError("need a uniform grid over one period")
    return g, v


def fourier_coeffs(f: SampledFunction, N: int) -> FourierCoeffs:
    """Rectangle-rule trigonometric coefficients, exact below the aliasing limit.

    On the m uniform samples g_j = g_0 + 2 pi j / m of one period the
    rectangle rule a_n - i b_n = (2/m) sum_j v_j exp(-i n g_j) is the DFT of
    the samples times exp(-i n g_0), so it is computed with one ``rfft``.
    """
    g, v = _one_period(f)
    m = g.size
    if 2 * N >= m:
        raise ValueError(f"aliasing limit exceeded: need N < {m}/2")
    ns = np.arange(1, N + 1)
    X = np.fft.rfft(v)[1:N + 1] * np.exp(-1j * ns * g[0])
    a = (2.0 / m) * X.real
    b = -(2.0 / m) * X.imag
    a0 = float((2.0 / m) * np.sum(v))
    return FourierCoeffs(a0=a0, a=a, b=b, N=int(N))


def _period_grid_size(x: np.ndarray) -> int:
    """Number L of distinct points when x is x_0 + 2 pi j / L for j < L
    (optionally with the endpoint x_0 + 2 pi repeated), else 0."""
    if x.ndim != 1 or x.size < 2:
        return 0
    L = x.size - 1 if abs((x[-1] - x[0]) - TWO_PI) <= 1e-12 else x.size
    ideal = x[0] + np.arange(L) * (TWO_PI / L)
    # a few ulps of x: a shift dx moves harmonic k by k dx, so the transform
    # then agrees with the direct sum to rounding
    tol = 1e-13 * (TWO_PI + abs(x[0]))
    return L if float(np.max(np.abs(x[:L] - ideal))) <= tol else 0


def _trig_sum(c: FourierCoeffs, n: int, x_grid, weight) -> np.ndarray:
    """a0/2 + sum_{k<=n} w_k (a_k cos kx + b_k sin kx) on x_grid, w = weight(k).

    A uniform period grid with more than 2n + 1 points takes one weighted
    ``irfft``; other points are summed harmonic by harmonic in O(len(x))
    memory.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > c.N:
        raise ValueError("n exceeds the computed harmonics")
    ks = np.arange(1, n + 1)
    w = weight(ks)
    x = np.asarray(x_grid, dtype=np.float64)
    L = _period_grid_size(x)
    if L > 2 * n + 1:
        C = np.zeros(L // 2 + 1, dtype=np.complex128)
        C[0] = L * c.a0 / 2.0
        C[1:n + 1] = (L / 2.0) * w * (c.a[:n] - 1j * c.b[:n]) * np.exp(1j * ks * x[0])
        out = np.fft.irfft(C, L)
        return np.append(out, out[0]) if x.size > L else out
    out = np.full(x.shape, c.a0 / 2.0)
    for k in range(1, n + 1):
        out += w[k - 1] * (c.a[k - 1] * np.cos(k * x) + c.b[k - 1] * np.sin(k * x))
    return out


def partial_sum(c: FourierCoeffs, n: int, x_grid) -> np.ndarray:
    """Pointwise S_n(f, x) on x_grid."""
    return _trig_sum(c, n, x_grid, np.ones_like)


def fejer_mean(c: FourierCoeffs, n: int, x_grid) -> np.ndarray:
    """F_n = (S_0 + ... + S_n)/(n+1); Cesaro weights 1 - k/(n+1)."""
    return _trig_sum(c, n, x_grid, lambda ks: 1.0 - ks / (n + 1.0))


def fejer_kernel(n: int, t):
    """K_n(t) = (2/(n+1)) * (sin((n+1)t/2) / (2 sin(t/2)))^2, K_n(0) = (n+1)/2."""
    t = np.asarray(t, dtype=np.float64)
    s = np.sin(t / 2.0)
    num = np.sin((n + 1) * t / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = (2.0 / (n + 1)) * (num / (2.0 * s)) ** 2
    val = np.where(np.abs(s) < 1e-9, (n + 1) / 2.0, val)
    return val if val.ndim else float(val)


def fejer_kernel_integral(n: int) -> float:
    """Periodic trapezoid rule for K_n over [-pi, pi); equals pi.

    K_n is a trigonometric polynomial of degree n, and the trapezoid sum on
    N equispaced nodes of one period is exact for every degree below N, so
    N = 2n + 2 nodes give pi up to rounding.  The nodes (2j - N) pi / N are
    symmetric about 0 and include t = 0, where K_n takes its limit (n+1)/2.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    N = 2 * n + 2
    t = (np.arange(N) * 2 - N) * (math.pi / N)
    return float((TWO_PI / N) * np.sum(fejer_kernel(n, t)))


# ---------------------------------------------------------------------------
# Moduli of continuity
# ---------------------------------------------------------------------------

def modulus_of_continuity(f: SampledFunction, delta: float) -> float:
    """Grid-restricted sup over shifts h <= delta of sup_x |f(x+h) - f(x)|.

    Periodic functions use wraparound shifts; the wrap jump of a sawtooth is
    therefore included by design.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if delta == 0:
        return 0.0
    g, v = f.grid, f.values
    m = g.size
    if f.periodic:
        span = f.period
        cut = int(np.searchsorted(g, g[0] + min(delta, span), side="right"))
        ge = np.concatenate([g, g[: cut + 1] + span]) if cut else g
        ve = np.concatenate([v, v[: cut + 1]]) if cut else v
        return _kernels.shift_max(ge, ve, min(delta, span), m)
    return _kernels.shift_max(g, v, delta, m)


class OmegaPower:
    """omega(d) = d^alpha for alpha in (0, 1]."""

    def __init__(self, alpha: float):
        if not (0.0 < alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")
        self.alpha = alpha
        self.name = f"power:{alpha:g}"

    def __call__(self, d: float) -> float:
        return float(d) ** self.alpha if d > 0 else 0.0


class OmegaLog:
    """omega(d) = 1/log(e + 1/d)."""

    name = "log"

    def __call__(self, d: float) -> float:
        return 1.0 / math.log(math.e + 1.0 / d) if d > 0 else 0.0


# ---------------------------------------------------------------------------
# Convergence criterion sequences
# ---------------------------------------------------------------------------

def _split_objectives(nu: ModulusOfVariation, omega, p: float, ns) -> list:
    """Per n in ns: (omega(1/n), H_r, objective) for r = 1..n-1, and the
    minimizing split index.

    The objective is omega(1/n) H_r + sum_{k>r} nu(k)/k^(1+1/p); ties go to
    the smallest r.  H_r and the cumulative tail sums are built once, up to
    the largest n, and each n reads prefixes of them: a cumulative sum adds
    in order, so a prefix holds the floats of a shorter run.
    """
    _check_p(p)
    ns = [int(n) for n in ns]
    for n in ns:
        if n < 2:
            raise ValueError(f"n must be >= 2, got {n}")
        _check_count(n)
    ks = np.arange(1, max(ns, default=2), dtype=np.float64)  # 1..max n - 1
    harm = np.cumsum(1.0 / ks)
    tail_cum = np.cumsum(nu.table(ks.size) / ks ** (1.0 + 1.0 / p))
    out = []
    for n in ns:
        w = omega(1.0 / n)
        obj = w * harm[:n - 1] + (tail_cum[n - 2] - tail_cum[:n - 1])
        out.append((w, harm[:n - 1], obj, int(np.argmin(obj)) + 1))
    return out


def thetas(nu: ModulusOfVariation, omega, p: float, ns) -> list[int]:
    """``theta`` at every n in ns, from one pass over the prefix sums."""
    return [th for *_, th in _split_objectives(nu, omega, p, ns)]


def theta(nu: ModulusOfVariation, omega, p: float, n: int) -> int:
    """Smallest r in [1, n-1] minimizing omega(1/n) H_r + sum_{k>r} nu(k)/k^(1+1/p)."""
    return thetas(nu, omega, p, [n])[0]


@dataclass(frozen=True)
class ConvergenceSequences:
    n: int
    theta: int
    rho: float
    sigma: float
    tau: float
    eta: float


def convergence_sequences(nu: ModulusOfVariation, omega, p: float, n: int) -> ConvergenceSequences:
    """rho, sigma, tau, eta at n; tails are empty at n = 2."""
    w, harm, obj, th = _split_objectives(nu, omega, p, [n])[0]
    head = w * harm[th - 1]
    rho = float(obj[th - 1])
    terms = _series_terms(nu, p, n - 1)
    sigma = head + float(np.sum(terms["epsp_harmonic"][th:]))
    tau = head + float(np.sum(terms["nu_increment"][th:]))
    eta = head + float(np.sum(terms["weighted_delta"][th:]))
    return ConvergenceSequences(n=int(n), theta=th, rho=rho, sigma=float(sigma),
                                tau=float(tau), eta=float(eta))


def q_sequence(p: float, ks) -> np.ndarray:
    """Q_k = 1 - k + k^(1+1/p)/(k+1)^(1/p), computed cancellation-free.

    Q_k = 1 - k(1 - (k/(k+1))^(1/p)); bounds 1 - 1/p <= Q_k <= 2^(-1/p).
    """
    _check_p(p)
    k = np.asarray(ks, dtype=np.float64)
    eps = 1.0 / (k + 1.0)
    return 1.0 + k * np.expm1(np.log1p(-eps) / p)


# ---------------------------------------------------------------------------
# The uniform-convergence series battery
# ---------------------------------------------------------------------------

_SERIES_LABELS = ("nu_tail", "weighted_delta", "nu_increment", "epsp_harmonic", "dual_lower")


@dataclass(frozen=True)
class Unif2Report:
    horizon: int
    partials: dict
    half_partials: dict
    converges: dict
    method: str


def _series_terms(nu: ModulusOfVariation, p: float, horizon: int) -> dict:
    ks = np.arange(1, horizon + 1, dtype=np.float64)
    nut = nu.table(horizon)
    nu_prev = np.concatenate(([0.0], nut[:-1]))
    eps_p = epsilon_p_table(nu, p, horizon)
    delta_w = ks ** (-1.0 / p) - (ks + 1.0) ** (-1.0 / p)
    epsp_div_k = eps_p / ks
    return {
        "nu_tail": nut / ks ** (1.0 + 1.0 / p),
        "weighted_delta": delta_w * nut,
        "nu_increment": (nut - nu_prev) / ks ** (1.0 / p),
        "epsp_harmonic": epsp_div_k,
        "dual_lower": epsp_div_k,
    }


def unif2_verdicts(nu: ModulusOfVariation, p: float, horizon: int) -> Unif2Report:
    """Partial sums at horizon and horizon/2 of the five series with verdicts.

    For power/log families the integral test decides convergence (the
    partial-sum increment heuristic misclassifies series on the p-series
    boundary at finite horizons); the raw partials make this auditable.
    A table modulus is undecided, since a finite table cannot show a limit:
    each verdict is None, with method "undecided", and the partials stay.
    A pair (nu, p) that ``_check_ratio`` refuses is a ValueError.
    """
    _check_p(p)
    if horizon < 16:
        raise ValueError("horizon must be >= 16")
    _check_count(horizon, "horizon")
    _check_ratio(nu, p, horizon)
    terms = _series_terms(nu, p, horizon)
    half = horizon // 2
    truth = _ratio_vanishes(nu, p)
    return Unif2Report(
        horizon=int(horizon),
        partials={k: float(np.sum(v)) for k, v in terms.items()},
        half_partials={k: float(np.sum(v[:half])) for k, v in terms.items()},
        converges=dict.fromkeys(_SERIES_LABELS, truth),  # one verdict for all five
        method="integral-test" if truth is not None else "undecided",
    )


def coeff_decay_ratios(f: SampledFunction, nu: ModulusOfVariation, p: float,
                       N: int) -> np.ndarray:
    """|f^(n)| n^(1/p) / nu(n) for 1 <= n <= N."""
    _check_p(p)
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    c = fourier_coeffs(f, N)
    ns = np.arange(1, N + 1, dtype=np.float64)
    return np.hypot(c.a, c.b) * ns ** (1.0 / p) / nu.table(N)


def coeff_decay_report(f: SampledFunction, nu: ModulusOfVariation, p: float, N: int) -> float:
    """sup over 1 <= n <= N of |f^(n)| n^(1/p) / nu(n)."""
    return float(np.max(coeff_decay_ratios(f, nu, p, N)))


@functools.cache
def _gauss_legendre_24() -> tuple[np.ndarray, np.ndarray]:
    """The 24-node Gauss-Legendre nodes and weights, computed on first use."""
    x, w = np.polynomial.legendre.leggauss(24)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def sine_integral_lower(a: int, b: int, n: int):
    """(int_{a pi/n}^{b pi/n} sin^2(nt)/t dt, (1/12) sum_{i=a}^{b} 1/i).

    Substituting u = nt, the integral equals int_{a pi}^{b pi} sin^2(u)/u du.
    Each piece [k pi, (k+1) pi], k = a..b-1, takes one 24-node Gauss-Legendre
    rule.  With u = (k + s) pi the integrand is sin^2(pi s) / ((k + s) pi), so
    sin^2 is evaluated at the 24 nodes s in (0, 1) only, never at large u.
    The nearest singularity, u = 0, lies at least one piece length from every
    piece, so the rule is accurate to rounding.
    """
    if not (a >= 1 and b >= 1 and n >= 1):
        raise ValueError("a, b, n must be positive integers")
    if a >= b:
        raise ValueError("need a < b")
    x, w = _gauss_legendre_24()
    s = 0.5 * (x + 1.0)
    k = np.arange(a, b, dtype=np.float64)[:, None]
    # the Jacobian pi/2 of [-1, 1] -> [k pi, (k+1) pi] over the pi in u leaves 1/2
    lhs = 0.5 * float(np.sum(w * np.sin(math.pi * s) ** 2 / (k + s)))
    rhs = float(np.sum(1.0 / np.arange(a, b + 1, dtype=np.float64)) / 12.0)
    return lhs, rhs


def nikolskii_bound_check(f: SampledFunction, nu: ModulusOfVariation, omega, p: float, n: int):
    """(grid sup of |f - S_n f|, sigma(n) + nu(n)/n^(1/p)).

    The factor 2 that ``test_nikolskii_bound`` allows on ``err / bound`` is
    an empirical constant, not one derived in the paper.
    """
    c = fourier_coeffs(f, n)
    s = partial_sum(c, n, f.grid)
    err = float(np.max(np.abs(f.values - s)))
    seqs = convergence_sequences(nu, omega, p, n)
    bound = seqs.sigma + nu.value(n) / n ** (1.0 / p)
    return err, float(bound)
