"""Phi-sequence machinery, embedding criteria, and non-embedding witnesses."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .modulus import ModulusOfVariation, _check_count, _check_p
from .sampled import SampledFunction
from .variation import pvariation_profile

log = logging.getLogger("pvarlab")

__all__ = [
    "OrliczFunction",
    "power_orlicz",
    "exp_orlicz",
    "LambdaSequence",
    "PhiSequence",
    "phi_partial_inverse",
    "CriterionReport",
    "embedding_criterion",
    "corollary_criteria",
    "var_phi",
    "wu_bound_check",
    "wu_bound_checks",
    "Witness",
    "witness_generate",
]


# ---------------------------------------------------------------------------
# Convex gauges
# ---------------------------------------------------------------------------

class OrliczFunction:
    """Increasing convex function with phi(0) = 0 and its closed-form inverse,
    both vectorized."""

    q: float | None = None  # set by ``power_orlicz``: phi(x) = x^q

    def __init__(self, name: str, fn, inv):
        self.name = name
        self._fn = fn
        self._inv = inv

    def __call__(self, x):
        return self._fn(np.asarray(x, dtype=np.float64))

    def inverse(self, y):
        """phi^{-1}(y), in closed form."""
        return self._inv(np.asarray(y, dtype=np.float64))


def power_orlicz(q: float) -> OrliczFunction:
    _check_p(q, "q")
    gauge = OrliczFunction(f"power:{q:g}", lambda x: x ** q, lambda y: y ** (1.0 / q))
    gauge.q = q
    return gauge


def exp_orlicz() -> OrliczFunction:
    return OrliczFunction("exp", np.expm1, np.log1p)


# Bit patterns of nonnegative floats, as int64, are ordered like the floats
# themselves, so the bracket below works on them: a midpoint in bits is
# geometric across binades and arithmetic within one.
_TOP = int(np.float64(2.0 ** 1023).view(np.int64))  # the largest bracket end
# Closed-form seeds at y = 1, k <= 100 000 lie at most 6 ulps from their roots (2 for power:2,
# exp and power:3 over harmonic, 3 for power:3): the first gallop steps, 1 and 17 ulps, bracket them.
_SEEDED_STEP = 1
_UNSEEDED_STEP = 1 << 52  # one binade around 1
_GALLOP = 16


def _bisect_increasing(fn, y, start=None):
    """Where a nondecreasing vectorized fn crosses each target y.

    ``fn`` maps an array of x to an array of the same shape, entry i against
    target y[i].  Each target starts at ``start[i]`` where that is finite and
    > 0, else at 1.  The bracket gallops out from there (1 ulp from a seed,
    one binade without ``start``, 16 times further each step) until
    fn(lo) < y <= fn(hi), with lo = 0 when fn reaches y at the smallest
    positive float, then halves in bit patterns until lo and hi are adjacent
    floats; their midpoint (rounded, so one of the two) is returned.  A fn
    monotone in floats has one such pair per target, so every start ends on
    the same floats: a seed only shortens the search, and a bad one (far off,
    0, nan, inf) costs steps, never bits.  A target fn does not reach by
    2^1023 is a ValueError.

    Targets never interact: entry i of each step reads only fn's entry i, and
    a closed pair probes its hi again, which keeps its side of y, so batching
    cannot move any target's float.
    """
    y = np.asarray(y, dtype=np.float64)
    scalar = y.ndim == 0
    y = np.atleast_1d(y)
    if start is None:
        probe, step = np.ones_like(y), _UNSEEDED_STEP
    else:
        seed = np.broadcast_to(np.asarray(start, dtype=np.float64), y.shape)
        probe, step = np.where(np.isfinite(seed) & (seed > 0), seed, 1.0), _SEEDED_STEP
    probe = np.minimum(probe.view(np.int64), _TOP, out=probe.view(np.int64))
    lo = np.full(y.shape, -1, dtype=np.int64)  # -1: this side is not known yet
    hi = lo.copy()
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # fn may run to inf
        while _advance(fn(probe.view(np.float64)) < y, probe, lo, hi, step):
            step = min(step * _GALLOP, _TOP)
    out = np.add(lo.view(np.float64), hi.view(np.float64), out=probe.view(np.float64))
    out *= 0.5
    return float(out[0]) if scalar else out


def _advance(below, probe, lo, hi, step) -> bool:
    """One bracket step, in place: record which side of y each probe fell on,
    then write the next probe (a gallop step out from the known side, or the
    bit midpoint); False once every pair is adjacent.

    lo, hi and probe are the only full-size arrays the bisection keeps; the
    masks are local here, so none of them is alive while fn runs.
    """
    if (below & (probe == _TOP)).any():
        raise ValueError("inverse exceeds the float range")
    np.copyto(lo, probe, where=below)
    np.copyto(hi, probe, where=~below)
    lo[(hi == 1) & (lo < 0)] = 0  # fn reaches y at the smallest float
    up, down = hi < 0, lo < 0
    np.subtract(hi, lo, out=probe)
    if not (up.any() or down.any() or (probe > 1).any()):
        return False
    probe >>= 1
    np.subtract(hi, probe, out=probe)  # a closed pair probes hi again
    probe[up] = np.minimum(lo[up], _TOP - step) + step
    probe[down] = np.maximum(hi[down], step + 1) - step
    return True


# Lambda_n up to here is the float cumsum of its terms, past it the
# Euler-Maclaurin tail; at least the default horizon 100 000, so every
# criterion trace to that horizon reads the cumsum.
_N_LAMBDA = 1 << 17


class LambdaSequence:
    """lambda_j = j^beta with 0 <= beta <= 1: nondecreasing, positive, with
    divergent reciprocal sum (beta = 1 is the harmonic sequence)."""

    def __init__(self, beta: float):
        if beta > 1:
            raise ValueError("lambda_j = j^beta with beta > 1 has summable reciprocals")
        if not beta >= 0:  # written so that nan fails too
            raise ValueError(f"power Lambda-sequence needs 0 <= beta <= 1, got {beta!r}")
        self.beta = beta
        self.name = f"power:{beta:g}"
        self._lambda_big_n = None  # Lambda_N, the last float of the prefix cumsum

    @classmethod
    def power(cls, beta: float) -> "LambdaSequence":
        return cls(beta)

    @classmethod
    def harmonic(cls) -> "LambdaSequence":
        return cls(1.0)

    def value(self, j):
        return np.asarray(j, dtype=np.float64) ** self.beta

    def cumulative(self, n) -> np.ndarray:
        """Lambda_n = sum_{j<=n} 1/lambda_j, elementwise over an array of n >= 1.

        At beta = b = 0, Lambda_n is n itself.  Up to N = ``_N_LAMBDA`` it is
        ``np.cumsum`` of the terms 1/j^b, computed up to min(max n, N); cumsum
        adds in sequence, so every n <= N reads the same float however far
        the sum runs.  Past N it is Lambda_N + T(n).  Lambda_N is that
        cumsum's last float, kept on the instance the first time it is
        summed, so a call whose every n lies past N sums no prefix.  T(n) is
        the Euler-Maclaurin sum of the terms N+1..n of f(x) = x^-b:

            T(n) = N^(1-b) expm1((1-b) log(n/N)) / (1-b)    (log(n/N) at b = 1)
                   + (n^-b - N^-b)/2 - b (n^(-b-1) - N^(-b-1))/12
                   + b(b+1)(b+2) (n^(-b-3) - N^(-b-3))/720,

        that is, the integral of f, the endpoint terms and the B_2 and B_4
        corrections.  The remainder is -int_N^n f^(4)(x) P_4(x)/4! dx with
        |P_4| <= |B_4| = 1/30, so it is at most int_N^n |f^(4)|/720 =
        |f'''(n) - f'''(N)|/720 < b(b+1)(b+2) N^(-b-3)/720 <= 2^-51 N^-b/120,
        below 1e-22 of Lambda_N >= N^(1-b).  The integral is written
        N^(1-b)((n/N)^(1-b) - 1)/(1-b), so it keeps its relative accuracy as
        b -> 1, where n^(1-b)/(1-b) and N^(1-b)/(1-b) would cancel; the
        factor (n/N)^(1-b) - 1 is expm1(y), y = (1-b) log(n/N), for y < 1, and
        ``pow`` minus 1 past that, where the rounding of y, amplified about
        y times by expm1, would cost more (13 ulps of Lambda_n at b = 0.25,
        n near 2^34, against 2.3 with ``pow``).
        """
        n = np.asarray(n)
        if self.beta == 0:
            return n.astype(np.float64)
        idx = n.astype(np.int64)
        if np.min(idx) > _N_LAMBDA and self._lambda_big_n is not None:
            return self._lambda_big_n + self._tail(idx)
        top = int(min(np.max(idx), _N_LAMBDA))
        prefix = np.cumsum(1.0 / self.value(np.arange(1, top + 1, dtype=np.float64)))
        head = prefix[np.minimum(idx, top) - 1]
        if top < _N_LAMBDA:
            return head
        self._lambda_big_n = float(prefix[-1])
        return np.where(idx > _N_LAMBDA, head + self._tail(np.maximum(idx, _N_LAMBDA)), head)

    def _tail(self, n) -> np.ndarray:
        """T(n) of ``cumulative``: the sum of the terms N+1..n, for n >= N."""
        b, big_n = self.beta, float(_N_LAMBDA)
        x = np.asarray(n, dtype=np.float64)
        ratio = x / big_n  # exact: N is a power of two
        if b == 1:
            integral = np.log(ratio)
        else:
            y = (1.0 - b) * np.log(ratio)
            grown = np.where(y < 1.0, np.expm1(y), ratio ** (1.0 - b) - 1.0)
            integral = big_n ** (1.0 - b) * grown / (1.0 - b)

        def diff(e):
            return x ** e - big_n ** e

        return (integral + diff(-b) / 2.0 - b * diff(-b - 1.0) / 12.0
                + b * (b + 1.0) * (b + 2.0) * diff(-b - 3.0) / 720.0)


# ---------------------------------------------------------------------------
# Phi-sequences
# ---------------------------------------------------------------------------

_CHECK_XS = np.array([0.25, 0.5, 1.0, 2.0, 4.0])


class PhiSequence:
    """Nonincreasing-in-j sequence of increasing convex phi_j with phi_j(0) = 0.

    Every Phi is one gauge over weights: phi_j = phi / lambda_j, so
    Phi_n = Lambda_n phi with Lambda_n = sum_{j<=n} 1/lambda_j, and the
    gauge's closed inverse gives Phi_n^{-1} in closed form up to rounding.
    ``power_all(q)`` (phi = x^q) and ``orlicz_all(phi)`` have lambda_j = 1,
    read as Lambda_n = n; ``orlicz_over_lambda(phi, lam)`` reads Lambda_n
    from ``lam``.
    """

    def __init__(self, name: str, gauge: OrliczFunction, lam: LambdaSequence | None = None):
        self.name = name
        self.gauge = gauge
        self.lam = lam  # None: lambda_j = 1
        # q when every phi_j is the same x^q, else None
        self.power_q = gauge.q if lam is None else None
        self._validate()

    # constructors ----------------------------------------------------------

    @classmethod
    def power_all(cls, q: float) -> "PhiSequence":
        gauge = power_orlicz(q)
        return cls(gauge.name, gauge)

    @classmethod
    def orlicz_all(cls, phi: OrliczFunction) -> "PhiSequence":
        return cls(f"orlicz:{phi.name}", phi)

    @classmethod
    def orlicz_over_lambda(cls, phi: OrliczFunction, lam: LambdaSequence) -> "PhiSequence":
        return cls(f"orlicz:{phi.name}/lambda:{lam.name}", phi, lam)

    # validation ------------------------------------------------------------

    def _validate(self):
        xs = _CHECK_XS
        prev = None
        for j in range(1, 9):
            vals = self.phi(j, xs)
            if abs(float(self.phi(j, 0.0))) > 1e-12:
                raise ValueError(f"phi_{j}(0) != 0")
            if np.any(np.diff(vals) <= 0):
                raise ValueError(f"phi_{j} is not increasing on the check grid")
            mid = self.phi(j, 0.5 * (xs[:-1] + xs[1:]))
            if np.any(mid > 0.5 * (vals[:-1] + vals[1:]) + 1e-9):
                raise ValueError(f"phi_{j} fails the midpoint convexity test")
            if prev is not None and np.any(vals > prev + 1e-12):
                raise ValueError("phi_(j+1) must not exceed phi_j pointwise")
            prev = vals

    # evaluation ------------------------------------------------------------

    def _lambda_n(self, n) -> np.ndarray:
        """Lambda_n elementwise over an array of n: n itself when lambda_j = 1."""
        if self.lam is None:
            return np.asarray(n, dtype=np.float64)
        return self.lam.cumulative(n)

    def phi(self, j, x):
        """phi_j(x), elementwise over an array of j the way ``partial`` takes n."""
        return self.gauge(x) if self.lam is None else self.gauge(x) / self.lam.value(j)

    def partial(self, n, x):
        """Phi_n(x) = sum_{j<=n} phi_j(x), elementwise over arrays of n and x."""
        return self._lambda_n(n) * self.gauge(x)

    def inverse_at_one_table(self, kmax: int) -> np.ndarray:
        """[Phi_k^{-1}(1) for k = 1..kmax]: one ``phi_partial_inverse`` call.

        Each entry is bisected on its own, so a shorter table is a prefix of
        a longer one, bit for bit.
        """
        return phi_partial_inverse(self, np.arange(1, kmax + 1, dtype=np.float64), 1.0)

    def closed_inverse(self, n, y):
        """Closed-form estimate phi^{-1}(y / Lambda_n) of Phi_n^{-1}(y), or
        n^(-1/q) y^(1/q) when every phi_j is x^q, elementwise over arrays of n
        and y.

        ``phi_partial_inverse`` starts its bisection here, so the estimate
        only needs to be near the root: its floats come from the bisection,
        not from this value.  The witness score reads it directly at y = 1, as
        n^(-1/q) (times 1^(1/q) = 1) or phi^{-1}(1/Lambda_n).
        """
        q = self.power_q
        if q is not None:
            return np.asarray(n, dtype=np.float64) ** (-1.0 / q) * np.asarray(y) ** (1.0 / q)
        return self.gauge.inverse(y / self._lambda_n(n))


def phi_partial_inverse(Phi: PhiSequence, n, y):
    """x with Phi_n(x) = y, elementwise over arrays of n and y.

    The result is the adjacent-float transition of the monotone bisection:
    the smallest float x with Phi_n(x) >= y, or the float just below it.
    The bisection starts at ``Phi.closed_inverse(n, y)``, which shortens it
    but cannot move that transition.  Lambda_n is read once, and each step
    evaluates ``Lambda_n * phi(x)``: the floats of ``Phi.partial(n, x)``.
    """
    scalar = np.ndim(n) == 0 and np.ndim(y) == 0
    ns, ys = np.broadcast_arrays(np.atleast_1d(np.asarray(n, dtype=np.float64)),
                                 np.atleast_1d(np.asarray(y, dtype=np.float64)))
    if np.any(ns < 1):
        raise ValueError("n must be >= 1")
    if np.any(ys < 0):
        raise ValueError("y must be >= 0")
    lam_n, gauge = Phi._lambda_n(ns), Phi.gauge
    x = _bisect_increasing(lambda x: lam_n * gauge(x), ys, Phi.closed_inverse(ns, ys))
    return float(x[0]) if scalar else x


# ---------------------------------------------------------------------------
# Embedding criterion
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CriterionReport:
    horizon: int
    trace: np.ndarray
    running_sup: float
    verdict: str
    crosscheck_gap: float | None = None

    def to_json_dict(self) -> dict:
        d = {
            "horizon": self.horizon,
            "trace": self.trace.tolist(),
            "running_sup": self.running_sup,
            "verdict": self.verdict,
        }
        if self.crosscheck_gap is not None:
            d["crosscheck_gap"] = self.crosscheck_gap
        return d


# The one verdict rule; ``embedding_criterion`` documents it.
_GROWTH_FACTOR = 10.0
_REF_FRACTION = 0.25
_TAIL_TOL = 1e-9


def _verdict_from_trace(trace: np.ndarray) -> str:
    h = trace.size
    ref = max(1, int(h * _REF_FRACTION))
    floor = float(np.min(trace[:ref]))
    end = float(trace[-1])
    mid = float(trace[h // 2 - 1])
    if floor > 0 and end > _GROWTH_FACTOR * floor:
        return "Fails"
    if end <= mid * (1.0 + _TAIL_TOL):
        return "Embeds"
    return "Inconclusive"


def _exponent_verdict(Phi: PhiSequence, nu: ModulusOfVariation, p: float) -> str | None:
    """The verdict, "Embeds" or "Fails", from the growth exponents of
    g(n) = n^(1/p) Phi_n^{-1}(1) and nu(n) where they decide it; else None.

    The criterion asks whether the trace max_(k<=n) g(k)/nu(n) stays bounded.
    The rule covers nu = n^alpha and nu = log(1 + n), with two kinds of Phi:

    - phi_j = x^q / j^beta (``power_all``, ``orlicz_all(power_orlicz(q))`` at
      beta = 0).  Then g(n) = n^(1/p) Lambda_n^(-1/q).  For beta < 1,
      n^(1-beta) <= Lambda_n <= 1 + int_1^n x^-beta dx <= n^(1-beta)/(1-beta)
      (no term is below the last one; the terms decrease), so
      (1-beta)^(1/q) n^c <= g(n) <= n^c with c = 1/p - (1-beta)/q, and the
      running max of g is of order n^max(c, 0).  The trace is bounded iff
      max(c, 0) <= alpha for nu = n^alpha (alpha > 0), that is c <= alpha,
      and iff c <= 0 for nu = log(1 + n).  For beta = 1, log(n + 1) <=
      Lambda_n <= 1 + log n, so g(n) is of order n^(1/p) (log n)^(-1/q),
      which grows: bounded iff 1/p <= alpha for nu = n^alpha, never for
      nu = log(1 + n).
    - ``orlicz_all(exp_orlicz())``.  Then g(n) = n^(1/p) log1p(1/n) <=
      n^(1/p - 1) <= 1 and nu(n) >= nu(1) > 0, so every trace is bounded.

    c <= alpha and c <= 0 are decided in exact rational arithmetic on the
    given floats (``Fraction``), with no tolerance.  A table nu, or any other
    gauge, returns None and keeps the trace heuristic.
    """
    if nu.kind not in ("power", "log"):
        return None
    gauge = Phi.gauge
    if Phi.lam is None and gauge._fn is np.expm1 and gauge._inv is np.log1p:
        return "Embeds"
    if gauge.q is None:
        return None
    beta = Fraction(0 if Phi.lam is None else Phi.lam.beta)
    alpha = Fraction(nu.alpha) if nu.kind == "power" else Fraction(0)
    if beta == 1:
        embeds = nu.kind == "power" and 1 / Fraction(p) <= alpha
    else:
        embeds = 1 / Fraction(p) - (1 - beta) / Fraction(gauge.q) <= alpha
    return "Embeds" if embeds else "Fails"


def _report_from_scores(scores: np.ndarray, nu: ModulusOfVariation,
                        crosscheck_gap: float | None = None,
                        verdict: str | None = None) -> CriterionReport:
    horizon = scores.size
    trace = np.maximum.accumulate(scores) / nu.table(horizon)
    return CriterionReport(
        horizon=horizon,
        trace=trace,
        running_sup=float(np.max(trace)),
        verdict=verdict or _verdict_from_trace(trace),
        crosscheck_gap=crosscheck_gap,
    )


def embedding_criterion(Phi: PhiSequence, nu: ModulusOfVariation, p: float,
                        horizon: int) -> CriterionReport:
    """Trace of (1/nu(n)) max_{k<=n} k^(1/p) Phi_k^{-1}(1) for n <= horizon, with a verdict.

    Embeds means the trace stays bounded as n grows.  Where the exponent rule
    decides it (``_exponent_verdict``: power and log nu, with a power gauge
    over j^beta or exp), the verdict is the rule's.  Elsewhere the trace
    decides by a fixed heuristic: Fails when the trace at the horizon
    exceeds 10 times its minimum over the first quarter of the horizon;
    Embeds when the trace at the horizon is at most (1 + 1e-9) times its
    value at half the horizon; otherwise Inconclusive.  ``witness_generate``
    reads the same verdict.
    """
    _check_p(p)
    if horizon < 8:
        raise ValueError("horizon must be >= 8")
    _check_count(horizon, "horizon")
    ks = np.arange(1, horizon + 1, dtype=np.float64)
    scores = ks ** (1.0 / p) * Phi.inverse_at_one_table(horizon)
    verdict = _exponent_verdict(Phi, nu, p)
    log.debug("embedding verdict: %s", "trace heuristic" if verdict is None else "exponent rule")
    return _report_from_scores(scores, nu, verdict=verdict)


_COROLLARY_CASES = ("BVq", "Salem", "LambdaBV", "WatermanShiba", "PhiLambda")


def corollary_criteria(case: str, nu: ModulusOfVariation, p: float, horizon: int, *,
                       q: float | None = None, phi: OrliczFunction | None = None,
                       lam: LambdaSequence | None = None) -> CriterionReport:
    """Case-specific embedding expressions, cross-checked against the generic
    criterion on the induced Phi-sequence (max gap must stay within 1e-9)."""
    _check_p(p)
    if case not in _COROLLARY_CASES:
        raise ValueError(f"case must be one of {_COROLLARY_CASES}")
    _check_count(horizon, "horizon")
    ks = np.arange(1, horizon + 1, dtype=np.float64)
    kp = ks ** (1.0 / p)
    if case == "BVq":
        if q is None:
            raise ValueError("BVq needs q")
        expr = ks ** (1.0 / p - 1.0 / q)
        induced = PhiSequence.power_all(q)
    elif case == "Salem":
        if phi is None:
            raise ValueError("Salem needs an Orlicz function")
        expr = kp * phi.inverse(1.0 / ks)
        induced = PhiSequence.orlicz_all(phi)
    elif case == "LambdaBV":
        if lam is None:
            raise ValueError("LambdaBV needs a Lambda-sequence")
        expr = kp / lam.cumulative(ks)
        induced = PhiSequence.orlicz_over_lambda(power_orlicz(1.0), lam)
    elif case == "WatermanShiba":
        if lam is None or q is None:
            raise ValueError("WatermanShiba needs q and a Lambda-sequence")
        expr = kp * lam.cumulative(ks) ** (-1.0 / q)
        induced = PhiSequence.orlicz_over_lambda(power_orlicz(q), lam)
    else:  # PhiLambda
        if lam is None or phi is None:
            raise ValueError("PhiLambda needs an Orlicz function and a Lambda-sequence")
        expr = kp * phi.inverse(1.0 / lam.cumulative(ks))
        induced = PhiSequence.orlicz_over_lambda(phi, lam)

    generic = kp * induced.inverse_at_one_table(horizon)
    gap = float(np.max(np.abs(expr - generic) / np.maximum(1.0, np.abs(expr))))
    if gap > 1e-9:
        raise RuntimeError(f"corollary expression disagrees with the generic criterion (gap {gap:g})")
    return _report_from_scores(expr, nu, crosscheck_gap=gap)


# ---------------------------------------------------------------------------
# Phi-variation of sampled functions
# ---------------------------------------------------------------------------

def var_phi(f: SampledFunction, Phi: PhiSequence) -> float:
    """sup over selections of sum_j phi_j(|f(I_j)|), largest difference first.

    Enumerates every selection of nonoverlapping intervals, so the grid may
    hold at most 14 points; any number of intervals that fits is allowed.
    """
    v = f.values
    m = len(f)
    if m > 14:
        raise ValueError(f"var_phi enumerates every selection: at most 14 grid points, got {m}")
    best = 0.0

    def value_of(diffs: list[float]) -> float:
        d = sorted(diffs, reverse=True)
        return float(sum(float(Phi.phi(j + 1, x)) for j, x in enumerate(d)))

    def recurse(start: int, diffs: list[float]):
        nonlocal best
        if diffs:
            val = value_of(diffs)
            if val > best:
                best = val
        for i in range(start, m - 1):
            for j in range(i + 1, m):
                d = abs(v[j] - v[i])
                if d > 0:
                    diffs.append(d)
                    recurse(j, diffs)
                    diffs.pop()

    recurse(0, [])
    return best


def wu_bound_checks(Phi: PhiSequence, xs, p: float, budgets) -> list[tuple[float, float, bool]]:
    """``wu_bound_check`` for each case (x, var_budget) of ``zip(xs, budgets)``.

    Every case is validated first, in order, with the same messages.  The
    inverses Phi_m^{-1}(budget) of all cases then run as one
    ``phi_partial_inverse`` call over the concatenated (m, budget) pairs.
    Targets never interact in the bisection and each case's max is taken
    over its own slice, so every result is bit-identical to its own call.
    """
    _check_p(p)
    cases = []
    for x, budget in zip(xs, budgets):
        x = np.asarray(x, dtype=np.float64)
        if np.any(x < 0) or np.any(np.diff(x) > 1e-12):
            raise ValueError("x must be nonincreasing and nonnegative")
        total = float(np.sum(Phi.phi(np.arange(1, x.size + 1), x)))
        if total > budget * (1.0 + 1e-12) + 1e-15:
            raise ValueError("sum phi_j(x_j) exceeds the variation budget")
        cases.append((x, float(budget)))
    if not cases:
        return []
    sizes = [max(1, x.size) for x, _ in cases]
    ms = np.concatenate([np.arange(1, k + 1, dtype=np.float64) for k in sizes])
    targets = np.repeat([b for _, b in cases], sizes)
    terms = ms ** (1.0 / p) * phi_partial_inverse(Phi, ms, targets)
    out = []
    for (x, _), seg in zip(cases, np.split(terms, np.cumsum(sizes)[:-1])):
        lhs = float(np.sum(x ** p) ** (1.0 / p)) if x.size else 0.0
        rhs = 16.0 * float(np.max(seg))
        out.append((lhs, rhs, bool(lhs <= rhs * (1.0 + 1e-12))))
    return out


def wu_bound_check(Phi: PhiSequence, x, p: float, var_budget: float):
    """((sum x_j^p)^(1/p), 16 max_m m^(1/p) Phi_m^{-1}(var_budget), lhs <= rhs)."""
    return wu_bound_checks(Phi, [x], p, [var_budget])[0]


# ---------------------------------------------------------------------------
# Witness generation for failed embeddings
# ---------------------------------------------------------------------------

# The witness search budget.
_N_MAX = 1 << 34            # largest block index searched
_LITERAL_N_MAX = 1 << 27    # search cap while chasing the full 2^(4k) rate
_MAX_POINTS = 30_000_000    # total grid points over all blocks
_PREFIX_TEETH = 40          # teeth in the small replica DP check
_MAX_JSON_POINTS = 200_000  # a larger witness function is written as its point count


@dataclass(frozen=True)
class WitnessBlock:
    k: int
    n: int
    m: int
    s: int
    r: int
    height: float
    rate: float
    literal: bool


@dataclass(frozen=True)
class BlockCertificate:
    k: int
    n: int
    intervals: int
    objective: float
    ratio: float
    required: float
    varphi_term: float
    varphi_cap: float
    prefix_dp_ok: bool
    window_dp_ran: bool
    window_dp_value: float | None


@dataclass(frozen=True, eq=False)
class Witness:
    """Blocks and their certificates, ``certified`` when every one holds;
    ``function`` is their step function, built on first read."""

    blocks: tuple
    certificates: tuple
    varphi_total: float
    certified: bool

    @cached_property
    def function(self) -> SampledFunction:
        return _materialize(self.blocks)

    def to_json_dict(self) -> dict:
        points = 1 + 3 * sum(b.r for b in self.blocks) + int(_closes_at_one(self.blocks))
        if points <= _MAX_JSON_POINTS:
            fn = self.function.to_json_dict()
        else:
            fn = {"points": points, "omitted": True}
        return {
            "function": fn,
            "blocks": [dict(vars(b)) for b in self.blocks],
            "certificates": [dict(vars(c)) for c in self.certificates],
            "varphi_total": self.varphi_total,
            "certified": self.certified,
        }


def _score(Phi: PhiSequence, p: float, n: int) -> float:
    """g(n) = n^(1/p) Phi_n^{-1}(1), the score the block search reads at n.

    The block at n takes its tooth height from m = n, the index the paper's
    construction takes as the argmax of g over 1..n.  That choice is sound
    for every gauge: each certificate check reads only the block (its 2r
    differences of height h, nu(n), Phi_2r(h) against 2^(1-k), the prefix DP
    and the window value), so any m <= n gives a block that is certified, or
    reported uncertified, on its own.  m only steers which n the search tries.

    When the gauge is x^q (``Phi.gauge.q``: ``power_all(q)``,
    ``orlicz_all(power_orlicz(q))`` and x^q over weights j^beta), with
    c = 1/p - 1/q > 0, the real g strictly increases, so n is the exact
    argmax.  Without weights g(k) = k^(1/p) k^(-1/q) = k^c.  Over weights
    g(k) = k^(1/p) Lambda_k^(-1/q), and Lambda_(k+1)/Lambda_k <= 1 + 1/k,
    because Lambda_k >= k k^-beta (no term is below the last one), so
    g(k+1)/g(k) >= (1 + 1/k)^c > 1.

    ``orlicz:exp`` never reaches the search: for a power or log nu the
    exponent rule says Embeds, and for a table nu, g <= 1 and g(1) = log 2,
    so the end of every trace stays within 1/log 2 of its first-quarter
    floor, below the 10x Fails bar.  Gauges only the API builds (exp over
    weights, or a user's own ``OrliczFunction``) are steered by g(n) as well;
    there g need not increase, so such a witness may certify at a later n
    than its argmax would give, or be ``None``.

    The float is the one-element array expression ``ks ** (1/p) * ...``:
    numpy's array ``**`` and Python's float ``**`` differ in the last bit
    on some (k, p).
    """
    ks = np.arange(n, n + 1, dtype=np.float64)
    return float((ks ** (1.0 / p) * Phi.closed_inverse(ks, 1.0))[0])


def _block_geometry(k: int, n: int, Phi: PhiSequence):
    """(s, height) of the block at n: s <= n/4 + 1/2 teeth fit, each of height
    2^-k Phi_n^{-1}(1)."""
    s = int((2.0 ** (-k) * n + 1.0) // 2)
    height = 2.0 ** (-k) * phi_partial_inverse(Phi, n, 1.0)
    return s, height


def _first_passing(test, n_min: int, n_cap: int, factor: float):
    """(smallest n >= n_min passing ``test``, ``test`` at the first grown n that passed).

    n grows by ``factor`` up to n_cap until ``test`` passes ((None, None) if it
    never does); bisection then searches back down to n / factor.
    """
    n = n_min
    while n <= n_cap and not (hit := test(n)):
        n = max(n + 1, int(n * factor))
    if n > n_cap:
        return None, None
    lo, hi = max(n_min, int(n / factor)), n
    while lo < hi:
        mid = (lo + hi) // 2
        if test(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo, hit


def _search_block(Phi: PhiSequence, nu: ModulusOfVariation, p: float, k: int, point_cap: int):
    """Smallest n > 2^(k+2) whose block is certifiable; full growth rate first.

    The block at n has m = n (see ``_score``), and r <= s < n teeth.
    """
    n_min = 2 ** (k + 2) + 1
    full_rate_target = 2.0 ** (4 * k)
    required = 2.0 ** k
    reads = 0

    def rate(n: int) -> float:
        nonlocal reads
        reads += 1
        return _score(Phi, p, n) / nu.value(n)

    # Pass 1: the full 2^(4k) rate, if it is reachable within the search cap
    # and its block fits the point budget.
    n, _ = _first_passing(lambda n: rate(n) > full_rate_target, n_min, _LITERAL_N_MAX, 2.0)
    if n is not None:
        rt = rate(n)
        s, height = _block_geometry(k, n, Phi)
        if 3 * s + 2 <= point_cap:
            log.debug("witness block k=%d: pass 1 (2^4k rate) at n=%d, %d score reads",
                      k, n, reads)
            return WitnessBlock(k=k, n=n, m=n, s=s, r=s, height=height, rate=rt, literal=True)

    # Pass 2: smallest n still certifying a 2^k growth ratio within the budget.
    margin = 1.02

    def feasible(n: int):
        rt = rate(n)
        s, height = _block_geometry(k, n, Phi)
        if height <= 0:
            return None
        need = (required * nu.value(n) * margin / height) ** p / 2.0
        r_needed = int(math.ceil(need))
        if r_needed <= s and 3 * r_needed + 2 <= point_cap:
            return WitnessBlock(k=k, n=n, m=n, s=s, r=r_needed, height=height, rate=rt,
                                literal=False)
        return None

    lo, hit = _first_passing(feasible, n_min, _N_MAX, 1.5)
    blk = None if lo is None else feasible(lo) or hit
    if blk is None:
        log.debug("witness block k=%d: no pass placed it, %d score reads", k, reads)
    else:
        log.debug("witness block k=%d: pass 2 (2^k ratio) at n=%d, %d score reads",
                  k, blk.n, reads)
    return blk


def _tooth_lefts(blk: WitnessBlock, j):
    """(left edges 2^-k + 2j/n of teeth j, tooth width 1/n): the grid's one float expression."""
    w = 1.0 / blk.n
    return 2.0 ** (-blk.k) + 2.0 * w * j, w


def _tooth_window(blk: WitnessBlock, teeth: int | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(grid, values) of a block's window, or of its first ``teeth`` teeth (a
    prefix of it, bit for bit): a zero at 0, then (h, h, 0) per tooth.

    Tooth j jumps to h at its left edge u_j, holds h at u_j + w/2 and is
    back to 0 at u_j + w.
    """
    t = blk.r if teeth is None else teeth
    us, w = _tooth_lefts(blk, np.arange(t, dtype=np.float64))
    xs = np.zeros(3 * t + 1)
    xs[1::3] = us
    xs[2::3] = us + 0.5 * w
    xs[3::3] = us + w
    vs = np.zeros(3 * t + 1)
    vs[1::3] = vs[2::3] = blk.height
    return xs, vs


def _check_window(blk: WitnessBlock) -> None:
    """Validate a block's window as ``SampledFunction`` does (strictly
    increasing, finite; the same ``ValueError``) by one closed-form test:
    with w = 1/n, the last abscissa X = u_(r-1) + w and e = spacing(X), the
    grid passes when w > 4e.  Proof (round to nearest): 2^-k, 2w and w/2 are
    exact scalings, and every computed point lies in [0, X], so each
    rounding errs by at most e/2.  u_j = 2^-k + (2w) j is two roundings from
    exact and u_j + w/2, u_j + w one from u_j, so the gaps u_j -> u_j + w/2
    -> u_j + w -> u_(j+1) are at least w/2 - e/2, w/2 - e and w - 2.5e, all
    positive for w > 2e.  The leading zero sits below u_0 = 2^-k, a finite X
    bounds the grid, and a failed test (nan or inf X too) is the grid error.
    A searched block (n <= _N_MAX, r <= s) has w >= 2^-34 and X <= 1 up to
    rounding, so w / e >= 2^18.
    """
    w = 1.0 / blk.n
    last = _tooth_lefts(blk, blk.r - 1.0)[0] + w
    if not w > 4.0 * np.spacing(last):
        raise ValueError("grid must be strictly increasing")
    if not np.isfinite(blk.height):
        raise ValueError("grid and values must be finite")


def _closes_at_one(blocks) -> bool:
    """Whether the grid needs a closing (1, 0): the k = 1 block ends short of 1."""
    last = min(blocks, key=lambda b: b.k)
    u, w = _tooth_lefts(last, last.r - 1.0)
    return u + w < 1.0 - 1e-12


def _materialize(blocks) -> SampledFunction:
    """Step blocks on [0, 1]: their tooth windows in order of position."""
    xs_parts: list[np.ndarray] = []
    vs_parts: list[np.ndarray] = []
    for blk in sorted(blocks, key=lambda b: b.k, reverse=True):
        xs, vs = _tooth_window(blk)
        if xs_parts:
            prev = xs_parts[-1]
            if prev[-1] >= xs[1]:
                # A block may end exactly where the next one starts; grid positions
                # are free between neighbours, so slide the trailing zero left.
                prev[-1] = 0.5 * (prev[-2] + xs[1])
            # the previous block's trailing zero is this window's leading zero
            xs, vs = xs[1:], vs[1:]
        xs_parts.append(xs)
        vs_parts.append(vs)
    if _closes_at_one(blocks):
        xs_parts.append(np.array([1.0]))
        vs_parts.append(np.array([0.0]))
    return SampledFunction(np.concatenate(xs_parts), np.concatenate(vs_parts))


def _certificate_objective(blk: WitnessBlock, p: float) -> tuple[float, float]:
    """(objective, window value) of a block, both from one array of 2r floats.

    The objective is (sum |d|^p)^(1/p) over the certificate's 2r differences:
    |h - 0| up onto each tooth and |0 - h| down off it, each exactly h, so
    ``np.full(2r, h)`` is the window's difference array bit for bit.

    The window value is v_p(n) of the whole window, the DP's value, read
    without building the window.  The window (a leading zero, then (h, h, 0)
    per tooth) reduces to the 2r + 1 alternating points 0, h, 0, ..., h, 0,
    so every interval of it changes by exactly 0 or h and costs 0 or
    c = fl(h^p).  Let s_0 = 0 and s_j = fl(s_(j-1) + c), the in-order sums.
    Row k of the DP holds s_min(k, i) at point i: cell i takes the max of
    prev[j] plus the cost of (j, i) over j < i, and j = i - 1 gives
    fl(s_min(k-1, i-1) + c) = s_min(k, i), while every other j adds 0 or c
    to an s no larger, which IEEE addition, being monotone, keeps no larger.
    The caller refuses a count 2r over n, so row n ends in s_2r: ``np.cumsum``
    of the 2r powers, taken in place (at p = 1 the powers are the
    differences h themselves).  ``tests/oracles.py`` runs the DP on the
    built window and must give the same float.
    """
    d = np.full(2 * blk.r, blk.height)
    d **= p  # the floats of d ** p, without a second array
    objective = float(np.sum(d) ** (1.0 / p))
    return objective, float(np.cumsum(d, out=d)[-1] ** (1.0 / p))


def _prefix_dp_check(window: SampledFunction, blk: WitnessBlock, p: float) -> bool:
    """Whether the DP on ``window``, the block's first t = min(r, 40) teeth,
    finds the 2t swings of height h."""
    t = min(blk.r, _PREFIX_TEETH)
    val = float(pvariation_profile(window, p, 2 * t)[-1])
    expected = (2.0 * t) ** (1.0 / p) * blk.height
    return abs(val - expected) <= 1e-9 * (1.0 + expected)


def witness_generate(Phi: PhiSequence, nu: ModulusOfVariation, p: float, k_max: int,
                     report: CriterionReport | None = None):
    """Build a function in the Phi-variation ball violating the nu growth bound.

    Returns a :class:`Witness` or ``None`` when no certifiable block
    configuration fits the search budget (the module constants above).
    Requires the embedding criterion to Fail for (Phi, nu, p): ``report`` is
    that criterion's report, as the caller already has it, and must be for
    the same (Phi, nu, p); without one, ``embedding_criterion`` runs to
    horizon 100 000.  A failed block certificate, or a Phi-variation total
    over 2, is returned with ``certified=False``, its certificates recording
    which check failed.

    A block is certified without its whole tooth window: one closed-form
    test settles its grid, the objective and the window's DP value read the
    2r differences, each exactly h, and the prefix DP reads the first 40
    teeth.  The step function is built only when ``Witness.function`` is
    read.
    """
    if not (1 <= k_max <= 5):
        raise ValueError("k_max must lie in 1..5")
    _check_p(p)
    if report is None:
        report = embedding_criterion(Phi, nu, p, 100_000)
    if report.verdict != "Fails":
        raise ValueError(
            f"embedding criterion verdict is {report.verdict}; witnesses exist only for Fails"
        )
    blocks: list[WitnessBlock] = []
    points_left = _MAX_POINTS
    for k in range(1, k_max + 1):
        blk = _search_block(Phi, nu, p, k, points_left)
        if blk is None:
            return None
        points_left -= 3 * blk.r + 2
        blocks.append(blk)

    certs = []
    all_ok = True
    varphi_total = 0.0
    for blk in reversed(blocks):
        _check_window(blk)
        count = 2 * blk.r
        objective, window_val = _certificate_objective(blk, p)
        if count > blk.n:
            raise RuntimeError("certificate selection uses more intervals than allowed")
        ratio = objective / nu.value(blk.n)
        required = 2.0 ** blk.k
        term = float(Phi.partial(2 * blk.r, blk.height))
        cap = 2.0 * 2.0 ** (-blk.k)
        varphi_total += term
        prefix = SampledFunction(*_tooth_window(blk, min(blk.r, _PREFIX_TEETH)))
        prefix_ok = _prefix_dp_check(prefix, blk, p)
        ok = (ratio >= required and term <= cap * (1.0 + 1e-9) and prefix_ok
              and window_val >= objective * (1.0 - 1e-9))
        all_ok = all_ok and ok
        certs.append(BlockCertificate(
            k=blk.k, n=blk.n, intervals=count, objective=objective, ratio=float(ratio),
            required=required, varphi_term=term, varphi_cap=cap, prefix_dp_ok=prefix_ok,
            window_dp_ran=True, window_dp_value=window_val,
        ))
    certs.sort(key=lambda c: c.k)
    return Witness(
        blocks=tuple(blocks),
        certificates=tuple(certs),
        varphi_total=float(varphi_total),
        certified=all_ok and varphi_total <= 2.0 * (1.0 + 1e-9),
    )
