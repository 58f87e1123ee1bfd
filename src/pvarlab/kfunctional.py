"""Two-sided bounds for the (L-infinity, BV_p) K-functional.

The upper bound is constructive: a free-knot piecewise-linear interpolant
whose knots are placed where |f - f(previous knot)| first reaches
v_p(M, f) / M^(1/p), with M = floor(1/t)^p.  With lower = t * v_p(M, f) the
certified sandwich is

    lower / 2  <=  K(f, t)  <=  upper  <=  5 * lower.

The 1/2 is sharp for the lower bound: |h(b) - h(a)| <= 2 sup|h| costs a
factor 2 in v_p(M, f - g) <= 2 M^(1/p) ||f - g||_inf, and random competitors
do reach cost/lower ratios below 1 (never below 1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sampled import SampledFunction
from .modulus import _check_p
from .variation import _profile

__all__ = [
    "PLFunction",
    "KSandwich",
    "select_knots",
    "pl_interpolate",
    "varp_pl",
    "kfunctional_bounds",
    "kfunctional_sweep",
    "bracket_count",
]

_CROSSING_TOL = 1e-9
# Each knot moves f by the threshold, so a walk places at most
# min(M - 1, TV(f) / threshold) knots; a bound over this cap is refused.  At
# the cap (p = 1, t = 2^-20) kfunc took 8.0 s / 130 MB on f(x) = x and
# 18.7 s / 137 MB on random:20000 (2 vCPU, CPython 3.11, numpy 2.4).
_MAX_KNOTS = 1 << 20


@dataclass(frozen=True, eq=False)
class PLFunction:
    """Piecewise-linear function on [0, 1] given by its knots."""

    knots: np.ndarray
    knot_values: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.knots, dtype=np.float64)
        v = np.asarray(self.knot_values, dtype=np.float64)
        object.__setattr__(self, "knots", k)
        object.__setattr__(self, "knot_values", v)
        if k.size != v.size or k.size < 2:
            raise ValueError("need matching knots/values with at least 2 knots")
        if not np.all(np.diff(k) > 0):
            raise ValueError("duplicate or decreasing knots")
        if abs(k[0]) > 1e-12 or abs(k[-1] - 1.0) > 1e-12:
            raise ValueError("knots must cover [0, 1]")

    def __call__(self, x):
        return np.interp(x, self.knots, self.knot_values)


@dataclass(frozen=True)
class KSandwich:
    t: float
    M: int
    lower: float
    upper: float
    ratio: float
    case: str


def bracket_count(t: float, p: float) -> int:
    """floor(1/t) raised to p, rounded down to an integer (at least 1).

    1/t gets 1e-12 plus 4 ulps of slack, so a decimal t gets its exact floor
    (1/1e-5 is 99999.99999999999).  A ValueError when the power is not finite.
    """
    if not (0.0 < t <= 1.0):
        raise ValueError(f"t must lie in (0, 1], got {t!r}")
    _check_p(p)
    try:
        power = math.floor(1.0 / t + (1e-12 + 4 * math.ulp(1.0 / t))) ** p
    except OverflowError:  # 1/t is inf, or the power overflows a float
        raise ValueError(f"floor(1/t)^p overflows a float at t={t!r}, p={p!r}") from None
    return max(1, int(math.floor(power + 1e-9)))


def _require_unit_domain(f: SampledFunction):
    if abs(f.grid[0]) > 1e-12 or abs(f.grid[-1] - 1.0) > 1e-12:
        raise ValueError("expected a function sampled on [0, 1]")


def _first_crossing(xl, vl, xr, vr, center, threshold, after):
    """Smallest x in (after, xr] where the segment value hits center +- threshold."""
    cands = []
    for level in (center + threshold, center - threshold):
        dl = vl - level
        dr = vr - level
        if dl == 0.0:
            cands.append(xl)
        elif (dl < 0.0) != (dr < 0.0) or dr == 0.0:  # signs, not a product that may overflow
            cands.append(xl + (dl / (dl - dr)) * (xr - xl))
    good = [x for x in cands if x > after]
    return min(good) if good else None


def select_knots(f: SampledFunction, M: int, p: float):
    """Free-knot selection: each new knot is the first point where the running
    difference reaches v_p(M, f)/M^(1/p).  Returns (knot abscissas, case tag),
    case ``II`` when fewer than M additional knots are produced.
    """
    _require_unit_domain(f)
    if M < 1:
        raise ValueError("M must be >= 1")
    return _knots(f, M, p, _profile(f, p, M)[-1])


def _knots(f: SampledFunction, M: int, p: float, ups: float):
    """``select_knots`` with ups = v_p(M, f) given; a walk that could place
    more than ``_MAX_KNOTS`` knots is a ValueError."""
    threshold = ups / M ** (1.0 / p)
    knots = [0.0]
    if threshold <= _CROSSING_TOL * f.sup_abs():  # relative: K(cf, t) = c K(f, t)
        knots.append(1.0)
        return np.asarray(knots), "II"
    walk = min(M - 1, float(np.sum(np.abs(np.diff(f.values)))) / threshold)
    if walk > _MAX_KNOTS:
        raise ValueError(f"the knot walk at M = {M} may place {walk:.3g} knots, "
                         f"over the cap of {_MAX_KNOTS}; use a larger t")

    grid, vals = f.grid, f.values
    cur_x = 0.0
    cur_val = float(vals[0])
    produced = 0
    while produced < M - 1:
        nxt = _next_hit(grid, vals, cur_x, cur_val, threshold)
        if nxt is None:
            break
        cur_x = nxt
        cur_val = float(np.interp(nxt, grid, vals))
        knots.append(cur_x)
        produced += 1
        if cur_x >= 1.0 - 1e-15:
            break
    if knots[-1] < 1.0 - 1e-15:
        knots.append(1.0)
    case = "I" if produced == M - 1 else "II"
    return np.asarray(knots), case


def _next_hit(grid, vals, cur_x, cur_val, threshold):
    """First x > cur_x where the sampled f reaches cur_val +- threshold, or None.

    The first segment, which may start at cur_x partway along, is tested by
    ``_first_crossing`` alone.  The later segments s are screened as arrays
    over galloping chunks (16, 32, ... segments) with ``_first_crossing``'s
    own predicate: for each level, dl = vals[s] - level and
    dr = vals[s+1] - level, flagged when dl == 0, (dl < 0) != (dr < 0) or
    dr == 0.  An unflagged segment has no candidate, and the flagged ones go
    to ``_first_crossing`` in order, with the arguments the segment walk
    gave it, so the knot is the same float.  Past the first segment
    grid[s] > cur_x, so every candidate the scalar test returns there
    (grid[s] itself, or grid[s] plus a nonnegative step) is > cur_x: the
    first flagged segment gives the hit unless its step overflows to nan.
    np.interp at a grid node returns vals[s], or a zero of the other sign,
    and neither changes the predicate.
    """
    n = grid.size - 1  # segments
    i0 = int(np.searchsorted(grid, cur_x, side="right")) - 1
    i0 = max(0, min(i0, n - 1))
    if grid[i0 + 1] > cur_x:
        xl_eff = max(grid[i0], cur_x)
        vl_eff = float(np.interp(xl_eff, grid, vals))
        hit = _first_crossing(xl_eff, vl_eff, grid[i0 + 1], float(vals[i0 + 1]),
                              cur_val, threshold, cur_x)
        if hit is not None:
            return float(min(hit, 1.0))
    levels = np.array([[cur_val + threshold], [cur_val - threshold]])
    a, width = i0 + 1, 16
    while a < n:
        b = min(a + width, n)
        d = vals[a:b + 1] - levels  # one row per level
        zero, neg = d == 0.0, d < 0.0
        flag = (zero[:, :-1] | (neg[:, :-1] != neg[:, 1:]) | zero[:, 1:]).any(axis=0)
        for s in a + np.flatnonzero(flag):
            hit = _first_crossing(grid[s], float(np.interp(grid[s], grid, vals)), grid[s + 1],
                                  float(vals[s + 1]), cur_val, threshold, cur_x)
            if hit is not None:
                return float(min(hit, 1.0))
        a, width = b, 2 * width
    return None


def pl_interpolate(f: SampledFunction, knots) -> PLFunction:
    """PL interpolant of f at the given knots (grid indices or abscissas)."""
    arr = np.asarray(knots)
    if arr.dtype.kind in "iu":
        xs = f.grid[arr]
    else:
        xs = arr.astype(np.float64)
    if np.unique(xs).size != xs.size:
        raise ValueError("duplicate knots")
    ys = np.interp(xs, f.grid, f.values)
    return PLFunction(xs, ys)


def varp_pl(g: PLFunction, p: float) -> float:
    """Exact p-variation of a PL function.

    This is the unconstrained-selection supremum over the knot values (for
    p > 1 it can exceed the l_p norm of the alternating swings, because a
    selection may step across a small counter-swing); the interval-budget DP
    stabilizes at the swing count and returns exactly that supremum.
    """
    sf = SampledFunction(g.knots, g.knot_values)
    return float(_profile(sf, p, max(1, g.knots.size - 1))[-1])


def _sup_diff(f: SampledFunction, g: PLFunction) -> float:
    pts = np.unique(np.concatenate([f.grid, g.knots]))
    mids = 0.5 * (pts[:-1] + pts[1:])
    xs = np.unique(np.concatenate([pts, mids]))
    return float(np.max(np.abs(np.interp(xs, f.grid, f.values) - g(xs))))


def kfunctional_bounds(f: SampledFunction, t: float, p: float) -> KSandwich:
    """Sandwich t*v_p(M, f) <= K(f, t) <= ||f - g_M||_inf + t*Var_p(g_M) <= 5 lower."""
    return kfunctional_sweep(f, [t], p)[0]


def _sandwich(f: SampledFunction, t: float, p: float, M: int, ups: float) -> KSandwich:
    """``kfunctional_bounds`` at t, with M = bracket_count(t, p) and ups = v_p(M, f)."""
    lower = t * ups

    knot_xs, case = _knots(f, M, p, ups)
    g = pl_interpolate(f, knot_xs)
    var_g = varp_pl(g, p)
    err = _sup_diff(f, g)
    upper = err + t * var_g

    tol = 1e-9 * ups  # relative, so the certificates keep their meaning at any scale
    if var_g > ups + tol:
        raise RuntimeError("approximant variation exceeds v_p(M, f)")
    if err > 2.0 * ups / M ** (1.0 / p) + tol:
        raise RuntimeError("uniform error exceeds 2 v_p(M, f) / M^(1/p)")
    if lower > 0 and not (0.5 * lower - tol <= upper <= 5.0 * lower + tol):
        raise RuntimeError("K-functional sandwich violated")
    ratio = upper / lower if lower > 0 else float("inf")
    return KSandwich(t=float(t), M=M, lower=lower, upper=upper, ratio=ratio, case=case)


def kfunctional_sweep(f: SampledFunction, t_grid, p: float) -> list[KSandwich]:
    """``kfunctional_bounds`` at each t, in input order, sharing one profile:
    the input is profiled once, to the DP's fixed point K at or before the
    largest M, and v_p(M, f) = prof[min(M, K) - 1].
    """
    _require_unit_domain(f)
    ts = [float(t) for t in t_grid]
    Ms = [bracket_count(t, p) for t in ts]
    if not ts:
        _check_p(p)
        return []
    prof = _profile(f, p, max(Ms))
    return [_sandwich(f, t, p, M, float(prof[min(M, prof.size) - 1])) for t, M in zip(ts, Ms)]


def lower_monotone_in_t(rows: list[KSandwich]) -> bool:
    """Diagnostic: is the lower bound nondecreasing as t grows?  Reported by
    the CLI at info level, never asserted (M jumps discretely with t)."""
    ordered = sorted(rows, key=lambda r: r.t)
    return all(a.lower <= b.lower + 1e-12 for a, b in zip(ordered, ordered[1:]))
