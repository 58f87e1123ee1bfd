"""Two-sided bounds for the (L-infinity, BV_p) K-functional.

The upper bound is constructive: a free-knot piecewise-linear interpolant
g whose knots are placed where |f - f(previous knot)| first reaches
v_p(M, f) / M^(1/p), with M = floor(1/t)^p.  g is a ``SampledFunction`` on
its knots, so Var_p(g) is the same DP as v_p(M, f).  With
lower = t * v_p(M, f) the certified sandwich is

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
# the cap (p = 1, t = 2^-20) kfunc took 2.5-2.7 s / 126 MB on f(x) = x and
# 8.7-9.5 s / 133 MB on random:20000 (2 vCPU, CPython 3.11, numpy 2.4).
_MAX_KNOTS = 1 << 20


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
    if abs(f.grid[0]) > 1e-12 or abs(f.grid[-1] - 1.0) > 1e-12 or f.grid[-2] > 1.0:
        raise ValueError("expected a function sampled on [0, 1], at most its last node past 1")


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
    knots, _, case = _knots(f, M, p, _profile(f, p, M)[-1])
    return knots, case


def _knots(f: SampledFunction, M: int, p: float, ups: float, nodes=None):
    """``select_knots`` with ups = v_p(M, f) given, returning (knots, knot
    values, case); a walk that could place more than ``_MAX_KNOTS`` knots is
    a ValueError.  ``nodes`` is ``(f.grid.tolist(), f.values.tolist())``,
    passed in by a caller that walks f more than once.

    One left-to-right walk over floats, carrying the segment s of the
    current knot x: the last segment start with grid[s] <= x, which is
    ``searchsorted(grid, x, "right") - 1`` clamped to [0, n - 1], stepped to
    from the segment the hit lay on.  Each hop tests the segment holding x,
    from x on, with ``_first_crossing``.  The later segments of the first
    16-segment chunk are tested inline with its own predicate: for each
    level, dl = vals[j] - level and dr = vals[j + 1] - level, flagged when
    dl == 0, (dl < 0) != (dr < 0) or dr == 0.  Longer hops screen the rest
    as arrays over galloping chunks (32, 64, ... segments) with the same
    predicate.  An unflagged segment has no candidate, and the flagged ones
    go to ``_first_crossing`` in order, with the arguments a
    segment-by-segment walk gives it, so the knot is the same float.  Past
    the first segment grid[j] > x, so every candidate the scalar test
    returns there (grid[j] itself, or grid[j] plus a nonnegative step) is
    > x: the first flagged segment gives the hit unless its step overflows
    to nan.

    The knot values are ``np.interp(knots, grid, vals)`` bit for bit.  For a
    scalar x, np.interp returns vals[0] left of the grid, vals[n] at or right
    of grid[n], vals[j] at a node grid[j], and otherwise
    ``slope * (x - grid[j]) + vals[j]`` with grid[j] < x < grid[j + 1] and
    ``slope = (vals[j + 1] - vals[j]) / (grid[j + 1] - grid[j])``; its nan
    retry cannot fire on finite samples, where x - grid[j] > 0.
    ``_place`` evaluates the same expression on floats.  A segment walk
    that calls np.interp afresh starts each hop's first segment at
    max(grid[s], x) = x with np.interp at x as its left value: the same call
    that gave the knot its value, which is also the hop's center, so the
    walk reuses that value.  At the first knot, 0.0, a grid may start at
    5e-13, and np.interp at 0.0 and at grid[0] both give vals[0].  A later
    segment's left value is vals[j], np.interp at the node grid[j].
    """
    threshold = float(ups / M ** (1.0 / p))
    if threshold <= _CROSSING_TOL * f.sup_abs():  # relative: K(cf, t) = c K(f, t)
        ends = np.array([0.0, 1.0])
        return ends, np.interp(ends, f.grid, f.values), "II"
    walk = min(M - 1, float(np.sum(np.abs(np.diff(f.values)))) / threshold)
    if walk > _MAX_KNOTS:
        raise ValueError(f"the knot walk at M = {M} may place {walk:.3g} knots, "
                         f"over the cap of {_MAX_KNOTS}; use a larger t")

    grid, vals = f.grid, f.values
    xs, vs = nodes if nodes is not None else (grid.tolist(), vals.tolist())
    n = len(xs) - 1  # segments
    s, vl = _place(xs, vs, 0, 0.0)
    xl = max(xs[s], 0.0)  # a grid may start at 5e-13, where np.interp(0.0) is vals[0]
    knots, values = [0.0], [vl]
    cur_x, center = 0.0, vs[0]
    produced = 0
    while produced < M - 1:
        hit, j = None, s
        if xs[s + 1] > cur_x:
            hit = _first_crossing(xl, vl, xs[s + 1], vs[s + 1], center, threshold, cur_x)
        hi, lo, b = center + threshold, center - threshold, min(s + 17, n)
        while hit is None and j + 1 < b:
            j += 1
            v0, v1 = vs[j], vs[j + 1]
            for level in (hi, lo):
                dl, dr = v0 - level, v1 - level
                if dl == 0.0 or (dl < 0.0) != (dr < 0.0) or dr == 0.0:
                    hit = _first_crossing(xs[j], v0, xs[j + 1], v1, center, threshold, cur_x)
                    break
        if hit is None and b < n:
            hit, j = _screen(xs, vs, vals, b, center, threshold, cur_x)
        if hit is None:
            break
        cur_x = min(hit, 1.0)
        s, vl = _place(xs, vs, j, cur_x)  # the hit lies on segment j
        xl, center = cur_x, vl
        knots.append(cur_x)
        values.append(vl)
        produced += 1
        if cur_x >= 1.0 - 1e-15:
            break
    if knots[-1] < 1.0 - 1e-15:
        knots.append(1.0)
        values.append(_place(xs, vs, s, 1.0)[1])
    case = "I" if produced == M - 1 else "II"
    return np.asarray(knots), np.asarray(values), case


def _place(xs, vs, s, x):
    """(s', np.interp(x, xs, vs)), s' the last segment start with xs[s'] <= x
    (0 if none), stepped to from segment s."""
    n = len(xs) - 1
    while s > 0 and xs[s] > x:  # a hit past 1.0, clamped back to it
        s -= 1
    while s + 1 < n and xs[s + 1] <= x:
        s += 1
    if x >= xs[n]:
        return s, vs[n]
    if x <= xs[s]:  # a node, or left of the grid
        return s, vs[s]
    return s, (vs[s + 1] - vs[s]) / (xs[s + 1] - xs[s]) * (x - xs[s]) + vs[s]


def _screen(xs, vs, vals, a, center, threshold, after):
    """(first hit, its segment) on segments a, a + 1, ... by
    ``_first_crossing``, screened as arrays over galloping chunks of 32, 64,
    ... segments, or (None, None)."""
    n = len(xs) - 1
    levels = np.array([[center + threshold], [center - threshold]])
    width = 32
    while a < n:
        b = min(a + width, n)
        d = vals[a:b + 1] - levels  # one row per level
        zero, neg = d == 0.0, d < 0.0
        flag = (zero[:, :-1] | (neg[:, :-1] != neg[:, 1:]) | zero[:, 1:]).any(axis=0)
        for j in (a + np.flatnonzero(flag)).tolist():
            hit = _first_crossing(xs[j], vs[j], xs[j + 1], vs[j + 1], center, threshold, after)
            if hit is not None:
                return hit, j
        a, width = b, 2 * width
    return None, None


def pl_interpolate(f: SampledFunction, knots) -> SampledFunction:
    """PL interpolant of f at the given knots (grid indices or abscissas),
    which must cover [0, 1]: f sampled on the knots."""
    arr = np.asarray(knots)
    xs = f.grid[arr] if arr.dtype.kind in "iu" else arr.astype(np.float64)
    if np.unique(xs).size != xs.size:
        raise ValueError("duplicate knots")
    g = SampledFunction(xs, np.interp(xs, f.grid, f.values))
    if abs(xs[0]) > 1e-12 or abs(xs[-1] - 1.0) > 1e-12:
        raise ValueError("knots must cover [0, 1]")
    return g


def varp_pl(g: SampledFunction, p: float) -> float:
    """Exact p-variation of the PL function g.

    This is the unconstrained-selection supremum over the knot values (for
    p > 1 it can exceed the l_p norm of the alternating swings, because a
    selection may step across a small counter-swing); the interval-budget DP
    stabilizes at the swing count and returns exactly that supremum.
    """
    return float(_profile(g, p, max(1, len(g) - 1))[-1])


def _sup_diff(f: SampledFunction, g: SampledFunction) -> float:
    """max |f - g| over grid and knots and the midpoints between them.  The
    midpoints are interleaved, not sorted in: a midpoint of two adjacent
    floats may equal one of them, and a repeated point leaves the max as it is."""
    pts = np.unique(np.concatenate([f.grid, g.grid]))
    xs = np.empty(2 * pts.size - 1)
    xs[0::2] = pts
    xs[1::2] = 0.5 * (pts[:-1] + pts[1:])
    return float(np.max(np.abs(np.interp(xs, f.grid, f.values) - g(xs))))


def kfunctional_bounds(f: SampledFunction, t: float, p: float) -> KSandwich:
    """Sandwich t*v_p(M, f) <= K(f, t) <= ||f - g_M||_inf + t*Var_p(g_M) <= 5 lower."""
    return kfunctional_sweep(f, [t], p)[0]


def _sandwich(f: SampledFunction, t: float, p: float, M: int, ups: float, nodes) -> KSandwich:
    """``kfunctional_bounds`` at t, with M = bracket_count(t, p), ups = v_p(M, f)
    and nodes = (f.grid.tolist(), f.values.tolist())."""
    lower = t * ups

    knots, values, case = _knots(f, M, p, ups, nodes)
    g = SampledFunction(knots, values)
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
    nodes = (f.grid.tolist(), f.values.tolist())
    return [_sandwich(f, t, p, M, float(prof[min(M, prof.size) - 1]), nodes)
            for t, M in zip(ts, Ms)]


def lower_monotone_in_t(rows: list[KSandwich]) -> bool:
    """Diagnostic: is the lower bound nondecreasing as t grows?  Reported by
    the CLI at info level, never asserted (M jumps discretely with t)."""
    ordered = sorted(rows, key=lambda r: r.t)
    return all(a.lower <= b.lower + 1e-12 for a, b in zip(ordered, ordered[1:]))
