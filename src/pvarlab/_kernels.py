"""Hot numeric kernels, vectorized with numpy.

Two DP row steps, the dense ``_dp_row`` and the O(m) p = 1 ``_dp1_row``,
serve the table (``dp_with_parents``) and the profiles; only this module
picks the step for a p.  ``shift_max`` is the windowed maximum behind the
modulus of continuity.  Their plain loop versions are in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np


def backend_name() -> str:
    # numpy is the only backend; perfbench/worker.py records this name per run.
    return "numpy"


# ---------------------------------------------------------------------------
# p-variation dynamic programs.
#
# State: best[k][i] = max over selections of at most k nonoverlapping index
# intervals inside points 0..i of  sum |v[end]-v[start]|^p.  Intervals may
# share endpoints.  Recurrence:
#   best[k][i] = max(best[k][i-1], max_{j<i} best[k-1][j] + |v[i]-v[j]|^p)
# Row k + 1 depends only on row k and the fixed pair costs, so once a row
# equals its predecessor bit for bit every later row holds the same floats:
# each DP stops there and fills the rest.
# ---------------------------------------------------------------------------

def _pow_diff(values, p):
    return np.abs(values[:, None] - values[None, :]) ** p  # diff[j, i]


def _dp_row(prev, diff, buf, cur):
    """One DP row into ``cur``, using the m x m scratch ``buf``.

    buf[j, i] = prev[j] + diff[j, i], accumulated down the columns, so its
    superdiagonal holds ext[i-1] = max_{j <= i-1} prev[j] + diff[j, i].
    """
    np.add(prev[:, None], diff, out=buf)
    np.maximum.accumulate(buf, axis=0, out=buf)
    cur[0] = 0.0
    np.maximum(np.diagonal(buf, offset=1), 0.0, out=cur[1:])
    np.maximum.accumulate(cur[1:], out=cur[1:])


def _dp1_row(prev, values, cur):
    """One p = 1 DP row into ``cur`` in O(m).

    |v_i - v_j| = max(v_i - v_j, v_j - v_i) lets the inner max be carried as
    two running maxima, max_j prev[j] - v_j and max_j prev[j] + v_j.
    """
    a = np.maximum.accumulate(prev - values)
    b = np.maximum.accumulate(prev + values)
    cur[0] = 0.0
    np.maximum(a[:-1] + values[1:], b[:-1] - values[1:], out=cur[1:])
    np.maximum(cur[1:], 0.0, out=cur[1:])
    np.maximum.accumulate(cur[1:], out=cur[1:])


def _profile(step, m, nmax):
    """Last entries of rows 0..nmax of the DP whose row step is ``step(prev, cur)``."""
    prev, cur = np.zeros(m), np.empty(m)
    out = np.zeros(nmax + 1)
    for k in range(1, nmax + 1):
        step(prev, cur)
        out[k] = cur[m - 1]
        if np.array_equal(cur, prev):
            out[k:] = out[k]
            break
        prev, cur = cur, prev
    return out


def dp_profile_pow(values: np.ndarray, p: float, nmax: int) -> np.ndarray:
    """Profile of the DP objective (p-th powers) for interval budgets 0..nmax."""
    diff = _pow_diff(values, float(p))
    buf = np.empty(diff.shape)
    return _profile(lambda prev, cur: _dp_row(prev, diff, buf, cur), values.shape[0], int(nmax))


def dp1_profile(values: np.ndarray, nmax: int) -> np.ndarray:
    """First-variation DP profile (p = 1), O(m * nmax), from ``_dp1_row``."""
    return _profile(lambda prev, cur: _dp1_row(prev, values, cur), values.shape[0], int(nmax))


def dp_profile(values: np.ndarray, p: float, nmax: int) -> np.ndarray:
    """``dp1_profile`` at p = 1, else ``dp_profile_pow``."""
    return dp1_profile(values, nmax) if p == 1.0 else dp_profile_pow(values, p, nmax)


def dp_with_parents(values: np.ndarray, p: float, n: int):
    """Full DP value table and its pair sums, for backtracking.

    Returns ``(table, pair_sums)`` with table[k][i] = best[k][i] for k = 0..n;
    every row is nondecreasing.  ``pair_sums(prev, i)`` gives the candidate of
    every start j < i in the row step's own float expressions, and rounding is
    monotone, so their max is the float the step took: a backtrack finds a
    cell's maximizing start by exact equality.  At p = 1 the table is built by
    ``_dp1_row`` and no m x m array exists.
    """
    m, n = values.shape[0], int(n)
    if p == 1.0:
        step, pair_sums = (lambda prev, cur: _dp1_row(prev, values, cur),
                           lambda prev, i: np.maximum((prev[:i] - values[:i]) + values[i],
                                                      (prev[:i] + values[:i]) - values[i]))
    else:
        diff, buf = _pow_diff(values, float(p)), np.empty((m, m))
        step, pair_sums = (lambda prev, cur: _dp_row(prev, diff, buf, cur),
                           lambda prev, i: prev[:i] + diff[:i, i])
    table = np.zeros((n + 1, m))
    for k in range(1, n + 1):
        step(table[k - 1], table[k])
        if np.array_equal(table[k], table[k - 1]):
            table[k:] = table[k]
            break
    return table, pair_sums


# ---------------------------------------------------------------------------
# Windowed maximum of |f(x_j) - f(x_i)| over 0 <= x_j - x_i <= delta.
# ---------------------------------------------------------------------------

def shift_max(grid: np.ndarray, values: np.ndarray, delta: float, limit: int) -> float:
    """max |values[j] - values[i]| over pairs with 0 <= grid[j]-grid[i] <= delta, i < limit.

    Row i's window is values[i+1 : hi[i]], hi from one ``searchsorted``; rows
    with an empty window drop out, and 0.0 is returned when none is left.
    Sparse tables of running max and min (level k holds the extrema of
    2^k consecutive values) cover each window with two overlapping
    power-of-two blocks, k = floor(log2 width).  max and min are exact, and
    fl(v_j - v_i) is monotone in v_j, so the window's largest |v_j - v_i| is
    max(|segmax - v_i|, |segmin - v_i|): the float a loop over the pairs
    finds.  Levels stop at floor(log2 widest window) = L <= log2 m, and each
    is answered when it is built, so the tables hold only the current level:
    four arrays of at most m floats at any time, never the 2 (L + 1) of a
    stored table.
    """
    delta, limit = float(delta), int(limit)
    hi = np.searchsorted(grid, grid[:limit] + delta * (1.0 + 1e-15) + 1e-15, side="right")
    rows = np.flatnonzero(hi > np.arange(1, limit + 1))
    if rows.size == 0:
        return 0.0
    lo, hi, v = rows + 1, hi[rows], values[rows]
    level = np.frexp((hi - lo).astype(np.float64))[1] - 1  # floor(log2 width), exact
    tmax = tmin = values
    best = 0.0
    for k in range(int(level.max()) + 1):
        if k:
            h = 1 << (k - 1)
            tmax = np.maximum(tmax[:-h], tmax[h:])
            tmin = np.minimum(tmin[:-h], tmin[h:])
        at = np.flatnonzero(level == k)
        if at.size:
            left, right, vi = lo[at], hi[at] - (1 << k), v[at]
            segmax = np.maximum(tmax[left], tmax[right])
            segmin = np.minimum(tmin[left], tmin[right])
            best = max(best, float(np.maximum(np.abs(segmax - vi), np.abs(segmin - vi)).max()))
    return best
