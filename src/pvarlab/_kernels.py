"""Hot numeric kernels, vectorized with numpy.

Two DP row steps, the dense ``_dp_row`` and the O(m) p = 1 ``_dp1_row``;
``row_step`` is the one place that picks the step for a p.  ``_rows`` runs a
step to the DP's fixed point, and the rows (``dp_with_parents``) and the
profiles read it.  ``shift_max`` is the windowed maximum behind the modulus
of continuity.  Their plain loop versions are in ``tests/oracles.py``.
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
# each DP stops there and makes none of them.
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


def row_step(values: np.ndarray, p: float):
    """``(step, pair_sums)`` of the DP at p: the one place a row step is picked.

    ``step(prev, cur)`` writes row k into ``cur`` from row k - 1: ``_dp1_row``
    at p = 1, else ``_dp_row`` over the m x m pair costs.  ``pair_sums(prev,
    i)`` gives the candidate of every start j < i in the step's own float
    expressions, and rounding is monotone, so their max is the float the step
    took: a backtrack finds a cell's maximizing start by exact equality.
    """
    if p == 1.0:
        return (lambda prev, cur: _dp1_row(prev, values, cur),
                lambda prev, i: np.maximum((prev[:i] - values[:i]) + values[i],
                                           (prev[:i] + values[:i]) - values[i]))
    diff = _pow_diff(values, float(p))
    buf = np.empty(diff.shape)
    return (lambda prev, cur: _dp_row(prev, diff, buf, cur),
            lambda prev, i: prev[:i] + diff[:i, i])


def _rows(step, m, n):
    """Rows 1..K of the DP run by ``step``, each a new array: K is n, or the
    first k whose row equals row k - 1, so row k of the DP is row min(k, K)."""
    prev = np.zeros(m)
    for _ in range(n):
        cur = np.empty(m)
        step(prev, cur)
        yield cur
        if np.array_equal(cur, prev):
            return
        prev = cur


def dp_profile_pow(values: np.ndarray, p: float, nmax: int) -> np.ndarray:
    """Last entries of DP rows 0..K (p-th powers), K <= nmax as in ``_rows``."""
    step, _ = row_step(values, p)
    return np.array([0.0, *(row[-1] for row in _rows(step, values.shape[0], int(nmax)))])


def dp1_profile(values: np.ndarray, nmax: int) -> np.ndarray:
    """``dp_profile_pow`` at p = 1: O(m) per row, no m x m array."""
    return dp_profile_pow(values, 1.0, nmax)


def dp_with_parents(values: np.ndarray, p: float, n: int):
    """``(rows, pair_sums)`` for backtracking: rows 0..K as in ``_rows``, each
    nondecreasing, with best[k] = rows[min(k, K)] for every k <= n."""
    step, pair_sums = row_step(values, p)
    return [np.zeros(values.shape[0]), *_rows(step, values.shape[0], int(n))], pair_sums


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
