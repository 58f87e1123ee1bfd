"""Hot numeric kernels.

The profile kernels (``dp_profile_pow``, ``dp1_profile``) and ``shift_max``
exist twice: a loop version compiled with numba when available, and a
vectorized numpy fallback.  Set ``PVARLAB_NUMBA=0`` to force the numpy path
(used by the benchmark and by CI runs without a working numba).
``dp_with_parents`` has one vectorized numpy implementation, which shares its
row step with the numpy profile kernel.
"""

from __future__ import annotations

import os

import numpy as np

_flag = os.environ.get("PVARLAB_NUMBA", "1").strip().lower()
USE_NUMBA = _flag not in ("0", "false", "no", "off")

if USE_NUMBA:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover
        USE_NUMBA = False

if not USE_NUMBA:
    def njit(*args, **kwargs):
        def wrap(fn):
            return fn
        if len(args) == 1 and callable(args[0]) and not kwargs:
            return args[0]
        return wrap


def backend_name() -> str:
    return "numba" if USE_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# p-variation dynamic programs.
#
# State: best[k][i] = max over selections of at most k nonoverlapping index
# intervals inside points 0..i of  sum |v[end]-v[start]|^p.  Intervals may
# share endpoints.  Recurrence:
#   best[k][i] = max(best[k][i-1], max_{j<i} best[k-1][j] + |v[i]-v[j]|^p)
# ---------------------------------------------------------------------------

def _dp_profile_loops(values, p, nmax):
    m = values.shape[0]
    prev = np.zeros(m)
    out = np.zeros(nmax + 1)
    for k in range(1, nmax + 1):
        cur = np.zeros(m)
        for i in range(1, m):
            best = cur[i - 1]
            for j in range(i):
                d = values[i] - values[j]
                if d < 0.0:
                    d = -d
                c = prev[j] + d ** p
                if c > best:
                    best = c
            cur[i] = best
        out[k] = cur[m - 1]
        prev = cur
    return out


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


def _dp_profile_numpy(values, p, nmax):
    m = values.shape[0]
    diff = _pow_diff(values, p)
    buf = np.empty((m, m))
    prev, cur = np.zeros(m), np.empty(m)
    out = np.zeros(nmax + 1)
    for k in range(1, nmax + 1):
        _dp_row(prev, diff, buf, cur)
        out[k] = cur[m - 1]
        prev, cur = cur, prev
    return out


_dp_profile_jit = njit(cache=True)(_dp_profile_loops) if USE_NUMBA else None


def dp_profile_pow(values: np.ndarray, p: float, nmax: int) -> np.ndarray:
    """Profile of the DP objective (p-th powers) for interval budgets 0..nmax."""
    if USE_NUMBA:
        return _dp_profile_jit(values, float(p), int(nmax))
    return _dp_profile_numpy(values, float(p), int(nmax))


def dp_with_parents(values: np.ndarray, p: float, n: int):
    """Full DP value table and the pair costs it was built from, for backtracking.

    Returns ``(table, diff)`` with table[k][i] = best[k][i] for k = 0..n and
    diff[j, i] = |values[i] - values[j]|^p; every row is nondecreasing.  A
    backtrack that adds table[k-1, j] + diff[j, i] again gets the very floats
    the table was built from, so it can find a cell's maximizing start by
    exact equality.
    """
    m, n = values.shape[0], int(n)
    diff = _pow_diff(values, float(p))
    buf = np.empty((m, m))
    table = np.zeros((n + 1, m))
    for k in range(1, n + 1):
        _dp_row(table[k - 1], diff, buf, table[k])
    return table, diff


def _dp1_values_loops(values, nmax):
    # p = 1 specialisation: |v_i - v_j| = max(v_i - v_j, v_j - v_i) lets the
    # inner max be carried as two running maxima, O(m * nmax) total.
    m = values.shape[0]
    prev = np.zeros(m)
    out = np.zeros(nmax + 1)
    for k in range(1, nmax + 1):
        cur = np.zeros(m)
        a = prev[0] - values[0]  # max_j prev[j] - v_j
        b = prev[0] + values[0]  # max_j prev[j] + v_j
        for i in range(1, m):
            best = cur[i - 1]
            c1 = a + values[i]
            c2 = b - values[i]
            if c1 > best:
                best = c1
            if c2 > best:
                best = c2
            cur[i] = best
            if prev[i] - values[i] > a:
                a = prev[i] - values[i]
            if prev[i] + values[i] > b:
                b = prev[i] + values[i]
        out[k] = cur[m - 1]
        prev = cur
    return out


def _dp1_values_numpy(values, nmax):
    m = values.shape[0]
    prev = np.zeros(m)
    out = np.zeros(nmax + 1)
    for k in range(1, nmax + 1):
        a = np.maximum.accumulate(prev - values)
        b = np.maximum.accumulate(prev + values)
        cand = np.maximum(a[:-1] + values[1:], b[:-1] - values[1:])
        cur = np.empty(m)
        cur[0] = 0.0
        cur[1:] = np.maximum.accumulate(np.maximum(cand, 0.0))
        out[k] = cur[m - 1]
        prev = cur
    return out


_dp1_values_jit = njit(cache=True)(_dp1_values_loops) if USE_NUMBA else None


def dp1_profile(values: np.ndarray, nmax: int) -> np.ndarray:
    """First-variation DP profile (p = 1), O(m * nmax)."""
    if USE_NUMBA:
        return _dp1_values_jit(values, int(nmax))
    return _dp1_values_numpy(values, int(nmax))


# ---------------------------------------------------------------------------
# Windowed maximum of |f(x_j) - f(x_i)| over 0 <= x_j - x_i <= delta.
# ---------------------------------------------------------------------------

def _shift_max_loops(grid, values, delta, limit):
    best = 0.0
    m = grid.shape[0]
    for i in range(limit):
        j = i + 1
        while j < m and grid[j] - grid[i] <= delta * (1.0 + 1e-15) + 1e-15:
            d = values[j] - values[i]
            if d < 0.0:
                d = -d
            if d > best:
                best = d
            j += 1
    return best


def _shift_max_numpy(grid, values, delta, limit):
    best = 0.0
    m = grid.shape[0]
    hi = np.searchsorted(grid, grid[:limit] + delta * (1.0 + 1e-15) + 1e-15, side="right")
    for i in range(limit):
        j = hi[i]
        if j > i + 1:
            seg = values[i + 1:j]
            d = max(abs(seg.max() - values[i]), abs(seg.min() - values[i]))
            if d > best:
                best = d
    return best


_shift_max_jit = njit(cache=True)(_shift_max_loops) if USE_NUMBA else None


def shift_max(grid: np.ndarray, values: np.ndarray, delta: float, limit: int) -> float:
    """max |values[j] - values[i]| over pairs with 0 <= grid[j]-grid[i] <= delta, i < limit."""
    if USE_NUMBA:
        return _shift_max_jit(grid, values, float(delta), int(limit))
    return _shift_max_numpy(grid, values, float(delta), int(limit))
