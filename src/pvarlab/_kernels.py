"""Hot numeric kernels, vectorized with numpy.

Two DP row steps: ``_pair_row`` at p > 1, over the candidate pairs (i, j)
of ``_pairs`` (the starts that can win at i; no m x m array), and the O(m)
p = 1 ``_dp1_row``.  ``row_step`` is the one place that picks the step for
a p.  ``_rows`` runs a step to the DP's fixed point, and the rows
(``dp_with_parents``) and the profiles read it.  ``shift_max`` is the
windowed maximum behind the modulus of continuity.  Their plain loop
versions, and the dense m x m row step the p > 1 rows must equal bit for
bit, are in ``tests/oracles.py``.
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

# Candidate pairs of the p > 1 step (see ``row_step``).  Up to
# _ALL_PAIRS_M points every pair j < i is a candidate, sliced from one table
# made at import: the i-major list of all pairs on m points is the first
# m (m - 1) / 2 pairs on more points.  The cut is verify's: 99.5 % of its
# p > 1 DPs have m <= 16 and they run 2.6 rows on average, too few for the
# reach pass to pay for itself (its DPs of three batches, replayed as build
# plus K rows: 317 ms with the reach pass at every m, 192 ms with all pairs
# up to 16 points).  Past 16 points the cut is a wash: replaying every p > 1
# DP of three pvar and three analysis batches (median K 4 to 11 at m <= 128,
# up to 71 rows at m <= 512) at cuts 16, 32, 64 and 128 took 31.8, 31.7,
# 31.6 and 31.4 ms for pvar and 31.3, 30.8, 31.5 and 31.7 ms for analysis,
# under 0.4 % of their batch times, and end-to-end runs at those four cuts
# did not tell them apart (2 vCPU, numpy 2.4).  The step holds 24 bytes a
# pair (start index, cost, row buffer) while the DP runs, and about 32 at
# the build's peak, so more than _MAX_PAIRS pairs are refused before any is
# allocated: a converging zigzag of 5 793 points has 2^24 - 688 pairs and
# peaked at 513 MB over the interpreter (2.5 s for 4 rows at p = 2), one
# more point is refused.
_ALL_PAIRS_M = 16
_MAX_PAIRS = 1 << 24
_ALL_ENDS, _ALL_STARTS = np.tril_indices(_ALL_PAIRS_M, -1)
_ALL_OFFSETS = _ALL_ENDS.searchsorted(np.arange(1, _ALL_PAIRS_M))


def _reach(values) -> np.ndarray:
    """last[j] for j < m - 1: the last end i at which start j is a strict
    suffix minimum or maximum of v[0..i-1].

    That is min(max(nse(j), nge(j)), m - 1), with nse(j) (nge(j)) the first
    k > j with v[k] <= v[j] (v[k] >= v[j]).  One of the two is j + 1, so a
    start waits only for the other: a rising start (v[j + 1] > v[j]) for a
    value <= v[j], a falling one for a value >= v[j].  Each waits on a stack,
    and a waiting start is below (above) every value after it, so each stack
    is monotone and one pass pops every start once.
    """
    v = values.tolist()
    m = len(v)
    last = [m - 1] * (m - 1)
    rising, falling = [], []
    for k in range(1, m):
        x = v[k]
        while rising and v[rising[-1]] >= x:
            last[rising.pop()] = k
        while falling and v[falling[-1]] <= x:
            last[falling.pop()] = k
        if x > v[k - 1]:
            rising.append(k - 1)
        elif x < v[k - 1]:
            falling.append(k - 1)
        else:
            last[k - 1] = k
    return np.array(last)


def _pairs(values):
    """(ends, starts, offsets): the candidate pairs (i, j) of the p > 1 step
    sorted by (i, j), and offsets[i - 1], where the run of end i begins."""
    m = values.shape[0]
    if m <= _ALL_PAIRS_M:
        size = m * (m - 1) // 2
        return _ALL_ENDS[:size], _ALL_STARTS[:size], _ALL_OFFSETS[:m - 1]
    first = np.arange(m - 1)
    count = _reach(values) - first
    size = int(count.sum())
    if size > _MAX_PAIRS:
        raise ValueError(f"the p > 1 DP on {m} points needs {size} candidate pairs, "
                         f"over the cap of {_MAX_PAIRS}; use fewer points")
    ends = np.repeat(first + 1 - (np.cumsum(count) - count), count)
    ends += np.arange(size)  # start-major: j's ends are j + 1 .. last[j]
    order = np.argsort(ends, kind="stable")
    starts = np.repeat(first, count)[order]
    ends = ends[order]
    return ends, starts, ends.searchsorted(first + 1)


def _pair_row(prev, starts, cost, offsets, buf, cur):
    """One p > 1 DP row into ``cur`` over the candidate pairs, using ``buf``.

    buf holds prev[j] + cost of every pair; each end's run of it reduces to
    ext[i] = max over its candidate starts.  Every start is in range, so the
    gather clips instead of checking, which spares it a buffered copy.
    """
    np.take(prev, starts, out=buf, mode="clip")
    buf += cost
    cur[0] = 0.0
    np.maximum.reduceat(buf, offsets, out=cur[1:])
    np.maximum(cur[1:], 0.0, out=cur[1:])
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
    at p = 1, else ``_pair_row`` over the candidate pairs of ``_pairs``.
    ``pair_sums(prev, i)`` gives the candidate of every start j < i in the
    step's own float expressions, and rounding is monotone, so their max is
    the float the step took: a backtrack finds a cell's maximizing start by
    exact equality, and the smallest such start wins.

    Why the candidates suffice at p > 1.  Rows are nondecreasing in i, so a
    later start j' > j has prev[j'] >= prev[j].  For an up-move ending at i
    (v[j] <= v[i]), a later start with v[j'] <= v[j] has |v[i] - v[j']| >=
    |v[i] - v[j]|, so it does at least as well; a down-move works the same
    way with v[j'] >= v[j].  The only starts that can win at i are therefore
    the strict suffix minima and strict suffix maxima of v[0..i-1].  Start j
    is one of them exactly while no k in (j, i) has v[k] <= v[j] (or
    v[k] >= v[j]), that is for every i in [j + 1, nse(j)] or [j + 1, nge(j)]
    (``_reach``, clipped to m - 1).  The pairs are fixed per input and do not
    depend on the row: about 2 m ln m on noise (a suffix-extremum count is
    a harmonic number), m (m - 1) / 2 on a converging zigzag, where every
    start can win at every later end; ``_MAX_PAIRS`` caps them.

    The dominance holds in floats too.  IEEE subtraction and addition round
    monotonically, so fl(v[i] - v[j']) >= fl(v[i] - v[j]) and prev[j'] + c'
    >= prev[j] + c whenever both terms are >=; numpy's ``abs`` is exact, and
    its float64 ``**`` is nondecreasing in the base (``x * x`` at p = 2; no
    adjacent-float pair inverted among 8e7 tried per p in 1.25, 1.5, 2, 3).
    Every cost is the same float as ``abs(v[j] - v[i]) ** p`` of a dense
    pair-cost matrix (elementwise, whatever the array shape), and max is
    exact, so any superset of the winners gives the dense row bit for bit.
    Up to ``_ALL_PAIRS_M`` points the candidates are all pairs j < i, which
    costs less to set up than the reach pass.
    """
    if p == 1.0:
        return (lambda prev, cur: _dp1_row(prev, values, cur),
                lambda prev, i: np.maximum((prev[:i] - values[:i]) + values[i],
                                           (prev[:i] + values[:i]) - values[i]))
    p = float(p)
    ends, starts, offsets = _pairs(values)
    cost = np.abs(values[starts] - values[ends]) ** p
    buf = np.empty(cost.shape)
    return (lambda prev, cur: _pair_row(prev, starts, cost, offsets, buf, cur),
            lambda prev, i: prev[:i] + np.abs(values[:i] - values[i]) ** p)


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
