"""Loop oracles for the backtracking DP and ``extrema_reduce``.

They sit beside ``pvariation_bruteforce`` as references for the vectorized
library code.

``dp_parent_loops`` is the plain O(n m^2) triple loop.  Its strict-improvement
updates record, for each cell, the start of the interval ending there (-1 for
skip), so ties prefer skipping and then the smallest start.
``backtrack_take`` walks that record.  ``extrema_reduce_loop`` scans the
values once and keeps the endpoints and the point before each direction flip.
``fourier_coeffs_loop`` is the rectangle rule as an N x m trig matrix product,
and ``trig_sum_loop`` sums weighted harmonics one at a time at any points.
"""

from __future__ import annotations

import numpy as np

from pvarlab import SampledFunction


def dp_parent_loops(values, p, n):
    m = values.shape[0]
    prev = np.zeros(m)
    table = np.zeros((n + 1, m))
    take = np.full((n + 1, m), -1, dtype=np.int64)
    for k in range(1, n + 1):
        cur = np.zeros(m)
        for i in range(1, m):
            best = cur[i - 1]
            arg = -1
            for j in range(i):
                d = values[i] - values[j]
                if d < 0.0:
                    d = -d
                c = prev[j] + d ** p
                if c > best:
                    best = c
                    arg = j
            cur[i] = best
            take[k, i] = arg
        table[k] = cur
        prev = cur
    return table, take


def backtrack_take(take) -> list[tuple[int, int]]:
    pairs = []
    k, i = take.shape[0] - 1, take.shape[1] - 1
    while k > 0 and i > 0:
        j = take[k, i]
        if j < 0:
            i -= 1
        else:
            pairs.append((int(j), int(i)))
            i = int(j)
            k -= 1
    pairs.reverse()
    return pairs


def extrema_reduce_loop(f: SampledFunction) -> SampledFunction:
    v = f.values
    m = v.size
    if m <= 2:
        return f
    keep = [0]
    last = v[0]
    direction = 0
    for i in range(1, m):
        step = v[i] - last
        if step == 0.0:
            continue
        s = 1 if step > 0 else -1
        if direction != 0 and s != direction:
            keep.append(prev_idx)
        direction = s
        last = v[i]
        prev_idx = i
    if keep[-1] != m - 1:
        keep.append(m - 1)
    idx = np.asarray(keep, dtype=np.int64)
    return SampledFunction(f.grid[idx], f.values[idx], f.periodic, f.period)


def fourier_coeffs_loop(g, v, N):
    """(a_1..a_N, b_1..b_N) = (2/m) sum_j v_j (cos, sin)(n g_j) on one period."""
    m = g.size
    phase = np.outer(np.arange(1, N + 1), g)
    return (2.0 / m) * (np.cos(phase) @ v), (2.0 / m) * (np.sin(phase) @ v)


def trig_sum_loop(c, n, x, weights):
    """a0/2 + sum_{k<=n} weights[k-1] (a_k cos kx + b_k sin kx)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.full(x.shape, c.a0 / 2.0)
    for k in range(1, n + 1):
        out += weights[k - 1] * (c.a[k - 1] * np.cos(k * x) + c.b[k - 1] * np.sin(k * x))
    return out
