"""Loop oracle for the backtracking DP, beside ``pvariation_bruteforce``.

``dp_parent_loops`` is the plain O(n m^2) triple loop.  Its strict-improvement
updates record, for each cell, the start of the interval ending there (-1 for
skip), so ties prefer skipping and then the smallest start.
``backtrack_take`` walks that record.
"""

from __future__ import annotations

import numpy as np


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
