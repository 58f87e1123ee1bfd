"""Exact p-variation of sampled functions: brute force oracle and DP."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .modulus import ModulusOfVariation, _check_magnitude, _check_p
from .sampled import SampledFunction, _extrema_indices

__all__ = [
    "IntervalSelection",
    "pvariation_bruteforce",
    "pvariation_dp",
    "pvariation_profile",
    "vpnu_norm",
]

_BRUTE_MAX_POINTS = 15
_BRUTE_MAX_N = 6


@dataclass(frozen=True, eq=False)
class IntervalSelection:
    """Nonoverlapping grid intervals (i, j) with their difference values."""

    intervals: tuple[tuple[int, int], ...]
    differences: np.ndarray
    objective: float
    p: float

    def __post_init__(self):
        diffs = np.asarray(self.differences, dtype=np.float64)
        object.__setattr__(self, "differences", diffs)
        prev_end = -1
        for i, j in self.intervals:
            if not (0 <= i < j):
                raise ValueError("intervals need start < end")
            if i < prev_end:
                raise ValueError("intervals overlap")
            prev_end = j
        recomputed = float(np.sum(diffs ** self.p) ** (1.0 / self.p)) if diffs.size else 0.0
        if abs(recomputed - self.objective) > 1e-12 * (1.0 + abs(self.objective)):
            raise ValueError("objective inconsistent with differences")


def _selection_from_indices(f: SampledFunction, pairs, p: float) -> IntervalSelection:
    diffs = np.array([abs(f.values[j] - f.values[i]) for i, j in pairs])
    obj = float(np.sum(diffs ** p) ** (1.0 / p)) if diffs.size else 0.0
    return IntervalSelection(tuple(pairs), diffs, obj, float(p))


def pvariation_bruteforce(f: SampledFunction, p: float, n: int):
    """Exhaustive maximum over all selections of at most n nonoverlapping intervals.

    Deliberately naive; serves as the oracle for the DP.  Enforced budget:
    at most 15 grid points and n <= 6.
    """
    m = len(f)
    if m > _BRUTE_MAX_POINTS or n > _BRUTE_MAX_N:
        raise ValueError("brute-force budget exceeded (<= 15 points, n <= 6)")
    if n < 1:
        raise ValueError("n must be >= 1")
    v = f.values
    best_pow = 0.0
    best_sel: list[tuple[int, int]] = []

    def recurse(start: int, left: int, acc: float, chosen: list[tuple[int, int]]):
        nonlocal best_pow, best_sel
        if acc > best_pow:
            best_pow = acc
            best_sel = list(chosen)
        if left == 0:
            return
        for i in range(start, m - 1):
            for j in range(i + 1, m):
                chosen.append((i, j))
                recurse(j, left - 1, acc + abs(v[j] - v[i]) ** p, chosen)
                chosen.pop()

    recurse(0, n, 0.0, [])
    value = best_pow ** (1.0 / p)
    return value, _selection_from_indices(f, best_sel, p)


def _reduced(f: SampledFunction, p: float, n: int, name: str = "n"):
    """The checks both DPs start from, then (kept indices, their values,
    effective budget) of the extrema reduction of f.

    The effective budget is min(n, len(kept) - 1): consecutive kept points
    differ and turn at every step, so len(kept) - 1 is the swing count, past
    which v_p(n, f) stays constant.  A constant f reduces to its two equal
    ends, where the one-row DP gives 0.

    A selection of at most min(n, m - 1) intervals (no more fit on m points)
    sums at most that many (max - min)^p, the bound ``_check_magnitude`` holds
    to the float range.  It runs before the reduction, whose differences of
    values could overflow on a refused input.
    """
    if n < 1:
        raise ValueError(f"{name} must be >= 1")
    _check_p(p)
    v = f.values
    _check_magnitude(float(v.max()) - float(v.min()), p, min(n, v.size - 1), "max - min")
    idx = _extrema_indices(v)
    return idx, v[idx], min(n, idx.size - 1)


def _backtrack(rows, pair_sums, n: int) -> list[tuple[int, int]]:
    """One optimal selection (start, end) of at most n intervals from the rows
    0..K of ``_kernels.dp_with_parents``; row k of the DP is rows[min(k, K)].

    At (k, i) the walk first moves i left to the first index of row k holding
    the same value (skipping wins ties), then takes the smallest start j whose
    pair sum ``pair_sums(row k - 1, i)[j]``, the row step's own float,
    reproduces the cell exactly (the smallest start wins).
    """
    pairs = []
    top = len(rows) - 1
    k, i = n, rows[0].size - 1
    while k > 0 and i > 0:
        row = rows[min(k, top)]
        i = int(row.searchsorted(row[i]))
        if i == 0:
            break
        j = int((pair_sums(rows[min(k - 1, top)], i) == row[i]).argmax())
        pairs.append((j, i))
        k, i = k - 1, j
    pairs.reverse()
    return pairs


def _pvariation_solve(f: SampledFunction, p: float, n: int):
    """(v_p(n, f), optimal selection, ``_profile``) from one DP's rows."""
    kept, values, n_eff = _reduced(f, p, n)
    rows, pair_sums = _kernels.dp_with_parents(values, p, n_eff)
    pairs = [(int(kept[j]), int(kept[i])) for j, i in _backtrack(rows, pair_sums, n_eff)]
    prof = np.array([row[-1] for row in rows[1:]]) ** (1.0 / p)
    # the profile's array root, so the value and the profile agree bit for bit
    return float(prof[-1]), _selection_from_indices(f, pairs, p), prof


def pvariation_dp(f: SampledFunction, p: float, n: int):
    """Exact grid-restricted maximum of (sum |f(I_j)|^p)^(1/p) over <= n intervals.

    Runs on the extrema-reduced grid (value-preserving) and backtracks one
    optimal selection, mapped to original grid indices.  Ties prefer skipping
    a point, then the smallest interval start, making the selection
    deterministic.
    """
    value, sel, _ = _pvariation_solve(f, p, n)
    return value, sel


def _profile(f: SampledFunction, p: float, n: int, name: str = "n") -> np.ndarray:
    """v_p(1..K, f): the DP stops at its fixed point K <= n, at or before the
    swing count, and v_p(k, f) = prof[min(k, K) - 1] for every k <= n."""
    _, values, n_eff = _reduced(f, p, n, name)
    return _kernels.dp_profile_pow(values, p, n_eff)[1:] ** (1.0 / p)


def pvariation_profile(f: SampledFunction, p: float, n_max: int) -> np.ndarray:
    """(v_p(1, f), ..., v_p(n_max, f)) in one DP sweep; nondecreasing.

    The profile stabilizes once the budget reaches the number of monotone
    swings, so the DP only runs up to that point and the tail repeats it.
    """
    prof = _profile(f, p, n_max, "n_max")
    return prof[np.minimum(np.arange(n_max), prof.size - 1)]


def vpnu_norm(f: SampledFunction, nu: ModulusOfVariation, p: float):
    """(sup_n v_p(n, f)/nu(n), sup |f|); their sum is the V_p[nu] norm of f.

    Exact: v_p(n, f) = v_p(K, f) for n >= K, the DP's fixed point, and nu is
    nondecreasing, so the sup is the max over n <= K.  A table nu shorter
    than K is refused, and a longer one is read to its end, since tables may
    dip by 1e-12.  At p > 1 that is K rows of the candidate-pair DP.  At
    p = 2 on Gaussian walks (numpy seed 1): 0.027 s for K = 123 on 2 000
    steps; 2.3 to 3.6 s and 69 MB peak process RSS for K = 838 on 20 000
    steps (2 vCPU, numpy 2.4).
    """
    prof = _profile(f, p, len(f) - 1)
    n = prof.size if nu.kind != "table" else max(prof.size, int(nu.max_index))
    ratios = prof[np.minimum(np.arange(n), prof.size - 1)] / nu.table(n)  # refuses a short table
    return float(np.max(ratios)), f.sup_abs()
