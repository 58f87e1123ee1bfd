import numpy as np
import pytest

from oracles import (backtrack_take, dense_dp_with_parents, dense_row, dp1_parent_loops,
                     dp1_profile_loops, dp_parent_loops, dp_profile_loops, pow_diff, shift_max_loops)
from pvarlab import SampledFunction, _kernels, extrema_reduce
from pvarlab.variation import _backtrack


def _at(rows, n):
    """Rows 0..n of a DP that made rows 0..K only: row k is row min(k, K)."""
    assert len(rows) <= n + 1
    return np.asarray(rows)[np.minimum(np.arange(n + 1), len(rows) - 1)]


@pytest.mark.parametrize("m,p,n", [(8, 2.0, 3), (40, 1.5, 6), (120, 3.0, 10)])
def test_profile_backends_agree(m, p, n, rng):
    values = rng.uniform(-2, 2, m)
    a = _kernels.dp_profile_pow(values, p, n)
    b = dp_profile_loops(values, p, n)
    assert np.allclose(_at(a, n), b, atol=1e-12)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_dp_with_parents_matches_loop_oracle(p, rng):
    # raw (unreduced) values: a point between two others splits an interval
    # at no cost in exact arithmetic, so the last ulp decides such ties
    for case in range(40):
        m = int(rng.integers(2, 61))
        n = int(rng.integers(1, 13))
        if case % 2:
            values = rng.integers(-3, 4, m).astype(np.float64)  # many exact ties
        else:
            values = rng.uniform(-2, 2, m)
        rows, pair_sums = _kernels.dp_with_parents(values, p, n)
        pairs = _backtrack(rows, pair_sums, n)
        table = _at(rows, n)
        ref_table, take = dp_parent_loops(values, p, n)
        assert np.allclose(table, ref_table, rtol=0.0, atol=1e-12)
        if p == 1.0:
            # the dense loop sums in another order, so it may break an exact
            # tie the other way; the selection is still optimal for it
            objective = sum(abs(values[i] - values[j]) for j, i in pairs)
            assert abs(objective - ref_table[n, -1]) <= 1e-12
            ref_table, take = dp1_parent_loops(values, n)
            assert np.array_equal(table, ref_table)
        assert pairs == backtrack_take(take)


def test_profile_kernel_is_last_column_of_parent_table(rng):
    values = rng.uniform(-2, 2, 50)
    for p in (1.0, 1.5, 2.0, 3.0):
        rows, _ = _kernels.dp_with_parents(values, p, 9)
        assert np.array_equal(np.array(rows)[:, -1], _kernels.dp_profile_pow(values, p, 9))


def _pruning_values(rng, kind, m):
    if kind == "random":
        return rng.uniform(-2, 2, m)
    if kind == "walk":
        return np.cumsum(rng.standard_normal(m))
    if kind == "integer":  # steps of +-1, +-2: many equal values, never two in a row
        return np.cumsum(rng.choice([-2.0, -1.0, 1.0, 2.0], m))
    if kind == "plateau":
        return np.repeat(rng.integers(-3, 4, m).astype(np.float64), int(rng.integers(2, 5)))[:m]
    # a converging zigzag: every start can win at every later end, m (m - 1) / 2 pairs
    k = np.arange(m)
    return rng.uniform(0.5, 2.0) * (1.0 - rng.uniform(0.2, 1.0) * k / m) * np.where(k % 2, -1.0, 1.0)


def test_candidate_pair_rows_match_the_dense_step(rng):
    # the rows and the backtracked selections equal the dense m x m step's bit
    # for bit, on both sides of the all-pairs cut; budgets to the fixed point too
    cut, cases = _kernels._ALL_PAIRS_M, 0
    for p in (1.25, 1.5, 2.0, 3.0):
        for case in range(520):
            kind = ("random", "walk", "integer", "plateau", "zigzag")[case % 5]
            m = int(rng.integers(2, cut + 1) if case % 2 else rng.integers(cut + 1, 192))
            n = m if case % 13 == 0 else int(rng.integers(1, 9))
            values = _pruning_values(rng, kind, m)
            rows, pair_sums = _kernels.dp_with_parents(values, p, n)
            table, dense_sums = dense_dp_with_parents(values, p, n)
            assert np.array_equal(_at(rows, n), table), (kind, m, n, p)
            assert _backtrack(rows, pair_sums, n) == _backtrack(table, dense_sums, n), (kind, m, n, p)
            cases += 1
    assert cases >= 2000


def test_candidate_pairs_are_the_suffix_extrema(rng):
    # past the all-pairs cut, end i's run of starts is exactly the strict
    # suffix minima and maxima of v[0..i-1], in increasing order
    for case in range(200):
        m = int(rng.integers(_kernels._ALL_PAIRS_M + 1, 2 * _kernels._ALL_PAIRS_M))
        values = _pruning_values(rng, ("random", "walk", "integer", "plateau", "zigzag")[case % 5], m)
        ends, starts, offsets = _kernels._pairs(values)
        bounds, v = [*offsets.tolist(), ends.size], values.tolist()
        for i in range(1, m):
            want, lo, hi = [], np.inf, -np.inf  # min and max of v[j + 1..i - 1]
            for j in range(i - 1, -1, -1):
                if v[j] < lo or v[j] > hi:
                    want.append(j)
                lo, hi = min(lo, v[j]), max(hi, v[j])
            assert starts[bounds[i - 1]:bounds[i]].tolist() == want[::-1], (case, i)
            assert np.all(ends[bounds[i - 1]:bounds[i]] == i)


@pytest.mark.parametrize("m,n", [(10, 4), (64, 12), (300, 25)])
def test_dp1_backends_agree(m, n, rng):
    values = rng.uniform(-2, 2, m)
    a = _at(_kernels.dp1_profile(values, n), n)
    b = dp1_profile_loops(values, n)
    assert np.allclose(a, b, atol=1e-12)
    # the dense m x m row step at p = 1, against the O(m) one
    full = dense_dp_with_parents(values, 1.0, n)[0][:, -1]
    assert np.allclose(a, full, atol=1e-10)


@pytest.mark.parametrize("kind", ["uniform", "integer"])
def test_dp1_total_variation_from_one_interval_per_swing(kind, rng):
    # witness windows take v_1(n) as the in-order total variation when n >= swings
    for _ in range(60):
        m = int(rng.integers(2, 61))
        if kind == "integer":
            raw = rng.integers(-3, 4, m).astype(np.float64)
        else:
            raw = rng.uniform(-2, 2, m)
        values = extrema_reduce(SampledFunction(np.arange(m, dtype=float), raw)).values
        swings = values.size - 1
        total = float(np.cumsum(np.abs(np.diff(values)))[-1])
        for n in (swings, swings + 1, 2 * swings + 3):
            ref = _at(_kernels.dp1_profile(values, n), n)[n]
            assert abs(total - ref) <= 1e-12 * (1.0 + ref)


def _shift_max_cases(rng):
    """(grid, values, delta, limit): plateaus, ties, empty windows, delta past
    the span, limit < m, nonuniform grids, values near the float range."""
    for trial in range(300):
        m = int(rng.integers(1, 90))
        if trial % 3 == 0:
            g = np.linspace(0.0, 1.0, m)
        else:
            g = np.unique(np.cumsum(rng.exponential(1.0, m)) * rng.choice([1e-6, 1.0, 1e6]))
            m = g.size
        kind = trial % 4
        if kind == 0:
            v = rng.uniform(-1, 1, m)
        elif kind == 1:
            v = rng.integers(-2, 3, m).astype(float)  # ties and equal pairs
        elif kind == 2:
            v = np.repeat(rng.normal(size=m), 4)[:m]  # plateaus
        else:
            v = rng.uniform(-1, 1, m) * rng.choice([1e-300, 1e300])
        span = float(g[-1] - g[0])
        step = float(np.min(np.diff(g))) if m > 1 else 1.0
        for delta in (0.5 * step, span / 7, span, 3.0 * span + 1.0):  # no pair .. past the span
            for limit in (m, int(rng.integers(0, m + 1))):
                yield g, v, delta, limit


def test_shift_max_backends_agree(rng):
    for g, v, delta, limit in _shift_max_cases(rng):
        got = _kernels.shift_max(g, v, delta, limit)
        assert type(got) is float
        assert got == shift_max_loops(g, v, delta, limit), (g.size, delta, limit)
    g = np.linspace(0.0, 1.0, 50)
    assert _kernels.shift_max(g, np.sin(9 * g), 0.01, 50) == 0.0  # every window empty


@pytest.mark.parametrize("m", [2, 3, 64, 257])
def test_periodic_modulus_of_continuity_matches_the_pair_loop(m, rng, monkeypatch):
    from pvarlab import fourier

    g = np.linspace(0.0, 2 * np.pi, m, endpoint=False)
    fs = [SampledFunction(g, vals, periodic=True, period=2 * np.pi)
          for vals in (rng.uniform(-1, 1, m), rng.integers(-1, 2, m).astype(float),
                       np.where(g < 2.0, 1.5, 0.0))]
    deltas = [0.0, 1e-3, g[m // 3], 1.0, np.pi, 2 * np.pi, 10.0]
    fast = [[fourier.modulus_of_continuity(f, d) for d in deltas] for f in fs]
    monkeypatch.setattr(_kernels, "shift_max", shift_max_loops)
    assert fast == [[fourier.modulus_of_continuity(f, d) for d in deltas] for f in fs]


def test_dps_stop_at_their_fixed_point(monkeypatch):
    x = np.linspace(0.0, 1.0, 300)
    values = np.sin(12 * x) + 0.02 * np.random.default_rng(0).normal(size=300)
    p, n = 2.0, 200
    diff, buf = pow_diff(values, p), np.empty((300, 300))
    every_row = np.zeros((n + 1, 300))
    for k in range(1, n + 1):
        dense_row(every_row[k - 1], diff, buf, every_row[k])

    rows = []
    row = _kernels._pair_row
    monkeypatch.setattr(_kernels, "_pair_row", lambda *a: rows.append(1) or row(*a))
    prof = _kernels.dp_profile_pow(values, p, n)
    table, pair_sums = _kernels.dp_with_parents(values, p, n)
    used = len(rows) // 2
    assert len(rows) == 2 * used and used < n
    assert len(table) == prof.size == used + 1  # no row past the fixed point is made
    assert np.array_equal(_at(prof, n), every_row[:, -1])
    assert np.array_equal(_at(table, n), every_row)
    assert _backtrack(table, pair_sums, n) == _backtrack(every_row, pair_sums, n)
    # the loop oracles run every row; a few rows past the stop they agree bit for bit
    k = used + 2
    assert np.array_equal(dp_profile_loops(values, p, k), _at(prof, k))
    ref_table, take = dp_parent_loops(values, p, k)
    assert np.array_equal(ref_table, _at(table, k))
    assert _backtrack(table, pair_sums, k) == backtrack_take(take)

    # the p = 1 table runs only the O(m) row step and stops at the same fixed point
    every_row = np.zeros((n + 1, 300))
    for k in range(1, n + 1):
        _kernels._dp1_row(every_row[k - 1], values, every_row[k])
    dense_rows, rows1 = len(rows), []
    row1 = _kernels._dp1_row
    monkeypatch.setattr(_kernels, "_dp1_row", lambda *a: rows1.append(1) or row1(*a))
    prof = _kernels.dp1_profile(values, n)
    table, pair_sums = _kernels.dp_with_parents(values, 1.0, n)
    used = len(rows1) // 2
    assert len(rows1) == 2 * used and used < n and len(rows) == dense_rows
    assert len(table) == prof.size == used + 1
    assert np.array_equal(_at(prof, n), every_row[:, -1])
    assert np.array_equal(_at(table, n), every_row)
    assert _backtrack(table, pair_sums, n) == _backtrack(every_row, pair_sums, n)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_backtrack_on_the_rows_is_the_backtrack_on_the_padded_table(p, rng):
    # budgets far past the fixed point: the walk reads row min(k, K) where the
    # padded table held a copy of row K, and picks the same intervals
    for case in range(60):
        m = int(rng.integers(2, 41))
        if case % 2:
            values = rng.integers(-3, 4, m).astype(np.float64)  # many exact ties
        else:
            values = rng.uniform(-2, 2, m)
        for n in (1, int(rng.integers(1, m + 1)), m + 5):
            rows, pair_sums = _kernels.dp_with_parents(values, p, n)
            padded = _at(rows, n)
            assert padded.shape == (n + 1, m)
            assert _backtrack(rows, pair_sums, n) == _backtrack(padded, pair_sums, n)


def test_pow_monotone():
    # _pairs' pruning rests on one float assumption: float64 ** is nondecreasing
    # in the base.  Checked on adjacent floats x < y = nextafter(x, inf) with the
    # costs' own array expression, over the bases a difference of samples that
    # _check_scale admits can take: bit patterns drawn uniformly from the
    # smallest subnormal to max^(1/p), so every binade gets its share
    rng = np.random.default_rng(13)
    for p in (1.25, 1.5, 2.0, 3.0):
        top = np.array([np.finfo(np.float64).max ** (1.0 / p)]).view(np.int64)[0]
        x = rng.integers(1, top, 10 ** 6).view(np.float64)
        y = np.nextafter(x, np.inf)
        assert x.min() < 1e-300 and np.isfinite(x.max() ** p)
        assert np.all(y ** p >= x ** p), p
