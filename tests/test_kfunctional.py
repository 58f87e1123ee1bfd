import numpy as np
import pytest

from oracles import knots_loop, sandwich_loop
from pvarlab import (
    SampledFunction,
    bracket_count,
    kfunctional_bounds,
    kfunctional_sweep,
    pl_interpolate,
    pvariation_dp,
    pvariation_profile,
    select_knots,
    varp_pl,
)
from pvarlab import verify as inv
from pvarlab.functions import make_linear, make_random, make_zigzag

LINEAR = make_linear(9)
ZIGZAG = make_zigzag(5)


def test_bracket_count():
    assert bracket_count(0.25, 1.0) == 4
    assert bracket_count(0.5, 2.0) == 4
    assert bracket_count(1.0, 3.0) == 1
    assert bracket_count(0.3, 2.0) == 9
    with pytest.raises(ValueError):
        bracket_count(1.5, 1.0)
    with pytest.raises(ValueError):
        bracket_count(0.0, 1.0)


@pytest.mark.parametrize("literal,floor", [*((f"1e-{j}", 10 ** j) for j in range(1, 8)),
                                           ("2e-5", 50_000), ("4e-5", 25_000), ("5e-6", 200_000)])
def test_bracket_count_at_decimal_t(literal, floor):
    # 1/1e-5 is 99999.99999999999 in floats; the decimal's floor is 10^5
    assert bracket_count(float(literal), 1.0) == floor


@pytest.mark.parametrize("t,p", [(1e-120, 3.0), (5e-324, 1.0)])
def test_bracket_count_overflow_is_a_value_error(t, p):
    # floor(1/t)^p past the float range, or 1/t itself infinite
    with pytest.raises(ValueError, match=rf"t={t!r}, p={p!r}"):
        bracket_count(t, p)
    with pytest.raises(ValueError, match="overflows a float"):
        kfunctional_sweep(make_zigzag(9), [1.0, t], p)


def test_select_knots_linear_uniform():
    knots, case = select_knots(LINEAR, 4, 1.0)
    assert case == "I"
    assert knots == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0], abs=1e-12)


def test_select_knots_constant_case_ii():
    c = SampledFunction([0.0, 0.4, 1.0], [1.0, 1.0, 1.0])
    knots, case = select_knots(c, 5, 2.0)
    assert case == "II"
    assert knots.tolist() == [0.0, 1.0]


def test_select_knots_zigzag():
    knots, case = select_knots(ZIGZAG, 2, 2.0)
    assert case == "I"
    assert knots == pytest.approx([0.0, 0.25, 1.0], abs=1e-12)


def test_case_i_threshold_saturation(rng):
    for _ in range(25):
        f = make_random(rng, int(rng.integers(8, 30)))
        p = float(rng.choice([1.0, 2.0]))
        M = int(rng.integers(2, 9))
        prof = pvariation_profile(f, p, M)
        threshold = prof[M - 1] / M ** (1.0 / p)
        knots, case = select_knots(f, M, p)
        if case != "I":
            continue
        vals = np.interp(knots, f.grid, f.values)
        steps = np.abs(np.diff(vals))[:-1]  # all but the closing step
        assert np.all(np.abs(steps - threshold) <= 1e-9 * (1.0 + threshold))


def test_pl_interpolate_examples():
    g = pl_interpolate(LINEAR, np.array([0.0, 0.5, 1.0]))
    xs = np.linspace(0, 1, 33)
    assert g(xs) == pytest.approx(xs, abs=1e-12)
    chord = pl_interpolate(ZIGZAG, np.array([0.0, 1.0]))
    assert chord(np.array([0.3])) == pytest.approx([0.0], abs=1e-12)
    full = pl_interpolate(ZIGZAG, np.arange(5))
    assert full(ZIGZAG.grid) == pytest.approx(ZIGZAG.values, abs=1e-12)
    with pytest.raises(ValueError):
        pl_interpolate(LINEAR, np.array([0.0, 0.0, 1.0]))
    # the interpolant is f sampled on its knots, which must cover [0, 1]
    assert isinstance(g, SampledFunction) and g.grid.tolist() == [0.0, 0.5, 1.0]
    with pytest.raises(ValueError, match="cover"):
        pl_interpolate(LINEAR, np.array([0.0, 0.5]))


def test_varp_pl_examples():
    line = pl_interpolate(LINEAR, np.array([0.0, 1.0]))
    assert varp_pl(line, 2.0) == pytest.approx(1.0, abs=1e-12)
    hat = pl_interpolate(ZIGZAG, np.array([0.0, 0.25, 1.0]))  # values 0, 1, 0
    for p in (1.0, 1.7, 3.0):
        assert varp_pl(hat, p) == pytest.approx(2 ** (1.0 / p), rel=1e-12)


def test_varp_pl_matches_dp_on_knot_sampling(rng):
    for _ in range(25):
        m = int(rng.integers(3, 12))
        knots = np.sort(rng.uniform(0, 1, m))
        knots[0], knots[-1] = 0.0, 1.0
        knots = np.unique(knots)
        if knots.size < 2:
            continue
        vals = rng.uniform(-1, 1, knots.size)
        g = SampledFunction(knots, vals)
        p = float(rng.choice([1.0, 2.0, 2.5]))
        pl = pl_interpolate(g, np.arange(knots.size))
        v, _ = pvariation_dp(g, p, max(1, knots.size - 1))
        assert varp_pl(pl, p) == pytest.approx(v, abs=1e-10)


def test_kfunctional_linear_exact():
    ks = kfunctional_bounds(LINEAR, 0.25, 1.0)
    assert ks.M == 4
    assert ks.lower == pytest.approx(0.25, abs=1e-12)
    assert ks.upper == pytest.approx(0.25, abs=1e-12)
    assert ks.ratio == pytest.approx(1.0, abs=1e-9)
    assert ks.case == "I"


def test_kfunctional_constant():
    c = SampledFunction([0.0, 0.5, 1.0], [2.0, 2.0, 2.0])
    ks = kfunctional_bounds(c, 0.3, 2.0)
    assert ks.lower == 0.0 and ks.upper == 0.0
    assert ks.case == "II"


def test_kfunctional_zigzag():
    ks = kfunctional_bounds(ZIGZAG, 0.5, 2.0)
    assert ks.M == 4
    assert ks.lower == pytest.approx(1.0, abs=1e-12)
    assert ks.ratio <= 5.0 + 1e-9


def test_kfunctional_rejects_bad_t():
    with pytest.raises(ValueError):
        kfunctional_bounds(ZIGZAG, 1.5, 1.0)
    with pytest.raises(ValueError):
        kfunctional_bounds(ZIGZAG, 0.0, 1.0)


def test_sandwich_and_certificates(rng):
    cases = [(make_random(rng, int(rng.integers(5, 35))), float(rng.uniform(0.05, 1.0)),
              float(rng.choice([1.0, 1.5, 2.0, 3.0]))) for _ in range(40)]
    ratios = inv.kfunctional_ratios(cases)  # inf where a certificate fails
    ratios = ratios[~np.isnan(ratios)]
    assert np.all((0.5 - 1e-9 <= ratios) & (ratios <= 5.0 + 1e-9))


def test_random_competitors_respect_half_lower(rng):
    f = make_random(rng, 25)

    def knots():
        return np.unique(np.concatenate([[0, 24], rng.choice(25, int(rng.integers(2, 9)))]))

    cases = [(f, t, p, [knots() for _ in range(200)]) for t in (0.9, 0.5, 0.21) for p in (1.0, 2.0)]
    assert np.max(inv.competitor_excess(cases)) <= 1e-10


def test_sandwich_homogeneous_under_powers_of_two():
    # K(cf, t) = c K(f, t); a power of two scales every float exactly, so the
    # bounds scale bit for bit and the case tags stay, far from scale 1 too
    rng = np.random.default_rng(5)
    for f in (make_zigzag(9), make_random(rng, 17), make_random(rng, 30)):
        for p in (1.0, 2.0):
            for t in (1.0, 0.5, 0.25, 0.11):
                base = kfunctional_bounds(f, t, p)
                for k in range(-490, 491, 35):
                    c = 2.0 ** k
                    ks = kfunctional_bounds(f.scaled(c), t, p)
                    got = (ks.lower / c, ks.upper / c, ks.case)
                    assert got == (base.lower, base.upper, base.case), (k, p, t)


def test_sweep_shapes():
    rows = kfunctional_sweep(LINEAR, [1.0, 0.5, 0.25], 1.0)
    assert [r.ratio for r in rows] == pytest.approx([1.0, 1.0, 1.0], abs=1e-9)
    assert kfunctional_sweep(LINEAR, [], 1.0) == []
    # the empty sweep checks p as every other one does
    for p in (0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="p must be finite and >= 1"):
            kfunctional_sweep(LINEAR, [], p)


def test_knot_walk_bound_is_checked_before_the_walk(monkeypatch):
    # f(x) = x at p = 1: threshold = v_1(M) / M = 1 / M, so the walk's bound
    # min(M - 1, TV / threshold) is M - 1, and the walk places exactly that many
    from pvarlab import kfunctional

    f = SampledFunction(np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 5))
    monkeypatch.setattr(kfunctional, "_MAX_KNOTS", 63)
    knots, case = select_knots(f, 64, 1.0)
    assert knots.size == 65 and case == "I"
    monkeypatch.setattr(kfunctional, "_MAX_KNOTS", 62)
    with pytest.raises(ValueError, match="over the cap of 62"):
        select_knots(f, 64, 1.0)
    with pytest.raises(ValueError, match="over the cap of 62"):
        kfunctional_bounds(f, 1 / 64, 1.0)
    # at p = 2 the bound is TV M^(1/2) / v_2(M) = 8 M^(1/2) / 8^(1/2) on an
    # 8-swing zigzag, below M - 1: 28.3 at M = 100 passes, 70.7 at M = 625 does not
    assert kfunctional_bounds(make_zigzag(9), 0.1, 2.0).M == 100
    with pytest.raises(ValueError, match="knot walk at M = 625 may place 70.7 knots"):
        kfunctional_bounds(make_zigzag(9), 0.04, 2.0)


def test_sweep_shares_one_profile(rng, monkeypatch):
    from pvarlab import kfunctional

    ts = [1.0, 0.5, 0.3, 0.25, 0.2, 0.1, 0.07]
    profiled = []
    profile = kfunctional._profile

    def counted(g, p, n):
        profiled.append(g)
        return profile(g, p, n)

    for p in (1.0, 1.5, 2.0, 3.0):
        for values in (rng.uniform(-1, 1, 60), rng.integers(-3, 4, 40).astype(float)):
            f = SampledFunction(np.linspace(0.0, 1.0, values.size), values)
            separate = [kfunctional_bounds(f, t, p) for t in ts]
            monkeypatch.setattr(kfunctional, "_profile", counted)
            profiled.clear()
            assert kfunctional_sweep(f, ts, p) == separate
            monkeypatch.undo()
            assert sum(g is f for g in profiled) == 1  # varp_pl profiles the approximants
            # row M of the DP does not depend on the budget it was run with
            full = pvariation_profile(f, p, max(bracket_count(t, p) for t in ts))
            for t in ts:
                M = bracket_count(t, p)
                assert np.array_equal(pvariation_profile(f, p, M), full[:M])


def test_zigzag_log_spaced_ratios():
    ts = np.geomspace(0.05, 1.0, 8)
    rows = kfunctional_sweep(ZIGZAG, ts, 2.0)
    for r in rows:
        assert 1.0 - 1e-9 <= r.ratio <= 5.0 + 1e-9


def test_lower_monotone_diagnostic():
    from pvarlab.kfunctional import lower_monotone_in_t

    rows = kfunctional_sweep(LINEAR, [0.1, 0.25, 0.5, 1.0], 1.0)
    assert lower_monotone_in_t(rows)  # linear f: lower = t * floor(1/t) * ... grows
    assert lower_monotone_in_t([])


def _knot_search_inputs(rng, count, m_hi=90):
    """Random, plateau and integer-valued samples on uniform and nonuniform grids."""
    for trial in range(count):
        m = int(rng.integers(2, m_hi))
        if trial % 2:
            g = np.linspace(0.0, 1.0, m)
        else:
            g = np.unique(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, m - 2)]))
        kind = trial % 3
        if kind == 0:
            v = np.cumsum(rng.normal(size=g.size))
        elif kind == 1:
            v = rng.integers(-3, 4, g.size).astype(float)  # exact level hits
        else:
            v = np.repeat(rng.integers(-2, 3, g.size), 3)[:g.size] * 0.5  # plateaus
        yield SampledFunction(g, v)


def _knot_walk_cases(rng):
    """The 520 original (f, t, p) cases, then 2 400 more on grids shifted by
    0 or +-5e-13 with t down to 0.003, the zigzag at decimal scales, whose
    crossings tie in the last ulp, and one pinned walk.  The short inputs
    (m < 12) put the last node within a hop's first 16 segments, where an
    exact level hit from above (dl > 0, dr == 0) at the end of a grid
    shifted to 1 - 5e-13 is a knot of its own."""
    for f in _knot_search_inputs(rng, 520):
        yield f, [float(rng.choice([1.0, 0.5, 0.25, 0.1, 0.05, 0.02]))], \
            float(rng.choice([1.0, 1.5, 2.0, 3.0]))
    for count, m_hi, t_grid in ((400, 90, [1.0, 0.5, 0.3, 0.1, 0.04, 0.01, 0.003]),
                                (400, 12, [1.0, 0.5, 0.3, 0.25, 0.1])):
        for f in _knot_search_inputs(rng, count, m_hi):
            g = f.grid + float(rng.choice([0.0, 5e-13, -5e-13]))
            ts = sorted(rng.choice(t_grid, 3, replace=False))
            yield SampledFunction(g, f.values), [float(t) for t in ts], \
                float(rng.choice([1.0, 1.5, 2.0, 3.0]))
    for c in (1.0, 1e-12, 3.0, 0.1):
        yield make_zigzag(9).scaled(c), [1.0, 0.5, 0.25], 2.0
    # the second hop's lower level is -2.0, met from above at the last node
    yield SampledFunction(np.linspace(0.0, 1.0, 3) - 5e-13, np.array([-2.0, 1.0, -2.0])), [0.5], 2.0


def test_select_knots_matches_the_segment_walk(rng, monkeypatch):
    from pvarlab import kfunctional

    walks = []
    knots_of = kfunctional._knots
    monkeypatch.setattr(kfunctional, "_knots", lambda *a: walks.append(knots_of(*a)) or walks[-1])
    cases = {"I": 0, "II": 0}
    for f, ts, p in _knot_walk_cases(rng):
        walks.clear()
        rows = kfunctional_sweep(f, ts, p)
        for t, row, (got, values, got_case) in zip(ts, rows, list(walks), strict=True):
            knots, case, lower, upper, ratio = sandwich_loop(f, t, p)
            assert (row.case, row.lower, row.upper, row.ratio) == (case, lower, upper, ratio), (f, t, p)
            assert got.tobytes() == knots.tobytes() and got_case == case, (f, t, p)
            assert values.tobytes() == np.interp(knots, f.grid, f.values).tobytes(), (f, t, p)
            if len(ts) == 1:
                got, got_case = select_knots(f, bracket_count(t, p), p)
                assert got.tobytes() == knots.tobytes() and got_case == case
            cases[case] += 1
    assert sum(cases.values()) >= 2_930 and min(cases.values()) > 50


def test_knot_walk_on_grids_with_nodes_past_one(rng):
    # a hit on a segment that starts past 1.0 is clamped back to the knot 1.0,
    # whose value lies on an earlier segment
    from pvarlab import kfunctional

    for _ in range(300):
        m, k = int(rng.integers(5, 10)), int(rng.integers(2, 4))
        g = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, m - k - 1)),
                            1.0 + 1e-13 * np.arange(1, k + 1)])
        f = SampledFunction(g, rng.integers(-2, 3, g.size).astype(float))
        t, p = float(rng.choice([1.0, 0.5, 0.25, 0.1])), float(rng.choice([1.0, 2.0]))
        M = bracket_count(t, p)
        ups = kfunctional._profile(f, p, M)[-1]
        knots, case = knots_loop(f, M, p, ups)
        got, values, got_case = kfunctional._knots(f, M, p, ups)
        assert got.tobytes() == knots.tobytes() and got_case == case, f
        assert values.tobytes() == np.interp(knots, f.grid, f.values).tobytes(), f


def test_knot_search_calls_the_scalar_test_per_knot(monkeypatch):
    # the scalar crossing test runs on the knot's own segment and on the first
    # flagged one, not on every segment between knots
    from pvarlab import kfunctional

    rng = np.random.default_rng(11)
    m = 20_000
    f = SampledFunction(np.linspace(0.0, 1.0, m), np.cumsum(rng.normal(size=m)) / np.sqrt(m))
    calls = []
    crossing = kfunctional._first_crossing
    monkeypatch.setattr(kfunctional, "_first_crossing",
                        lambda *a: calls.append(1) or crossing(*a))
    knots, _ = select_knots(f, bracket_count(1e-3, 1.0), 1.0)
    assert len(knots) > 100
    assert len(calls) <= 2 * len(knots) + 2
