import numpy as np
import pytest

from oracles import next_hit_loop
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


def _knot_search_inputs(rng, count):
    """Random, plateau and integer-valued samples on uniform and nonuniform grids."""
    for trial in range(count):
        m = int(rng.integers(2, 90))
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


def test_next_hit_matches_the_segment_walk(rng):
    from pvarlab.kfunctional import _next_hit

    on_node = hits = 0
    for f in _knot_search_inputs(rng, 600):
        g, v = f.grid + float(rng.choice([0.0, 5e-13, -5e-13])), f.values  # g[0] around 0
        i = int(rng.integers(0, g.size))
        cur_x = float(rng.choice([g[i], rng.uniform(0, 1), 0.0, 1.0]))
        threshold = float(rng.choice([1.0, 0.5, rng.uniform(0, 3), abs(v[-1] - v[0])]))
        here = float(np.interp(cur_x, g, v))
        # levels at cur_x and at the last sample: dl == 0 and dr == 0 hits
        cur_val = float(rng.choice([here, v[i], here + threshold, v[-1] - threshold]))
        got = _next_hit(g, v, cur_x, cur_val, threshold)
        assert got == next_hit_loop(g, v, cur_x, cur_val, threshold), (g, v, cur_x, threshold)
        on_node += cur_x in g
        hits += got is not None
    assert on_node > 150 and hits > 300


def test_select_knots_matches_the_segment_walk(rng, monkeypatch):
    from pvarlab import kfunctional

    cases = [(f, float(rng.choice([1.0, 0.5, 0.25, 0.1, 0.05, 0.02])),
              float(rng.choice([1.0, 1.5, 2.0, 3.0]))) for f in _knot_search_inputs(rng, 520)]

    def run():
        out = []
        for f, t, p in cases:
            M = bracket_count(t, p)
            knots, case = select_knots(f, M, p)
            ks = kfunctional_bounds(f, t, p)
            out.append((knots.tobytes(), case, ks.upper, ks.case))
        for c in (1.0, 1e-12, 3.0, 0.1):  # last-ulp ties at the zigzag's crossings
            out += [(r.upper, r.case) for r in
                    kfunctional_sweep(make_zigzag(9).scaled(c), [1, 0.5, 0.25], 2)]
        return out

    fast = run()
    monkeypatch.setattr(kfunctional, "_next_hit", next_hit_loop)
    assert fast == run()
    assert sum(row[1] == "II" for row in fast[:len(cases)]) > 50
    assert sum(row[1] == "I" for row in fast[:len(cases)]) > 50


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
