import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pvarlab import (
    IntervalSelection,
    OmegaLog,
    PhiSequence,
    SampledFunction,
    coeff_decay_report,
    corollary_criteria,
    dual_harmonic_estimate,
    embedding_criterion,
    epsilon_p_table,
    marcinkiewicz_norm,
    extrema_reduce,
    pvariation_bruteforce,
    pvariation_dp,
    pvariation_profile,
    q_sequence,
    theta,
    unif2_verdicts,
    validate_modulus,
    vpnu_norm,
    wu_bound_check,
)
from oracles import bruteforce_numpy, dense_dp_with_parents
from pvarlab import _kernels
from pvarlab import verify as inv
from pvarlab.functions import make_random, make_zigzag
from pvarlab.modulus import ModulusOfVariation
from pvarlab.variation import _pvariation_solve, _reduced

ZIGZAG = make_zigzag(5)
MONOTONE = SampledFunction([0.0, 0.5, 1.0], [0.0, 0.5, 1.0])
TINY = float(np.finfo(np.float64).tiny)


def _spread_power(values, p) -> float:
    """(max - min)^p as the DP's scale check computes it, inf on overflow."""
    spread = float(np.max(values)) - float(np.min(values))
    try:
        return spread ** p
    except OverflowError:
        return math.inf


def _underflows(values, p) -> bool:
    return float(np.max(values)) > float(np.min(values)) and _spread_power(values, p) < TINY


def _in_scale(values, p, n) -> bool:
    """True when the DP accepts the values: the n-interval sum bound is finite
    and a nonzero (max - min)^p is a normal float."""
    return math.isfinite(min(n, len(values) - 1) * _spread_power(values, p)) and not _underflows(
        values, p)


def test_monotone_single_chord():
    v, sel = pvariation_bruteforce(MONOTONE, 2.0, 2)
    assert v == pytest.approx(1.0, abs=1e-12)
    v2, sel2 = pvariation_dp(MONOTONE, 2.0, 2)
    assert v2 == pytest.approx(1.0, abs=1e-12)


def test_zigzag_values():
    assert pvariation_bruteforce(ZIGZAG, 2.0, 2)[0] == pytest.approx(np.sqrt(2), abs=1e-12)
    assert pvariation_bruteforce(ZIGZAG, 1.0, 4)[0] == pytest.approx(4.0, abs=1e-12)
    assert pvariation_dp(ZIGZAG, 2.0, 3)[0] == pytest.approx(np.sqrt(3), abs=1e-12)


def test_single_interval_is_max_diff(rng):
    f = make_random(rng, 11)
    v, _ = pvariation_dp(f, 2.5, 1)
    expected = max(
        abs(f.values[j] - f.values[i]) for i in range(11) for j in range(i + 1, 11)
    )
    assert v == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("p", [0.5, 0.999, float("nan"), float("inf"), -2.0])
def test_invalid_p_rejected(p):
    nu = ModulusOfVariation.log()
    for call in (lambda: pvariation_dp(ZIGZAG, p, 2), lambda: pvariation_profile(ZIGZAG, p, 2),
                 lambda: pvariation_bruteforce(ZIGZAG, p, 2),
                 lambda: validate_modulus(nu, p), lambda: marcinkiewicz_norm([1.0], nu, p),
                 lambda: dual_harmonic_estimate(nu, p, 8), lambda: theta(nu, OmegaLog(), p, 8),
                 lambda: unif2_verdicts(nu, p, 16), lambda: coeff_decay_report(ZIGZAG, nu, p, 2),
                 lambda: embedding_criterion(PhiSequence.power_all(2.0), nu, p, 8),
                 lambda: corollary_criteria("BVq", nu, p, 8, q=2.0),
                 lambda: q_sequence(p, [1.0, 2.0]),
                 lambda: epsilon_p_table(nu, p, 3),
                 lambda: wu_bound_check(PhiSequence.power_all(2.0), [0.5, 0.5], p, 0.5)):
        with pytest.raises(ValueError, match="p must be finite and >= 1"):
            call()


def test_dp_profile_matches_pvariation_profile(rng):
    # the CLI takes its profile rows from the DP table behind the selection
    for _ in range(20):
        f = make_random(rng, int(rng.integers(4, 40)))
        for p in (1.0, 1.5, 2.0, 3.0):
            n = int(rng.integers(1, 12))
            value, sel, prof = _pvariation_solve(f, p, n)
            assert prof.size <= n  # v_p(k, f) = prof[min(k, K) - 1]
            padded = prof[np.minimum(np.arange(n), prof.size - 1)]
            assert np.allclose(padded, pvariation_profile(f, p, n), rtol=1e-12, atol=0.0)
            assert value == pytest.approx(prof[-1], rel=1e-12)
            dp_value, dp_sel = pvariation_dp(f, p, n)
            assert (value, sel.intervals) == (dp_value, dp_sel.intervals)


def test_bruteforce_budget():
    f = make_random(np.random.default_rng(0), 16)
    with pytest.raises(ValueError):
        pvariation_bruteforce(f, 1.0, 2)
    with pytest.raises(ValueError):
        pvariation_bruteforce(ZIGZAG, 1.0, 7)


def _oracle_inputs(rng, count):
    """(f, p, n) of the kinds the oracle is pinned on: noise, walks scaled
    1e-8 to 1e8, 4-level integer plateaus, zigzags converging about 1e6 and
    noise at 1e-150, on 2-12 points."""
    for case in range(count):
        m, n = int(rng.integers(2, 13)), int(rng.integers(1, 7))
        p = (1.0, 1.25, 1.5, 2.0, 3.0, 7.3)[case % 6]
        kind = case % 5
        if kind == 0:
            values = rng.normal(size=m)
        elif kind == 1:
            values = np.cumsum(rng.normal(size=m)) * 10.0 ** int(rng.integers(-8, 9))
        elif kind == 2:
            values = rng.integers(0, 4, m).astype(float)
        elif kind == 3:
            values = 1e6 + (-1.0) ** np.arange(m) / (1.0 + np.arange(m)) * rng.uniform(0.5, 2.0)
        else:
            values = rng.normal(size=m) * 1e-150
        yield SampledFunction(np.linspace(0.0, 1.0, m), values), p, n


def _bits(value, sel):
    return (float(value).hex(), sel.intervals, sel.differences.tobytes(), float(sel.objective).hex())


def test_bruteforce_is_its_numpy_form_bit_for_bit():
    # the oracle on Python floats against its numpy-scalar form, wherever the DP
    # accepts the input; where the DP refuses it, the oracle refuses it too
    rng = np.random.default_rng(35)
    cases = list(_oracle_inputs(rng, 1000))
    cases += [(make_random(rng, 15), p, 6) for p in (1.0, 3.0)]
    compared = 0
    for f, p, n in cases:
        if not _in_scale(f.values, p, n):
            with pytest.raises(ValueError, match="values too"):
                pvariation_bruteforce(f, p, n)
            continue
        assert _bits(*pvariation_bruteforce(f, p, n)) == _bits(*bruteforce_numpy(f, p, n))
        compared += 1
    assert compared >= 900


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x, match", [
    (1e153, None), (1e154, "values too large"),
    (1e-154, None), (1e-155, "values too small"),
])
def test_bruteforce_refuses_what_the_dp_refuses(x, match):
    # 2 (2x)^2 is finite and (2x)^2 a normal float just inside each edge; past
    # it the DP's ValueError, never an OverflowError or a numpy warning
    f = SampledFunction([0.0, 0.5, 1.0], [0.0, x, -x])
    if match is None:
        value, sel = pvariation_bruteforce(f, 2.0, 2)
        dp_value, dp_sel = pvariation_dp(f, 2.0, 2)
        assert (value, sel.intervals) == (dp_value, dp_sel.intervals)
        assert math.isfinite(value) and value > 0
        return
    for call in (pvariation_bruteforce, pvariation_dp):
        with pytest.raises(ValueError, match=match):
            call(f, 2.0, 2)


def test_selection_consistency(rng):
    for _ in range(25):
        f = make_random(rng, int(rng.integers(4, 13)))
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        n = int(rng.integers(1, 6))
        v, sel = pvariation_dp(f, p, n)
        assert len(sel.intervals) <= n
        # objective recomputable from the function itself
        acc = sum(abs(f.values[j] - f.values[i]) ** p for i, j in sel.intervals)
        assert acc ** (1.0 / p) == pytest.approx(v, abs=1e-12)


def test_selection_invariants_enforced():
    with pytest.raises(ValueError):
        IntervalSelection(((0, 2), (1, 3)), np.array([1.0, 1.0]), 2.0, 1.0)
    with pytest.raises(ValueError):
        IntervalSelection(((0, 1),), np.array([1.0]), 5.0, 1.0)


def test_selection_deterministic(rng):
    f = make_random(rng, 12)
    a = pvariation_dp(f, 2.0, 3)[1].intervals
    b = pvariation_dp(f, 2.0, 3)[1].intervals
    assert a == b


@settings(max_examples=120, deadline=None)
@given(
    values=st.lists(st.floats(-10, 10, allow_nan=False), min_size=3, max_size=12),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    n=st.integers(1, 5),
)
def test_dp_matches_bruteforce(values, p, n):
    f = SampledFunction(np.arange(len(values), dtype=float), values)
    if _underflows(values, p):
        with pytest.raises(ValueError, match="underflows; rescale the input"):
            inv.dp_oracle_gaps([(f, p, n)])
        return
    assert inv.dp_oracle_gaps([(f, p, n)])[0] <= 1e-12


@settings(max_examples=80, deadline=None)
@given(
    values=st.lists(st.floats(-5, 5, allow_nan=False), min_size=3, max_size=12),
    n=st.integers(1, 5),
    p=st.sampled_from([1.5, 2.0, 3.0]),
)
def test_holder_chain(values, n, p):
    f = SampledFunction(np.arange(len(values), dtype=float), values)
    if _underflows(values, p):
        with pytest.raises(ValueError, match="underflows; rescale the input"):
            inv.holder_chain_excess([(f, p, n)])
        return
    assert inv.holder_chain_excess([(f, p, n)])[0] <= 1e-10


@settings(max_examples=150, deadline=None)
@given(
    values=st.lists(st.floats(-10, 10, allow_nan=False), min_size=3, max_size=12),
    k=st.integers(-400, 400),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    n=st.integers(1, 12),
)
# a scalar pow root once missed the array square root here by one ulp
@example(values=[6.055521884080054, -9.418178840468213, 8.642059317947371, 0.0],
         k=-3, p=2.0, n=3)
def test_dp_across_magnitudes(values, k, p, n):
    # c = 2^k scales every difference exactly, so at p in {1, 2} the DP sums
    # are the unscaled ones times c^p, and their roots, bit for bit
    f = SampledFunction(np.arange(len(values), dtype=float), values)
    c = 2.0 ** k
    cf = f.scaled(c)
    if not _in_scale(cf.values, p, n):
        for call in (pvariation_profile, pvariation_dp):
            with pytest.raises(ValueError, match="rescale the input"):
                call(cf, p, n)
        return
    if not (_in_scale(values, p, n) and np.array_equal(cf.values / c, f.values)):
        return  # no exactly scaled reference to compare with
    prof, cprof = pvariation_profile(f, p, n), pvariation_profile(cf, p, n)
    value = pvariation_dp(cf, p, n)[0]
    if p in (1.0, 2.0):
        assert np.array_equal(cprof, c * prof)
        assert value == c * pvariation_dp(f, p, n)[0]
    else:
        assert np.allclose(cprof, c * prof, rtol=1e-13, atol=0.0)
        assert value == pytest.approx(c * pvariation_dp(f, p, n)[0], rel=1e-13, abs=0.0)
    assert value == cprof[-1]  # same row step and array root as the profile
    # nondecreasing, and constant from the swing count on
    assert np.all(np.diff(cprof) >= 0.0)
    red = extrema_reduce(cf)
    swings = len(red) - 1 if np.ptp(cf.values) > 0 else 0  # red alternates strictly
    assert np.all(cprof[max(swings, 1) - 1:] == cprof[-1])
    assert np.array_equal(pvariation_profile(red, p, n), cprof)
    # Hoelder chain v_p <= v_1 <= n^(1 - 1/p) v_p, relative to v_1
    v1 = pvariation_dp(cf, 1.0, n)[0]
    assert value <= v1 * (1.0 + 1e-12)
    assert v1 <= value * n ** (1.0 - 1.0 / p) * (1.0 + 1e-12)


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(st.floats(-10, 10, allow_nan=False), min_size=3, max_size=12),
    k=st.integers(-400, 400),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    n=st.integers(1, 5),
)
@example(values=[6.055521884080054, -9.418178840468213, 8.642059317947371, 0.0],
         k=-300, p=3.0, n=3)
@example(values=[1.0, -1.0, 1.0, -1.0, 1.0], k=330, p=3.0, n=5)
def test_dp_matches_bruteforce_across_magnitudes(values, k, p, n):
    # the DP against the exhaustive oracle wherever the DP accepts c f, c = 2^k
    cf = SampledFunction(np.arange(len(values), dtype=float), values).scaled(2.0 ** k)
    assume(_in_scale(cf.values, p, n))
    assert inv.dp_oracle_gaps([(cf, p, n)])[0] <= 1e-12


@settings(max_examples=150, deadline=None)
@given(
    values=st.lists(st.floats(-10, 10, allow_nan=False), min_size=3, max_size=40),
    n=st.integers(1, 12),
)
# a dense p = 1 table once summed these in another order: 1.802 against 1.8020000000000003
@example(values=[0.51, -0.869, -0.668, -0.446], n=2)
def test_p1_value_is_the_profile(values, n):
    f = SampledFunction(np.arange(len(values), dtype=float), values)
    if _underflows(values, 1.0):
        return
    assert pvariation_dp(f, 1.0, n)[0] == pvariation_profile(f, 1.0, n)[n - 1]


def _p1_inputs(rng, count):
    kinds = ("uniform", "integer", "walk", "plateau")
    for case in range(count):
        m, n = int(rng.integers(3, 60)), int(rng.integers(1, 12))
        kind = kinds[case % 4]
        if kind == "uniform":
            values = rng.uniform(-2, 2, m)
        elif kind == "integer":
            values = rng.integers(-3, 4, m).astype(np.float64)
        elif kind == "walk":
            values = np.cumsum(rng.normal(size=m))
        else:
            values = np.repeat(rng.uniform(-2, 2, m), rng.integers(1, 4, m))[:m]
        yield SampledFunction(np.arange(m, dtype=float), values), n


def test_p1_selection_matches_dense_table(rng, monkeypatch):
    # the O(m) p = 1 table picks the same intervals as the dense m x m table;
    # the values differ only by the order of their at most 2n roundings
    cases = list(_p1_inputs(rng, 3000))
    fast = [pvariation_dp(f, 1.0, n) for f, n in cases]
    monkeypatch.setattr(_kernels, "dp_with_parents", dense_dp_with_parents)
    for (f, n), (value, sel) in zip(cases, fast):
        ref_value, ref_sel = pvariation_dp(f, 1.0, n)
        assert sel.intervals == ref_sel.intervals
        assert value == pytest.approx(ref_value, rel=1e-14, abs=0.0)


def test_p1_dp_scales_linearly():
    # a dense m x m table on this walk's ~100 000 reduced points would need 160 GB
    walk = np.cumsum(np.random.default_rng(5).normal(size=200_000))
    f = SampledFunction(np.arange(walk.size, dtype=float), walk)
    tracemalloc.start()
    try:
        value, sel = pvariation_dp(f, 1.0, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert value == pvariation_profile(f, 1.0, 8)[7] and len(sel.intervals) == 8


def test_triangle_and_homogeneity(rng):
    cases = []
    for _ in range(30):
        m = int(rng.integers(4, 12))
        grid = np.arange(m, dtype=float)
        f = SampledFunction(grid, rng.uniform(-1, 1, m))
        g = SampledFunction(grid, rng.uniform(-1, 1, m))
        cases.append((f, g, float(rng.choice([1.0, 2.0, 3.0])), int(rng.integers(1, 5)),
                      float(rng.uniform(0.1, 4.0))))
    excess = inv.triangle_homogeneity_excess(cases)
    assert np.all(excess[:, 0] <= 1e-10) and np.all(excess[:, 1] <= 1e-12)


@pytest.mark.parametrize("c", [1e-200, 1e-160, 1e150])
def test_profile_homogeneous_at_extreme_scales(c):
    # swings are counted by sign, so products of tiny differences cannot
    # underflow to zero and cut the DP short
    z = ZIGZAG.scaled(c)
    expected = c * np.array([1, 2, 3, 4, 4, 4])
    assert pvariation_profile(z, 1.0, 6) == pytest.approx(expected, rel=1e-15, abs=0)
    assert pvariation_dp(z, 1.0, 4)[0] == pytest.approx(4 * c, rel=1e-15, abs=0)


def test_overflowing_values_rejected():
    f = SampledFunction([0.0, 0.5, 1.0], [1e308, -1e308, 1e308])
    for p, call in ((1.0, pvariation_profile), (2.0, pvariation_profile), (2.0, pvariation_dp)):
        with pytest.raises(ValueError, match="overflows"):
            call(f, p, 2)
    big = f.scaled(1e-160)  # spread 2e148: its cube overflows, 2 * spread does not
    assert pvariation_profile(big, 1.0, 2) == pytest.approx([2e148, 4e148], rel=1e-15)
    with pytest.raises(ValueError, match="overflows"):
        pvariation_profile(big, 3.0, 2)


def test_profile_monotone_and_stabilizes():
    prof = pvariation_profile(ZIGZAG, 1.0, 8)
    assert prof.tolist() == [1.0, 2.0, 3.0, 4.0, 4.0, 4.0, 4.0, 4.0]
    mono = pvariation_profile(MONOTONE, 2.0, 5)
    assert np.allclose(mono, 1.0)


def test_profile_lp_bound(rng):
    for _ in range(20):
        f = make_random(rng, int(rng.integers(4, 14)))
        p = float(rng.choice([1.0, 1.5, 2.0]))
        prof = pvariation_profile(f, p, 6)
        assert np.all(np.diff(prof) >= -1e-12)
        ns = np.arange(1, 7, dtype=float)
        assert np.all(prof <= prof[0] * ns ** (1.0 / p) + 1e-10)


def test_reduced_is_extrema_reduce_by_index(rng):
    grid = np.linspace(0.0, 1.0, 8)
    cases = [
        make_random(rng, 40),
        SampledFunction(grid, [0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 2.0, 2.0]),  # plateaus
        SampledFunction(grid, np.full(8, 3.0)),
        SampledFunction([0.0, 1.0], [0.0, 1.0]),
        SampledFunction([0.0, 1.0], [2.0, 2.0]),
        SampledFunction(2 * np.pi * np.arange(16) / 16, np.sin(3 * 2 * np.pi * np.arange(16) / 16),
                        periodic=True, period=2 * np.pi),
    ]
    for f in cases:
        red = extrema_reduce(f)
        for p, n in ((1.0, 1), (2.0, 3), (1.5, 100)):
            idx, values, n_eff = _reduced(f, p, n)
            assert np.array_equal(idx, np.searchsorted(f.grid, red.grid))
            assert np.array_equal(values, red.values)
            assert n_eff == min(n, len(red) - 1)


def test_reduced_refuses_before_any_arithmetic_on_values():
    # the reduction's differences would overflow on this input: the scale
    # check must refuse it first
    f = SampledFunction([0.0, 0.5, 1.0, 1.5], [1e308, -1e308, 1e308, -1e308])
    for p in (1.0, 2.0):
        with np.errstate(all="raise"), pytest.raises(ValueError, match="overflows"):
            _reduced(f, p, 3)


def test_extrema_reduce_preserves_dp(rng):
    fs = [make_random(rng, int(rng.integers(5, 13))) for _ in range(30)]
    cases = [(f, p, n) for f in fs for n in (1, 2, 3, 5) for p in (1.0, 2.0)]
    assert np.max(inv.extrema_reduce_gaps(cases)) <= 1e-12


def test_vpnu_norm_zigzag():
    nu = ModulusOfVariation.power(0.5)
    v, sup = vpnu_norm(ZIGZAG, nu, 2.0)
    assert v == pytest.approx(1.0, abs=1e-12)
    assert sup == 1.0


def test_vpnu_norm_constant_and_scaling(rng):
    nu = ModulusOfVariation.power(0.5)
    c = SampledFunction([0.0, 1.0], [2.5, 2.5])
    assert vpnu_norm(c, nu, 2.0) == (0.0, 2.5)
    f = make_random(rng, 9)
    v1, s1 = vpnu_norm(f, nu, 2.0)
    v2, s2 = vpnu_norm(f.scaled(2.0), nu, 2.0)
    assert v2 == pytest.approx(2 * v1, rel=1e-12)
    assert s2 == pytest.approx(2 * s1, rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_vpnu_norm_is_the_sup_over_every_n(p, rng):
    """The max over n <= swing count of v_p(n, f)/nu(n), each v_p from its
    own DP; a horizon, read from the profile, never gives more."""
    for nu in (ModulusOfVariation.power(0.5), ModulusOfVariation.log(),
               ModulusOfVariation.power(1.0)):
        for m in (3, 6, 9, 14):
            f = make_random(rng, m)
            swings = len(extrema_reduce(f)) - 1
            v, sup = vpnu_norm(f, nu, p)
            dp = np.array([pvariation_dp(f, p, n)[0] for n in range(1, swings + 1)])
            assert v == float(np.max(dp / nu.table(swings)))
            assert sup == f.sup_abs()
            for h in range(1, swings + 3):
                assert np.max(pvariation_profile(f, p, h) / nu.table(h)) <= v


def test_vpnu_norm_reads_a_table_past_the_fixed_point():
    f = make_zigzag(3)  # v_1(n, f) = 1, 2, 2, ...: the DP stops at row 2
    dips = ModulusOfVariation.from_table([1.0, 2.0, 2.0 - 5e-13])  # within the 1e-12 slack
    assert vpnu_norm(f, dips, 1.0)[0] == 2.0 / (2.0 - 5e-13)
    with pytest.raises(ValueError, match="beyond table"):
        vpnu_norm(f, ModulusOfVariation.from_table([1.0]), 1.0)
