import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import extrema_reduce_loop, swing_count_loop
from pvarlab import SampledFunction, extrema_reduce


def test_invariants_enforced():
    with pytest.raises(ValueError):
        SampledFunction([0.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        SampledFunction([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        SampledFunction([0.0], [1.0])
    with pytest.raises(ValueError):
        SampledFunction([0.0, 1.0], [np.nan, 1.0])
    with pytest.raises(ValueError):
        SampledFunction([0.0, 7.0], [0.0, 1.0], periodic=True, period=2 * np.pi)
    with pytest.raises(ValueError):
        SampledFunction([0.0, 1.0], [0.0, 1.0], period=1.0)


def test_periodic_evaluation_wraps():
    g = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    f = SampledFunction(g, np.sin(g), periodic=True, period=2 * np.pi)
    x = np.array([0.3, 0.3 + 2 * np.pi, 0.3 - 2 * np.pi])
    v = f(x)
    assert np.allclose(v, v[0])


def test_extrema_reduce_monotone_keeps_endpoints():
    f = SampledFunction([0.0, 0.5, 1.0], [0.0, 0.5, 1.0])
    red = extrema_reduce(f)
    assert red.values.tolist() == [0.0, 1.0]


def test_extrema_reduce_zigzag_unchanged():
    f = SampledFunction(np.linspace(0, 1, 5), [0, 1, 0, 1, 0])
    red = extrema_reduce(f)
    assert red.values.tolist() == [0, 1, 0, 1, 0]


def test_extrema_reduce_interior_scan():
    f = SampledFunction(np.linspace(0, 1, 6), [0, 0.3, 1, 0.7, 0.2, 0.9])
    red = extrema_reduce(f)
    assert red.values.tolist() == [0.0, 1.0, 0.2, 0.9]


def test_extrema_reduce_plateaus_and_constant():
    f = SampledFunction(np.linspace(0, 1, 4), [0.0, 1.0, 1.0, 0.0])
    assert extrema_reduce(f).values.tolist() == [0.0, 1.0, 0.0]
    c = SampledFunction(np.linspace(0, 1, 5), np.full(5, 3.0))
    assert extrema_reduce(c).values.tolist() == [3.0, 3.0]


def _values(kind, m, rng):
    if kind == "uniform":
        return rng.uniform(-2, 2, m)
    if kind == "integer":
        return rng.integers(-3, 4, m).astype(np.float64)
    if kind == "plateau":
        # runs of equal values, so many differences are exactly zero
        return np.repeat(rng.integers(-2, 3, m), rng.integers(1, 5, m))[:m].astype(np.float64)
    # leading and trailing plateaus around a random middle
    v = rng.uniform(-1, 1, m)
    a, b = sorted(rng.integers(0, m + 1, 2))
    v[:a] = v[a] if a < m else v[-1]
    v[b:] = v[b - 1] if b > 0 else v[0]
    return v


def _assert_same_reduction(f):
    red, ref = extrema_reduce(f), extrema_reduce_loop(f)
    assert np.array_equal(red.grid, ref.grid)
    assert np.array_equal(red.values, ref.values)


@pytest.mark.parametrize("kind", ["uniform", "integer", "plateau", "edge-plateaus"])
def test_extrema_reduce_matches_loop_oracle(kind, rng):
    for m in range(2, 61):
        for _ in range(5):
            v = _values(kind, m, rng)
            _assert_same_reduction(SampledFunction(np.sort(rng.uniform(0, 1, m)) + np.arange(m), v))


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]) | st.floats(-3, 3),
                       min_size=2, max_size=40))
def test_extrema_reduce_property(values):
    f = SampledFunction(np.arange(len(values), dtype=float), values)
    _assert_same_reduction(f)
    red = extrema_reduce(f).values
    # endpoints kept, no zero steps, and the direction flips at every interior point
    assert red[0] == f.values[0] and red[-1] == f.values[-1]
    d = np.diff(red)
    if red.size > 2:
        assert np.all(d != 0) and np.all(np.sign(d[1:]) != np.sign(d[:-1]))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.integers(-2, 2).map(float) | st.floats(-3, 3), min_size=2, max_size=12))
def test_reduced_length_is_the_swing_count(values):
    # the DP budget is capped at len(extrema_reduce(f)) - 1 on this fact
    f = SampledFunction(np.arange(len(values), dtype=float), values)
    swings = swing_count_loop(f.values)
    red = extrema_reduce(f)
    if np.all(f.values == f.values[0]):
        assert swings == 0 and len(red) == 2
    else:
        assert len(red) - 1 == swings
