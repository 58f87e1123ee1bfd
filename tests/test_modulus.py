import warnings

import numpy as np
import pytest

from pvarlab import (
    ModulusOfVariation,
    epsilon_p_table,
    validate_modulus,
)
from pvarlab import verify as inv


def test_power_family_valid_for_small_alpha():
    rep = validate_modulus("power:0.25", p=2.0)
    assert rep.ratio_vanishes and rep.ratio_nonincreasing


def test_identity_rejected_for_p_one():
    # nu(k)/k is constant, never decreasing to zero
    with pytest.raises(ValueError):
        validate_modulus("power:1", p=1.0)


def test_table_boundary_concavity_accepted():
    rep = validate_modulus([1.0, 1.5, 1.8, 2.1], p=1.0)
    assert rep.ratio_nonincreasing and not rep.ratio_vanishes  # a table shows no limit


def test_table_rejections():
    with pytest.raises(ValueError):
        ModulusOfVariation.from_table([1.0, 0.5])  # decreasing
    with pytest.raises(ValueError):
        ModulusOfVariation.from_table([-1.0, 1.0])  # nonpositive
    with pytest.raises(ValueError):
        ModulusOfVariation.from_table([1.0, 1.1, 1.5])  # convex corner
    with pytest.raises(ValueError):
        ModulusOfVariation.from_table([1.0, 2.5])  # k = 1 concavity step


def test_table_not_extrapolated():
    nu = ModulusOfVariation.from_table([1.0, 1.5, 1.8])
    assert nu.value(3) == 1.8
    with pytest.raises(ValueError):
        nu.value(4)


def test_nu_zero_is_zero():
    for nu in (ModulusOfVariation.power(0.5), ModulusOfVariation.log(),
               ModulusOfVariation.from_table([1.0, 1.5])):
        assert nu.value(0) == 0.0


def test_epsilon_examples():
    assert epsilon_p_table(ModulusOfVariation.power(0.5), 2.0, 7)[6] == pytest.approx(1.0, abs=1e-12)
    assert epsilon_p_table(ModulusOfVariation.power(1 / 3), 1.0, 2)[1] == pytest.approx(
        2 ** (1 / 3) - 1, abs=1e-12
    )
    nu = ModulusOfVariation.from_table([1.0, 1.5, 1.8])
    assert epsilon_p_table(nu, 2.0, 2)[1] == pytest.approx(np.sqrt(1.25), abs=1e-12)
    with pytest.raises(ValueError, match="not extrapolated"):
        epsilon_p_table(nu, 2.0, 4)


@pytest.mark.parametrize("nu,p", [
    (ModulusOfVariation.log(), 2000.0),
    (ModulusOfVariation.log(), 3000.0),
    (ModulusOfVariation.power(0.5), 2000.0),
    (ModulusOfVariation.power(0.5), 3000.0),
])
def test_epsilon_at_large_p_stays_in_range(nu, p):
    # nu(k)^p underflows at k = 1 and overflows from small k on: those entries
    # come from the ratio nu(k-1)/nu(k), the rest from the difference of powers
    eps = epsilon_p_table(nu, p, 4096)
    nut = nu.table(4096)
    assert np.all(np.isfinite(eps)) and np.all(eps >= 0.0) and np.all(eps <= nut)
    assert eps[0] == nut[0]


def test_epsilon_at_large_p_examples():
    eps = epsilon_p_table(ModulusOfVariation.log(), 3000.0, 3)
    assert eps == pytest.approx([np.log(2.0), np.log(3.0), np.log(4.0)], rel=1e-12)
    # log(3)^3000 is in range: that entry is the difference of powers, bit for bit
    assert eps[1] == (np.log(3.0) ** 3000.0 - np.log(2.0) ** 3000.0) ** (1.0 / 3000.0)
    eps = epsilon_p_table(ModulusOfVariation.power(0.5), 2000.0, 5)
    assert eps == pytest.approx(np.sqrt(np.arange(1.0, 6.0)), rel=1e-12)


@pytest.mark.parametrize("nu,p", [
    (ModulusOfVariation.power(0.25), 2.0),
    (ModulusOfVariation.power(0.5), 1.0),
    (ModulusOfVariation.log(), 1.0),
    (ModulusOfVariation.log(), 2.0),
])
def test_epsilon_telescoping(nu, p):
    assert np.max(inv.epsilon_excess([(nu, p)], 50_000)) <= 1e-12


@pytest.mark.parametrize("nu,p,n", [
    (ModulusOfVariation.log(), 3000.0, 512),
    (ModulusOfVariation.log(), 1e5, 4096),
    (ModulusOfVariation.power(0.5), 1000.0, 4096),
])
def test_epsilon_telescoping_at_large_p(nu, p, n):
    # sum eps_p^p overflows (and its first terms underflow) in floats; the
    # telescoped root is read from log-sums there, with no warning raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        excess = inv.epsilon_excess([(nu, p)], n)
    assert np.all(np.isfinite(excess)) and np.max(excess) <= 1e-12


def test_epsilon_telescoping_in_range_keeps_the_direct_sum():
    for nu, p in inv._FAMILIES:
        eps, nut = epsilon_p_table(nu, p, 4096), nu.table(4096)
        direct = np.abs(np.cumsum(eps ** p) ** (1.0 / p) - nut) / (1.0 + nut)
        assert np.array_equal(inv.epsilon_excess([(nu, p)], 4096)[:4096], direct)


@pytest.mark.parametrize("nu,p", [
    (ModulusOfVariation.power(0.25), 2.0),
    (ModulusOfVariation.power(0.5), 1.0),
    (ModulusOfVariation.log(), 1.0),
])
def test_epsilon_ratio_equivalence(nu, p):
    # ratio nonincreasing <=> eps_p(k) <= nu(k)/k^(1/p), checked both ways
    n = 4096
    ks = np.arange(1, n + 1, dtype=np.float64)
    ratio = nu.table(n) / ks ** (1.0 / p)
    assert np.all(np.diff(ratio) <= 1e-15)  # so epsilon_excess compares eps with the ratio
    assert np.max(inv.epsilon_excess([(nu, p)], n)) <= 1e-12


def test_epsilon_nonincreasing_iff_nu_p_concave():
    # power alpha, p with alpha*p <= 1 makes nu^p concave
    nu, p = ModulusOfVariation.power(0.25), 2.0
    eps = epsilon_p_table(nu, p, 2048)
    assert np.all(np.diff(eps) <= 1e-12)
    # alpha*p > 1: nu^p convex, eps increasing
    nu2, p2 = ModulusOfVariation.power(0.9), 2.0
    eps2 = epsilon_p_table(nu2, p2, 64)
    assert np.any(np.diff(eps2) > 0)


@pytest.mark.parametrize("nu,p", [
    (ModulusOfVariation.power(0.25), 2.0),
    (ModulusOfVariation.log(), 1.0),
    (ModulusOfVariation.log(), 2.0),
])
def test_increment_bounded_by_epsilon(nu, p):
    # nu(k) - nu(k-1) stays within a bounded multiple of eps_p(k) k^(1/p - 1)
    n = 10_000
    nut = nu.table(n)
    inc = np.diff(np.concatenate(([0.0], nut)))
    eps = epsilon_p_table(nu, p, n)
    ks = np.arange(1, n + 1, dtype=np.float64)
    bound = eps * ks ** (1.0 / p - 1.0)
    ratio = inc[1:] / bound[1:]
    assert np.max(ratio) < 4.0


def test_validation_report_records_quasiconcavity():
    # nu is nondecreasing, so nu^p/k is nonincreasing exactly when nu(k)/k^(1/p) is
    for spec, p in [("log", 1.0), ("log", 2.0), ([1.0, 1.4, 1.7, 1.9], 1.0)]:
        rep = validate_modulus(spec, p=p)
        nu = rep.modulus.table(int(min(rep.modulus.max_index, 4096)))
        quasi = bool(np.all(np.diff(nu ** p / np.arange(1, nu.size + 1)) <= 1e-12))
        assert rep.ratio_nonincreasing == quasi == (p == 1.0)


@pytest.mark.parametrize("p", [200.0, 3000.0, 1e6])
@pytest.mark.parametrize("spec", ["log", [1.0, 1.5, 1.8, 2.1]])
def test_large_p_validation_forms_no_power_of_nu(spec, p):
    # nu^p overflows here; warnings are errors, so none may be raised
    assert not validate_modulus(spec, p).ratio_nonincreasing


def test_ratio_eventually_strictly_decreasing():
    # when eps_p is nonincreasing and the ratio tends to zero, the ratio has
    # no infinite plateau: it decreases strictly from some index on
    for nu, p in [(ModulusOfVariation.power(0.25), 2.0), (ModulusOfVariation.log(), 1.0)]:
        n = 10_000
        ks = np.arange(1, n + 1, dtype=np.float64)
        ratio = nu.table(n) / ks ** (1.0 / p)
        tail = np.diff(ratio[100:])
        assert np.all(tail < 0)
