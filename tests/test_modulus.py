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
    assert rep.ratio_vanishes and rep.nondecreasing and rep.concave
    assert rep.nu_p_quasiconcave


def test_identity_rejected_for_p_one():
    # nu(k)/k is constant, never decreasing to zero
    with pytest.raises(ValueError):
        validate_modulus("power:1", p=1.0)


def test_table_boundary_concavity_accepted():
    rep = validate_modulus([1.0, 1.5, 1.8, 2.1], p=1.0)
    assert rep.concave and rep.nondecreasing


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
    (ModulusOfVariation.power(0.25), 2.0),
    (ModulusOfVariation.power(0.5), 1.0),
    (ModulusOfVariation.log(), 1.0),
    (ModulusOfVariation.log(), 2.0),
])
def test_epsilon_telescoping(nu, p):
    assert np.max(inv.epsilon_excess([(nu, p)], 50_000)) <= 1e-12


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
    rep = validate_modulus("log", p=1.0)
    assert rep.ratio_nonincreasing
    rep2 = validate_modulus([1.0, 1.4, 1.7, 1.9], p=1.0)
    assert rep2.nondecreasing


def test_ratio_eventually_strictly_decreasing():
    # when eps_p is nonincreasing and the ratio tends to zero, the ratio has
    # no infinite plateau: it decreases strictly from some index on
    for nu, p in [(ModulusOfVariation.power(0.25), 2.0), (ModulusOfVariation.log(), 1.0)]:
        n = 10_000
        ks = np.arange(1, n + 1, dtype=np.float64)
        ratio = nu.table(n) / ks ** (1.0 / p)
        tail = np.diff(ratio[100:])
        assert np.all(tail < 0)
