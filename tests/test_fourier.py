import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from pvarlab import (
    ModulusOfVariation,
    OmegaLog,
    OmegaPower,
    SampledFunction,
    coeff_decay_report,
    convergence_sequences,
    epsilon_p_table,
    fejer_kernel,
    fejer_mean,
    fourier_coeffs,
    modulus_of_continuity,
    nikolskii_bound_check,
    partial_sum,
    q_sequence,
    sine_integral_lower,
    theta,
    unif2_verdicts,
)
from pvarlab import verify as inv
from pvarlab.functions import make_sawtooth, make_sine, make_square_wave

from oracles import fourier_coeffs_loop, trig_sum_loop

TWO_PI = 2 * np.pi
DATA = pathlib.Path(__file__).parent / "data"


def _uniform(values):
    g = np.linspace(0, TWO_PI, len(values), endpoint=False)
    return SampledFunction(g, values, periodic=True, period=TWO_PI)


# -- coefficients, partial sums, Fejer ---------------------------------------

def test_cosine_coefficients():
    g = np.linspace(0, TWO_PI, 256, endpoint=False)
    c = fourier_coeffs(_uniform(np.cos(g)), 3)
    assert c.a == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)
    assert c.b == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)


def test_sin_2x_coefficients():
    g = np.linspace(0, TWO_PI, 256, endpoint=False)
    c = fourier_coeffs(_uniform(np.sin(2 * g)), 4)
    assert c.b[1] == pytest.approx(1.0, abs=1e-12)
    assert abs(c.b[0]) + abs(c.b[2]) + abs(c.b[3]) + float(np.max(np.abs(c.a))) < 1e-12


def test_square_wave_coefficients_match_integrals():
    # b_n = (1 - cos(n pi)) / (n pi); a_0/2 = 1/2
    sq = make_square_wave(8192)
    c = fourier_coeffs(sq, 8)
    assert c.a0 / 2 == pytest.approx(0.5, abs=1e-3)
    assert c.b[0] == pytest.approx(2 / math.pi, abs=1e-3)
    assert c.b[1] == pytest.approx(0.0, abs=1e-3)
    assert c.b[2] == pytest.approx(2 / (3 * math.pi), abs=1e-3)


def test_aliasing_guard():
    with pytest.raises(ValueError):
        fourier_coeffs(make_square_wave(64), 32)


def test_parseval_band_limited(rng):
    g = np.linspace(0, TWO_PI, 512, endpoint=False)
    vals = np.zeros_like(g)
    coefs = rng.uniform(-1, 1, 6)
    for k in range(1, 4):
        vals += coefs[k - 1] * np.cos(k * g) + coefs[k + 2] * np.sin(k * g)
    c = fourier_coeffs(_uniform(vals), 8)
    energy_grid = float(np.mean(vals ** 2)) * 2.0
    energy_coeff = c.a0 ** 2 / 2 + float(np.sum(c.a ** 2 + c.b ** 2))
    assert energy_coeff == pytest.approx(energy_grid, rel=1e-6)


def test_partial_sum_reproduces_polynomials():
    g = np.linspace(0, TWO_PI, 128, endpoint=False)
    c = fourier_coeffs(_uniform(np.cos(g)), 5)
    xs = np.linspace(0, TWO_PI, 50)
    assert partial_sum(c, 3, xs) == pytest.approx(np.cos(xs), abs=1e-12)
    assert partial_sum(c, 0, xs) == pytest.approx(np.zeros(50), abs=1e-12)


def test_square_wave_partial_sum_at_pi_half():
    # Oracle: direct summation of the closed-form coefficients
    # S_9(pi/2) = 1/2 + (2/pi) * (1 - 1/3 + 1/5 - 1/7 + 1/9)
    expected = 0.5 + (2 / math.pi) * sum((-1) ** j / (2 * j + 1) for j in range(5))
    sq = make_square_wave(8192)
    c = fourier_coeffs(sq, 9)
    got = partial_sum(c, 9, np.array([math.pi / 2]))[0]
    assert got == pytest.approx(expected, abs=1e-3)
    assert expected == pytest.approx(1.0315269845, abs=1e-9)


def test_fejer_mean_weights():
    g = np.linspace(0, TWO_PI, 128, endpoint=False)
    c = fourier_coeffs(_uniform(np.cos(g)), 4)
    xs = np.linspace(0, TWO_PI, 40)
    assert fejer_mean(c, 2, xs) == pytest.approx((2 / 3) * np.cos(xs), abs=1e-12)
    const = fourier_coeffs(_uniform(np.full(128, 1.5)), 4)
    assert fejer_mean(const, 3, xs) == pytest.approx(np.full(40, 1.5), abs=1e-12)


def test_fejer_kernel_values_and_integral():
    assert fejer_kernel(0, 0.7) == pytest.approx(0.5, abs=1e-12)
    assert fejer_kernel(3, 0.0) == pytest.approx(2.0, abs=1e-12)
    # the trapezoid rule is exact for K_n; adaptive quadrature missed by 6e-6 at n = 700
    assert np.all(inv.fejer_kernel_gaps((0, 1, 5, 10, 300, 700, 2000, 10_000)) <= 1e-11)


def test_fejer_contraction_on_samples():
    fs = (make_square_wave(256), make_square_wave(512))
    cases = [(f, 32, n) for f in fs for n in (4, 16, 32)]
    assert np.all(inv.fejer_contraction(cases) <= 1.05)


def _random_period_grid(rng, m, duplicated, offset):
    """m samples of one 2 pi period from g0, optionally with g0 + 2 pi appended."""
    g0 = rng.uniform(-7.0, 7.0) if offset else 0.0
    g = np.linspace(g0, g0 + TWO_PI, m + 1)
    v = rng.uniform(-1, 1, m + 1) * 10.0 ** rng.uniform(-2, 2)
    v[-1] = v[0]
    return (g, v) if duplicated else (g[:-1], v[:-1])


GRID_CASES = pytest.mark.parametrize(
    "duplicated,offset", [(False, False), (False, True), (True, False), (True, True)],
    ids=["from-0", "offset", "endpoint-from-0", "endpoint-offset"])


@GRID_CASES
def test_coefficients_match_the_rectangle_rule_loop(rng, duplicated, offset):
    for m in (8, 9, 10, 63, 64, 257, 1000, 1024):
        g, v = _random_period_grid(rng, m, duplicated, offset)
        N = (m - 1) // 2
        c = fourier_coeffs(SampledFunction(g, v, periodic=True, period=TWO_PI), N)
        a, b = fourier_coeffs_loop(g[:m], v[:m], N)
        scale = 1.0 + float(np.max(np.abs(v)))
        assert np.max(np.abs(c.a - a)) <= 1e-12 * scale
        assert np.max(np.abs(c.b - b)) <= 1e-12 * scale
        assert c.a0 == (2.0 / m) * np.sum(v[:m])


@GRID_CASES
def test_grid_sums_match_the_direct_sum(rng, duplicated, offset, monkeypatch):
    irfft_calls = []
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a: irfft_calls.append(1) or irfft(*a))
    for m in (8, 9, 64, 257, 1024):
        g, v = _random_period_grid(rng, m, duplicated, offset)
        N = (m - 1) // 2
        c = fourier_coeffs(SampledFunction(g, v, periodic=True, period=TWO_PI), N)
        scale = 1.0 + float(np.max(np.abs(v)))
        for n in sorted({0, 1, N // 2, m // 2 - 1}):
            cesaro = 1.0 - np.arange(1, n + 1) / (n + 1.0)
            for got, weights in ((partial_sum(c, n, g), np.ones(n)),
                                 (fejer_mean(c, n, g), cesaro)):
                assert got.shape == g.shape
                assert np.max(np.abs(got - trig_sum_loop(c, n, g, weights))) <= 1e-12 * scale
    assert irfft_calls  # the grid went through the transform


def test_scattered_points_take_the_direct_sum(rng, monkeypatch):
    monkeypatch.setattr(np.fft, "irfft", None)  # any transform call would fail
    g, v = _random_period_grid(rng, 128, False, True)
    c = fourier_coeffs(SampledFunction(g, v, periodic=True, period=TWO_PI), 20)
    cesaro = 1.0 - np.arange(1, 21) / 21.0
    for x in (np.sort(rng.uniform(0, TWO_PI, 300)), np.array([math.pi / 2]),
              np.linspace(0, math.pi, 64), g[:100], rng.uniform(-9, 9, (3, 4))):
        assert np.array_equal(partial_sum(c, 20, x), trig_sum_loop(c, 20, x, np.ones(20)))
        assert np.array_equal(fejer_mean(c, 20, x), trig_sum_loop(c, 20, x, cesaro))
    # a period grid of only 2n + 1 points cannot carry n harmonics
    few = np.linspace(0, TWO_PI, 41, endpoint=False)
    assert np.array_equal(partial_sum(c, 20, few), trig_sum_loop(c, 20, few, np.ones(20)))


def test_coefficients_need_a_grid_over_one_period():
    half = np.linspace(0, math.pi, 64, endpoint=False)
    with pytest.raises(ValueError, match="one period"):
        fourier_coeffs(SampledFunction(half, np.cos(half), periodic=True, period=TWO_PI), 8)
    c = fourier_coeffs(make_square_wave(64), 8)
    with pytest.raises(ValueError):
        partial_sum(c, -1, [0.0])
    with pytest.raises(ValueError):
        fejer_mean(c, 9, [0.0])


# -- modulus of continuity ----------------------------------------------------

def test_moc_linear_non_periodic():
    f = SampledFunction(np.linspace(0, 1, 5), np.linspace(0, 1, 5))
    assert modulus_of_continuity(f, 0.25) == pytest.approx(0.25, abs=1e-12)
    assert modulus_of_continuity(f, 0.0) == 0.0


def test_moc_sawtooth_wrap_jump():
    f = make_sawtooth(64)
    assert modulus_of_continuity(f, 0.25) >= 0.25  # wrap jump included


def test_moc_constant_and_sine():
    c = SampledFunction([0.0, 1.0, 2.0], [1.0, 1.0, 1.0], periodic=True, period=4.0)
    assert modulus_of_continuity(c, 1.0) == 0.0
    assert modulus_of_continuity(make_sine(512), math.pi) == pytest.approx(2.0, abs=1e-3)


# -- theta and the criterion sequences ----------------------------------------

def test_theta_n2_only_candidate():
    assert theta(ModulusOfVariation.power(0.25), OmegaPower(0.5), 2.0, 2) == 1


def test_theta_exhaustive_scan_oracle():
    nu, om, p, n = ModulusOfVariation.power(0.25), OmegaPower(0.5), 2.0, 16
    w = om(1.0 / n)
    best_r, best = None, np.inf
    for r in range(1, n):
        obj = w * sum(1.0 / k for k in range(1, r + 1)) + sum(
            nu.value(k) / k ** (1 + 1 / p) for k in range(r + 1, n)
        )
        if obj < best - 1e-15:
            best, best_r = obj, r
    th = theta(nu, om, p, n)
    assert th == best_r
    assert np.all(inv.theta_bracket_excess([(nu, om, p)], [n]) <= 1e-12)


def test_theta_large_omega_forces_one():
    huge = lambda d: 5.0 if d > 0 else 0.0
    assert theta(ModulusOfVariation.power(0.25), huge, 2.0, 64) == 1


def test_sequences_n2_empty_tails():
    nu, om = ModulusOfVariation.power(0.25), OmegaPower(0.5)
    s = convergence_sequences(nu, om, 2.0, 2)
    w = om(0.5)
    for v in (s.rho, s.sigma, s.tau, s.eta):
        assert v == pytest.approx(w, abs=1e-15)


def test_sequences_decrease_for_convergent_family():
    nu, om, p = ModulusOfVariation.power(1 / 8), OmegaPower(1 / 3), 2.0
    rows = [convergence_sequences(nu, om, p, n) for n in (8, 64, 512)]
    for attr in ("rho", "sigma", "tau", "eta"):
        vals = [getattr(r, attr) for r in rows]
        assert vals[0] > vals[1] > vals[2]


@pytest.mark.parametrize("nu,p", [
    (ModulusOfVariation.power(0.25), 2.0),
    (ModulusOfVariation.log(), 1.0),
    (ModulusOfVariation.power(1 / 8), 4.0),
])
def test_tau_eta_reconciliation(nu, p):
    om = OmegaLog()
    for n in (5, 17, 129, 1000):
        s = convergence_sequences(nu, om, p, n)
        expected = nu.value(n - 1) / n ** (1 / p) - nu.value(s.theta) / (s.theta + 1) ** (1 / p)
        assert s.tau - s.eta == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
def test_q_sequence_bounds_and_monotone(p):
    # the bounds and monotonicity up to k = 10^6: test_acceptance::test_q_weight_bounds
    assert q_sequence(p, [1.0])[0] == pytest.approx(2.0 ** (-1.0 / p), abs=1e-14)


def test_equivalence_inequalities_finite_n():
    # (milad) sandwich and the epsilon-harmonic tail bound at finite n
    nu, p, om = ModulusOfVariation.power(0.25), 2.0, OmegaLog()
    for n in (64, 512, 4096):
        s = convergence_sequences(nu, om, p, n)
        th = s.theta
        ks = np.arange(th + 1, n, dtype=np.float64)
        if ks.size == 0:
            continue
        nut = nu.value(ks.astype(int))
        tail = nut / ks ** (1 + 1 / p)
        q = q_sequence(p, ks)
        weighted = float(np.sum(tail * q))
        total = float(np.sum(tail))
        assert (1 - 1 / p) * total <= weighted + 1e-12
        assert weighted <= 2.0 ** (-1 / p) * total + 1e-12
        eps = epsilon_p_table(nu, p, n - 1)[th:]
        lhs = float(np.sum(eps / ks))
        rhs = nu.value(n - 1) / (n - 1) ** (1 / p) + total
        assert lhs <= rhs + 1e-12
        # reverse direction with a recorded empirical constant
        rev = nu.value(th) / (th + 1) ** (1 / p) + lhs
        assert total <= 4.0 * rev


# -- series battery ------------------------------------------------------------

def test_unif2_power_families():
    rep = unif2_verdicts(ModulusOfVariation.power(0.25), 2.0, 10_000)
    assert all(rep.converges.values())
    rep2 = unif2_verdicts(ModulusOfVariation.power(0.5), 2.0, 10_000)
    assert not any(rep2.converges.values())


def test_unif2_log_golden_partial():
    rep = unif2_verdicts(ModulusOfVariation.log(), 1.0, 10_000)
    assert all(rep.converges.values())
    # frozen from the first verified run of sum_{k<=1e4} log(k+1)/k^2
    assert rep.partials["nu_tail"] == pytest.approx(1.799734063019002, abs=1e-9)


def test_unif2_table_is_undecided():
    # a finite table cannot show a limit: no verdict, but the partials stay
    nu = ModulusOfVariation.from_table(np.sqrt(np.arange(1, 2001, dtype=float)))
    rep = unif2_verdicts(nu, 2.0, 2000)
    assert rep.method == "undecided"
    assert list(rep.converges.values()) == [None] * 5
    assert rep.partials.keys() == rep.half_partials.keys() == rep.converges.keys()
    assert all(math.isfinite(v) for v in [*rep.partials.values(), *rep.half_partials.values()])


def test_unif2_rejects_small_horizon():
    with pytest.raises(ValueError):
        unif2_verdicts(ModulusOfVariation.log(), 1.0, 8)


def test_unif2_caps_the_horizon():
    with pytest.raises(ValueError, match="horizon must be <="):
        unif2_verdicts(ModulusOfVariation.log(), 1.0, 2 ** 20 + 1)


# -- decay, sine integral, partial-sum bound ----------------------------------

def test_coeff_decay_examples():
    nu = ModulusOfVariation.log()
    sq = make_square_wave(2048)
    val = coeff_decay_report(sq, nu, 1.0, 64)
    assert np.isfinite(val)
    # |b_n| ~ 2/(pi n) so the ratio peaks at n = 1: (2/pi)/log(2)
    assert val == pytest.approx((2 / math.pi) / math.log(2), abs=1e-2)
    g = np.linspace(0, TWO_PI, 256, endpoint=False)
    cosf = SampledFunction(g, np.cos(g), periodic=True, period=TWO_PI)
    assert coeff_decay_report(cosf, nu, 2.0, 16) == pytest.approx(1 / math.log(2), abs=1e-9)
    const = SampledFunction(g, np.full(256, 2.0), periodic=True, period=TWO_PI)
    assert coeff_decay_report(const, nu, 2.0, 16) == pytest.approx(0.0, abs=1e-12)


def test_sine_integral_examples():
    lhs, rhs = sine_integral_lower(1, 2, 4)
    assert rhs == pytest.approx(0.125, abs=1e-15)
    cases = [(1, 2, 4), (2, 3, 6), (1, 100, 200), (5, 9, 11), (10, 13, 40)]
    assert np.all(inv.sine_integral_excess(cases) <= 0.0)
    with pytest.raises(ValueError):
        sine_integral_lower(3, 2, 5)
    # ln(b/a)/2 - (Ci(2 b pi) - Ci(2 a pi))/2, evaluated once at 40 digits
    closed = {(1, 2): 0.3383515789727594, (1, 40): 1.833167311149602,
              (3, 300): 2.3012005544122456, (7, 5000): 3.285383842860606,
              (1, 100_000): 5.745182401613207}
    for (a, b), exact in closed.items():
        assert abs(sine_integral_lower(a, b, 1)[0] - exact) <= 1e-13 * exact


def test_nikolskii_bound():
    nu = ModulusOfVariation.log()
    g = np.linspace(0, TWO_PI, 512, endpoint=False)
    cosf = SampledFunction(g, np.cos(g), periodic=True, period=TWO_PI)
    err, bound = nikolskii_bound_check(cosf, nu, OmegaPower(1.0), 1.0, 8)
    assert err <= 1e-12 and bound > 0
    sq = make_square_wave(2048)
    ratios = []
    for n in (8, 16, 32, 64):
        err, bound = nikolskii_bound_check(sq, nu, lambda d: modulus_of_continuity(sq, d), 1.0, n)
        ratios.append(err / bound)
    assert max(ratios) < 2.0


def test_verify_runs_on_numpy_alone():
    # a None entry in sys.modules makes every scipy import fail
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from pvarlab.cli import main\n"
            "sys.exit(main(['verify', '--seed', '7']))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (DATA / "verify_seed7.txt").read_text()
