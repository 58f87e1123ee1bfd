import math

import numpy as np
import pytest

from oracles import luxemburg_column
from pvarlab import (
    LambdaSequence,
    ModulusOfVariation,
    PhiSequence,
    SampledFunction,
    dual_harmonic_estimate,
    epsilon_p_table,
    exp_orlicz,
    lorentz_norm,
    marcinkiewicz_norm,
    modular_norm,
    modular_norms,
    orlicz_norm,
    orlicz_norms,
    power_orlicz,
    pvariation_profile,
    rearrange,
)
from pvarlab import verify as inv

NU_SQRT = ModulusOfVariation.power(0.5)
NU_LOG = ModulusOfVariation.log()
HARMONIC_W = 1.0 / np.arange(1, 64, dtype=np.float64)


def test_rearrange_examples():
    assert rearrange([3, -1, 2]).tolist() == [3.0, 2.0, 1.0]
    assert rearrange([5.0, 4.0, 1.0]).tolist() == [5.0, 4.0, 1.0]
    assert rearrange(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]


def test_marcinkiewicz_examples(rng):
    assert marcinkiewicz_norm([1, 0, 0], NU_SQRT, 2.0) == pytest.approx(1.0, abs=1e-12)
    eps = epsilon_p_table(NU_SQRT, 2.0, 32)
    assert marcinkiewicz_norm(eps, NU_SQRT, 2.0) == pytest.approx(1.0, abs=1e-12)
    # brute-force the sup over n
    x = rng.uniform(-2, 2, 9)
    xs = rearrange(x)
    brute = max(
        float(np.sum(xs[:n] ** 2) ** 0.5) / NU_SQRT.value(n) for n in range(1, 10)
    )
    assert marcinkiewicz_norm(x, NU_SQRT, 2.0) == pytest.approx(brute, abs=1e-12)


def test_lorentz_examples():
    assert lorentz_norm([1, 0, 0], HARMONIC_W, 2.0) == pytest.approx(1.0, abs=1e-12)
    assert lorentz_norm([3, 1, 2], [1, 0.5, 1 / 3], 1.0) == pytest.approx(13 / 3, abs=1e-12)
    assert lorentz_norm([1, 1], [1, 0.5], 1.0) == pytest.approx(1.5, abs=1e-12)
    with pytest.raises(ValueError):
        lorentz_norm([1, 1], [0.5, 1.0], 1.0)


def test_orlicz_examples():
    assert orlicz_norm([3, 4], power_orlicz(2.0)) == pytest.approx(5.0, rel=1e-10)
    assert orlicz_norm([1.0], exp_orlicz()) == pytest.approx(1 / math.log(2), rel=1e-10)
    assert orlicz_norm([1, 1], power_orlicz(3.0)) == pytest.approx(2 ** (1 / 3), rel=1e-10)
    assert orlicz_norm(np.zeros(5), power_orlicz(2.0)) == 0.0


def test_modular_examples():
    Phi_sq = PhiSequence.power_all(2.0)
    x = [0.3, -1.2, 0.8]
    assert modular_norm(x, Phi_sq) == pytest.approx(orlicz_norm(x, power_orlicz(2.0)), rel=1e-9)
    Phi_lam = PhiSequence.orlicz_over_lambda(power_orlicz(2.0), LambdaSequence.harmonic())
    assert modular_norm([1, 1], Phi_lam) == pytest.approx(math.sqrt(1.5), rel=1e-10)
    assert modular_norm([1, 0], PhiSequence.power_all(2.0)) == pytest.approx(1.0, rel=1e-10)
    Phi_custom = PhiSequence.custom([lambda u: u ** 2] * 3)  # evaluated one phi_j at a time
    assert modular_norm(x, Phi_custom) == pytest.approx(modular_norm(x, Phi_sq), rel=1e-15)


@pytest.mark.parametrize("s", [1e-300, 1e-150, 1.0, 1e150, 1e300])
def test_luxemburg_norms_across_magnitudes(s):
    for a, b, c in ((3.0, 4.0, 5.0), (5.0, 12.0, 13.0)):
        x = np.array([a, b]) * s
        assert abs(orlicz_norm(x, power_orlicz(2.0)) / (c * s) - 1.0) <= 1e-15
        assert abs(modular_norm(x, PhiSequence.power_all(2.0)) / (c * s) - 1.0) <= 1e-15


@pytest.mark.parametrize("s, value", [(1e300, "0x1.d749a4c1c2042p+995"),
                                      (1e-300, "0x1.a6bbf7d57ece2p-998")])
def test_luxemburg_norm_far_from_one_gallops(s, value):
    phi = power_orlicz(2.0)
    calls = []
    fn = phi._fn
    phi._fn = lambda u: calls.append(1) or fn(u)
    assert orlicz_norm(np.array([0.3, 0.5, 0.2]) * s, phi) == float.fromhex(value)
    assert len(calls) <= 100


_LUXEMBURG = [(orlicz_norms, orlicz_norm, g)
              for g in (power_orlicz(2.0), power_orlicz(3.0), exp_orlicz())] + [
    (modular_norms, modular_norm, Phi)
    for Phi in (PhiSequence.power_all(2.0), PhiSequence.orlicz_all(exp_orlicz()),
                PhiSequence.orlicz_over_lambda(power_orlicz(2.0), LambdaSequence.harmonic()),
                PhiSequence.custom([lambda u, j=j: u ** 2 / (1.0 + 0.1 * j) for j in range(20)]))]


@pytest.mark.parametrize("norms, norm, gauge", _LUXEMBURG,
                         ids=[f"{n.__name__}-{g.name}" for n, _, g in _LUXEMBURG])
def test_batched_norms_bit_identical(norms, norm, gauge, rng):
    def draw(n, s):
        x = rng.uniform(-1, 1, n) * s
        x[rng.random(n) < 0.25] = 0.0
        return x

    def hexes(values):
        return [float(v).hex() for v in values]

    # lengths 0..20 straddle numpy's 8-element pairwise block; the extreme
    # scales, whose brackets take about 1000 steps, form a batch of their own
    seqs = [draw(n, 10.0 ** rng.uniform(-3, 3)) for n in range(21)] + [[], np.zeros(3)]
    extreme = [draw(n, s) for n in (3, 17) for s in (1e-300, 1e300)]
    phi_j = gauge.phi if norms is modular_norms else (lambda js, u: gauge(u))
    for batch in (extreme, seqs):
        single = hexes(norm(x, gauge) for x in batch)
        supports = (xs[xs > 0] for xs in map(rearrange, batch))
        assert single == hexes(luxemburg_column(xs, phi_j) for xs in supports)
        assert hexes(norms(batch, gauge)) == single
    assert single[-2:] == hexes([0.0, 0.0])
    perm = rng.permutation(len(seqs))
    assert hexes(norms([seqs[i] for i in perm], gauge)) == [single[i] for i in perm]


@pytest.mark.parametrize("norm", inv.SEQUENCE_NORMS)
def test_norm_axioms(norm, rng):
    cases = []
    for _ in range(50):
        n = int(rng.integers(1, 14))
        x = rng.uniform(-2, 2, n)
        y = rng.uniform(-2, 2, n)
        cases.append((x, y, rng.permutation(x) * rng.choice([-1.0, 1.0], n)))
    # symmetry, triangle inequality, monotone in the rearrangement
    assert np.all(inv.norm_axiom_excess(norm, cases) <= [1e-10, 1e-9, 1e-10])


def test_space_coincidence_with_pvariation(rng):
    # sup over interval selections of the Marcinkiewicz norm of the difference
    # vector equals max_n v_p(n, f)/nu(n)
    p = 2.0
    for _ in range(10):
        vals = rng.uniform(-1, 1, 8)
        f = SampledFunction(np.arange(8.0), vals)
        m = 8
        best = 0.0

        def recurse(start, chosen):
            nonlocal best
            if chosen:
                best = max(best, marcinkiewicz_norm(np.asarray(chosen), NU_SQRT, p))
            if len(chosen) >= 5:
                return
            for i in range(start, m - 1):
                for j in range(i + 1, m):
                    chosen.append(abs(vals[j] - vals[i]))
                    recurse(j, chosen)
                    chosen.pop()

        recurse(0, [])
        prof = pvariation_profile(f, p, 5)
        via_dp = float(np.max(prof / NU_SQRT.table(5)))
        assert best == pytest.approx(via_dp, abs=1e-10)


def test_fundamental_sequences():
    # the norm of the n-term indicator; Marcinkiewicz has the closed form n^(1/p)/nu(n)
    assert marcinkiewicz_norm(np.ones(1), NU_SQRT, 1.0) == pytest.approx(1.0)
    assert marcinkiewicz_norm(np.ones(9), NU_SQRT, 1.0) == pytest.approx(3.0)
    assert lorentz_norm(np.ones(3), [1, 0.5, 1 / 3], 1.0) == pytest.approx(11 / 6)
    # Orlicz indicator: c with n*phi(1/c) = 1
    assert orlicz_norm(np.ones(4), power_orlicz(2.0)) == pytest.approx(2.0, rel=1e-9)
    # modular ties to the partial inverse
    assert modular_norm(np.ones(4), PhiSequence.power_all(2.0)) == pytest.approx(2.0, rel=1e-9)


def test_dual_harmonic_estimates():
    lower, upper = dual_harmonic_estimate(NU_SQRT, 2.0, 1)
    assert lower == pytest.approx(1.0) and upper == pytest.approx(1.0)
    lower, upper = dual_harmonic_estimate(NU_SQRT, 2.0, 10_000)
    assert upper / lower < 1.5  # both behave like the harmonic series
    cases = [(NU_SQRT, 2.0, 10_000)] + [(NU_LOG, 2.0, h) for h in (16, 64, 1024)]
    assert np.max(inv.dual_gaps(cases)) <= 1e-12
    assert inv.dual_gaps([(NU_LOG, 1.0, 10_000)])[0] <= 0.0
