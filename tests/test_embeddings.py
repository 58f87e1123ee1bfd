import dataclasses
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import inverse_at_one_loop, whole_window_check, whole_window_dp_value
from pvarlab import (
    LambdaSequence,
    ModulusOfVariation,
    OrliczFunction,
    PhiSequence,
    SampledFunction,
    corollary_criteria,
    embedding_criterion,
    exp_orlicz,
    extrema_reduce,
    phi_partial_inverse,
    power_orlicz,
    pvariation_dp,
    var_phi,
    witness_generate,
    wu_bound_check,
    wu_bound_checks,
)
from pvarlab import _kernels, embeddings
from pvarlab import verify as inv
from pvarlab.embeddings import (
    WitnessBlock,
    _bisect_increasing,
    _certificate_objective,
    _tooth_window,
)
from pvarlab.functions import make_zigzag

NU_SQRT = ModulusOfVariation.power(0.5)
NU_LOG = ModulusOfVariation.log()


# -- gauges and inverses -------------------------------------------------------

def test_lambda_sequence_validation():
    with pytest.raises(ValueError):
        LambdaSequence.power(1.5)  # summable reciprocals
    for beta in (-0.5, math.nan):
        with pytest.raises(ValueError, match="needs 0 <= beta <= 1"):
            LambdaSequence.power(beta)
    lam = LambdaSequence.harmonic()
    assert lam.cumulative([1, 2, 3]) == pytest.approx([1.0, 1.5, 11 / 6])


@pytest.mark.parametrize("beta", [0.25, 0.5, 0.75, 0.999, 1.0])
def test_lambda_partial_sums_are_the_cumsum_then_its_tail(beta):
    big_n = embeddings._N_LAMBDA
    lam = LambdaSequence.power(beta)
    # no cached table: Lambda_N alone, as one float once read
    assert vars(lam) == {"beta": beta, "name": f"power:{beta:g}", "_lambda_big_n": None}
    terms = 1.0 / np.arange(1, 2 ** 22 + 1, dtype=np.float64) ** beta
    # up to N: the float cumsum, bit for bit, however far one call reaches
    cum = np.cumsum(terms[:big_n])
    assert lam.cumulative(np.arange(1, big_n + 1)).tobytes() == cum.tobytes()
    for n in (1, 7, 5000, big_n):
        assert lam.cumulative(n) == cum[n - 1]
        assert lam.cumulative([n, 2 ** 30])[0] == cum[n - 1]
    # past N: the Euler-Maclaurin tail, within 4 ulps of the exact sum of its terms
    tail_terms = terms[big_n:].tolist()
    ns = np.array([big_n + 1, big_n + 1000, 2 * big_n + 3, 2 ** 20 + 5, 2 ** 22])
    lam_n = lam.cumulative(ns)
    for n, value in zip(ns, lam_n):
        exact = math.fsum(tail_terms[:n - big_n])
        assert abs((value - cum[-1]) - exact) <= 4 * np.spacing(value), n
    assert np.all(np.diff(lam_n) > 0)
    assert vars(lam)["_lambda_big_n"] == cum[-1] and type(vars(lam)["_lambda_big_n"]) is float


@pytest.mark.parametrize("beta", [0.5, 1.0])
def test_lambda_partial_sums_past_the_prefix_sum_it_once(beta):
    # n all past N read the kept Lambda_N: the same floats as the first call,
    # which summed the prefix, and no term is evaluated again
    ns = np.array([embeddings._N_LAMBDA + 1, 3 * embeddings._N_LAMBDA, 2 ** 34])
    lam = LambdaSequence.power(beta)
    first = lam.cumulative(ns)
    calls = []
    lam.value = lambda j: calls.append(j) or LambdaSequence.value(lam, j)
    assert lam.cumulative(ns).tobytes() == first.tobytes()
    assert lam.cumulative(ns[1]) == first[1]
    assert calls == []
    assert lam.cumulative([1, ns[0]]).tobytes() == np.array([1.0, first[0]]).tobytes()
    assert len(calls) == 1


def test_lambda_partial_sums_at_beta_0_are_n():
    lam = LambdaSequence.power(0.0)
    ns = np.array([1, 2, 5000, embeddings._N_LAMBDA + 1, 2 ** 34])
    assert lam.cumulative(ns).tobytes() == ns.astype(np.float64).tobytes()


def test_phi_sequence_validation():
    with pytest.raises(ValueError):
        PhiSequence.power_all(0.5)
    for q in (math.inf, math.nan):
        with pytest.raises(ValueError, match="q must be finite and >= 1"):
            PhiSequence.power_all(q)
        with pytest.raises(ValueError, match="q must be finite and >= 1"):
            power_orlicz(q)
    with pytest.raises(ValueError, match="midpoint convexity"):
        PhiSequence.orlicz_all(OrliczFunction("sqrt", np.sqrt, np.square))  # concave
    # increasing in j is rejected: weights lambda_j = 1/j that decrease
    shrinking = types.SimpleNamespace(name="shrinking", value=lambda j: 1.0 / np.asarray(j))
    with pytest.raises(ValueError, match="must not exceed phi_j"):
        PhiSequence.orlicz_over_lambda(power_orlicz(2.0), shrinking)


def test_phi_sequences_are_a_gauge_over_weights():
    lam = LambdaSequence.harmonic()
    cases = [(PhiSequence.power_all(2.0), 2.0), (PhiSequence.orlicz_all(power_orlicz(3.0)), 3.0),
             (PhiSequence.orlicz_all(exp_orlicz()), None),
             (PhiSequence.orlicz_over_lambda(power_orlicz(2.0), lam), None)]
    for Phi, q in cases:
        assert not hasattr(Phi, "kind") and not hasattr(Phi, "q")
        assert Phi.power_q == q  # every phi_j is x^q, or None
    x = np.array([0.5, 2.0])
    Phi = PhiSequence.orlicz_over_lambda(exp_orlicz(), lam)
    assert Phi.partial(3, x).tobytes() == (lam.cumulative(3) * np.expm1(x)).tobytes()
    assert Phi.phi(3, x).tobytes() == (np.expm1(x) / 3.0).tobytes()


def test_phi_partial_inverse_closed_forms():
    assert phi_partial_inverse(PhiSequence.power_all(2.0), 4, 1.0) == pytest.approx(0.5, rel=1e-11)
    lam = LambdaSequence.harmonic()
    Phi = PhiSequence.orlicz_over_lambda(power_orlicz(2.0), lam)
    assert phi_partial_inverse(Phi, 2, 1.0) == pytest.approx(math.sqrt(2 / 3), rel=1e-11)
    Phe = PhiSequence.orlicz_all(exp_orlicz())
    assert phi_partial_inverse(Phe, 1, 1.0) == pytest.approx(math.log(2), rel=1e-11)
    assert phi_partial_inverse(Phe, 3, 0.0) == 0.0
    with pytest.raises(ValueError):
        phi_partial_inverse(Phe, 1, -1.0)


@pytest.mark.parametrize("n", [1, 7, 1000])
def test_phi_partial_inverse_across_magnitudes(n):
    Phi = PhiSequence.power_all(2.0)
    ys = 10.0 ** np.arange(-300, 301, 25)
    xs = phi_partial_inverse(Phi, n, ys)
    for x, y in zip(xs, ys):
        assert abs(x / math.sqrt(y / n) - 1.0) <= 1e-15
        assert phi_partial_inverse(Phi, n, y) == x  # one target at a time, same float
    ms = np.unique(np.geomspace(1, n, 12).astype(int))
    assert np.array_equal(phi_partial_inverse(Phi, ms, 1.0),
                          [phi_partial_inverse(Phi, int(m), 1.0) for m in ms])


@pytest.mark.parametrize("Phi", [
    PhiSequence.power_all(2.5),
    PhiSequence.orlicz_all(exp_orlicz()),
    PhiSequence.orlicz_over_lambda(power_orlicz(3.0), LambdaSequence.harmonic()),
    PhiSequence.orlicz_over_lambda(power_orlicz(2.5), LambdaSequence.harmonic()),
], ids=["power", "orlicz", "orlicz-over-lambda", "harmonic-power2.5"])
def test_partial_over_arrays_is_the_scalar_calls(Phi, rng):
    ns = rng.integers(1, 13, 300)
    xs = 10.0 ** rng.uniform(-6.0, 2.0, 300)
    scalar = [float(Phi.partial(int(n), x)).hex() for n, x in zip(ns, xs)]
    for batch_ns in (ns, ns.astype(np.float64)):  # the inverse passes float n
        assert [float(v).hex() for v in Phi.partial(batch_ns, xs)] == scalar


@pytest.mark.parametrize("Phi", [
    PhiSequence.power_all(1.0),
    PhiSequence.power_all(2.0),
    PhiSequence.orlicz_all(exp_orlicz()),
    PhiSequence.orlicz_over_lambda(power_orlicz(3.0), LambdaSequence.harmonic()),
    PhiSequence.orlicz_over_lambda(power_orlicz(2.0), LambdaSequence.power(0.5)),
], ids=["power1", "power2", "exp", "harmonic-power3", "lambda0.5-power2"])
def test_inverse_table_matches_the_120_halving_oracle(Phi):
    table = Phi.inverse_at_one_table(100_000)
    assert table.tobytes() == inverse_at_one_loop(Phi, 1, 100_000).tobytes()


@pytest.mark.parametrize("Phi", [
    PhiSequence.power_all(2.0),
    PhiSequence.orlicz_all(exp_orlicz()),
    PhiSequence.orlicz_over_lambda(power_orlicz(3.0), LambdaSequence.harmonic()),
])
def test_inverse_roundtrip(Phi):
    cases = [(Phi, n, y) for n in (1, 13, 257, 10_000) for y in (0.25, 1.0, 9.0)]
    assert np.max(inv.phi_inverse_roundtrip(cases)) <= 1e-10


def test_concave_inverse_scaling(rng):
    Phi = PhiSequence.orlicz_all(exp_orlicz())
    for _ in range(60):
        n = int(rng.integers(1, 200))
        x = float(rng.uniform(0.01, 5.0))
        alpha = float(rng.uniform(0.01, 8.0))
        lhs = phi_partial_inverse(Phi, n, alpha * x)
        rhs = (1.0 + alpha) * phi_partial_inverse(Phi, n, x)
        assert lhs <= rhs * (1 + 1e-9)


SEEDED_FAMILIES = [
    PhiSequence.power_all(1.0),
    PhiSequence.power_all(1.5),
    PhiSequence.power_all(2.0),
    PhiSequence.power_all(3.0),
    PhiSequence.orlicz_all(exp_orlicz()),
    PhiSequence.orlicz_over_lambda(power_orlicz(3.0), LambdaSequence.harmonic()),
    PhiSequence.orlicz_over_lambda(power_orlicz(2.0), LambdaSequence.power(0.5)),
]
SEEDED_IDS = ["power1", "power1.5", "power2", "power3", "exp", "harmonic-power3",
              "lambda0.5-power2"]


@settings(max_examples=150, deadline=None)
@given(family=st.integers(0, len(SEEDED_FAMILIES) - 1),
       ns=st.lists(st.integers(1, 100_000), min_size=1, max_size=8),
       exponent=st.floats(-250.0, 250.0))
def test_seeded_bisection_is_the_unseeded_one(family, ns, exponent):
    Phi = SEEDED_FAMILIES[family]
    ns = np.array(ns, dtype=np.float64)
    ys = 10.0 ** (exponent + np.linspace(0.0, 1.0, ns.size))
    assert Phi.closed_inverse(ns, ys) is not None
    seeded = phi_partial_inverse(Phi, ns, ys)
    unseeded = _bisect_increasing(lambda x: Phi.partial(ns, x), ys)
    assert seeded.tobytes() == unseeded.tobytes()


@pytest.mark.parametrize("Phi", SEEDED_FAMILIES, ids=SEEDED_IDS)
def test_bad_seeds_cost_steps_not_bits(Phi, rng):
    ns = rng.integers(1, 100_000, 40).astype(np.float64)
    ys = 10.0 ** rng.uniform(-250.0, 250.0, 40)
    fn = lambda x: Phi.partial(ns, x)  # noqa: E731
    root = phi_partial_inverse(Phi, ns, ys)
    with np.errstate(over="ignore"):
        seeds = [root * 1e6, root * 1e-6, np.zeros(40), np.full(40, np.nan), np.full(40, np.inf)]
    seeds.append(np.where(np.arange(40) % 2 == 0, root, np.nan))  # good and bad mixed
    for seed in seeds:
        assert _bisect_increasing(fn, ys, seed).tobytes() == root.tobytes()


def test_closed_inverse_at_one_is_the_scan_formula():
    ks = np.arange(1, 5001, dtype=np.float64)
    lam = LambdaSequence.harmonic()
    cases = [
        (PhiSequence.power_all(2.5), ks ** (-1.0 / 2.5)),
        (PhiSequence.orlicz_all(exp_orlicz()), np.log1p(1.0 / ks)),
        (PhiSequence.orlicz_over_lambda(power_orlicz(3.0), lam),
         (1.0 / lam.cumulative(ks)) ** (1.0 / 3.0)),
    ]
    for Phi, expected in cases:
        assert Phi.closed_inverse(ks, 1.0).tobytes() == expected.tobytes()


def test_inverse_table_takes_at_most_8_evaluations():
    # every closed-form seed lies within 6 ulps of its root: the seed, 1 and
    # 17 ulps out bracket it, and four halvings close the 16-ulp bracket
    Phi = PhiSequence.power_all(2.0)
    calls = []
    gauge = Phi.gauge  # each bisection step evaluates Lambda_n * phi(x) once
    Phi.gauge = lambda x: calls.append(1) or gauge(x)
    table = Phi.inverse_at_one_table(100_000)
    assert len(calls) <= 8
    assert table.tobytes() == inverse_at_one_loop(PhiSequence.power_all(2.0), 1, 100_000).tobytes()


# -- embedding criterion ---------------------------------------------------------

@pytest.mark.parametrize("Phi", [
    PhiSequence.power_all(3.0),
    PhiSequence.orlicz_all(exp_orlicz()),
    PhiSequence.orlicz_over_lambda(power_orlicz(2.0), LambdaSequence.power(1.0)),
])
def test_inverse_table_is_kept_and_served_by_prefix(Phi):
    # every entry is bisected on its own, so each keeps its float whatever the
    # table length: a shorter table is served as a prefix of a longer one
    ref = Phi.inverse_at_one_table(5000)
    for kmax in (40, 7, 1200):
        assert Phi.inverse_at_one_table(kmax).tobytes() == ref[:kmax].tobytes()


def test_embed_witness_bisects_the_inverse_table_once(monkeypatch, tmp_path):
    from pvarlab.cli import main

    bisected = []
    table = PhiSequence.inverse_at_one_table
    monkeypatch.setattr(PhiSequence, "inverse_at_one_table",
                        lambda self, kmax: bisected.append(kmax) or table(self, kmax))
    out = tmp_path / "w.json"
    assert main(["embed", "--phi", "lambda:2", "--nu", "power:0.5", "--p", "1", "--horizon", "4096",
                 "--witness", "--k-max", "1", "--out", str(out)]) == 0
    assert bisected == [4096]


def test_bv2_into_sqrt_embeds_with_unit_trace():
    excess, (verdict, _) = inv.known_embedding_answers()
    assert verdict == "Embeds" and np.max(excess) <= 1e-12


def test_bv2_into_log_fails():
    assert inv.known_embedding_answers()[1][1] == "Fails"


def test_power_q_equals_p_embeds():
    # Phi_k^{-1}(1) = k^{-1/p} makes the trace 1/nu(n) -> 0
    rep = embedding_criterion(PhiSequence.power_all(2.0), NU_LOG, 2.0, 4096)
    assert rep.verdict == "Embeds"
    assert rep.trace[-1] == pytest.approx(1.0 / NU_LOG.value(4096), rel=1e-9)


@pytest.mark.parametrize("case,kw", [
    ("BVq", {"q": 2.0}),
    ("Salem", {"phi": power_orlicz(2.0)}),
    ("LambdaBV", {"lam": LambdaSequence.harmonic()}),
    ("WatermanShiba", {"lam": LambdaSequence.harmonic(), "q": 2.0}),
    ("PhiLambda", {"lam": LambdaSequence.harmonic(), "phi": exp_orlicz()}),
])
def test_corollary_crosscheck(case, kw):
    assert inv.crosscheck_gaps([(case, kw)], NU_SQRT, 2.0, 2048)[0] <= 1e-9


@pytest.mark.parametrize("case,kw", [
    ("LambdaBV", {"lam": LambdaSequence.power(0.5)}),
    ("WatermanShiba", {"lam": LambdaSequence.power(0.25), "q": 2.0}),
    ("PhiLambda", {"lam": LambdaSequence.harmonic(), "phi": exp_orlicz()}),
])
def test_corollary_crosscheck_past_the_cumsum_prefix(case, kw):
    # the last 2^17 of the 2^18 Lambda_n come from the tail, on both sides of the check
    assert embeddings._N_LAMBDA < 2 ** 18
    assert inv.crosscheck_gaps([(case, kw)], NU_SQRT, 2.0, 2 ** 18)[0] <= 1e-9


# (q, beta, p, alpha or None for log) where g(n)/nu(n) grows like n^e, e in
# {1/30, 1/15, 1/12}, but is still falling at horizon 100 000, so the trace
# heuristic says Embeds: phi_j = x^q / j^beta into V_p[nu].
TRACE_FLAT_BUT_FAILS = [
    (1.0, 0.75, 3.0, None), (1.0, 0.75, 3.0, 0.05), (1.0, 1.0, 1.5, 0.6), (1.0, 1.0, 3.0, 0.25),
    (1.0, 1.0, 3.0, 0.3), (1.25, 0.25, 1.5, None), (1.25, 1.0, 1.5, 0.6), (1.25, 1.0, 3.0, 0.3),
    (1.5, 1.0, 3.0, 0.3), (2.0, 0.5, 3.0, None), (2.0, 1.0, 3.0, 0.3), (3.0, 0.25, 3.0, None),
]
# c = 1/p - (1 - beta)/q is the decimal alpha, just above its float: Fails by the
# exact rule on the given floats, at a rate n^(1e-17) no trace can see.
FLOAT_ALPHA_BELOW_C = [(5.0, 0.0, 2.0, 0.3), (1.25, 0.5, 1.0, 0.6), (1.25, 0.75, 2.0, 0.3)]


def _exponent_case(q, beta, p, alpha):
    lam = LambdaSequence.power(beta)
    Phi = (PhiSequence.power_all(q) if beta == 0
           else PhiSequence.orlicz_over_lambda(power_orlicz(q), lam))
    return Phi, NU_LOG if alpha is None else ModulusOfVariation.power(alpha)


def test_exponent_rule_verdicts_against_the_trace_heuristic():
    grid = [(q, beta, p, alpha)
            for q in (1.0, 1.25, 1.5, 2.0, 3.0, 5.0) for beta in (0.0, 0.25, 0.5, 0.75, 1.0)
            for p in (1.0, 1.5, 2.0, 3.0)
            for alpha in (None, 0.05, 0.1, 0.25, 0.3, 0.5, 0.6, 0.75, 1.0)
            if alpha is None or alpha <= 1.0 / p]
    assert len(grid) == 810
    picked = np.random.default_rng(32).choice(len(grid), 200, replace=False)
    cases = sorted({grid[i] for i in picked} | set(TRACE_FLAT_BUT_FAILS) | set(FLOAT_ALPHA_BELOW_C),
                   key=lambda c: (c[:3], -1.0 if c[3] is None else c[3]))
    assert len(cases) >= 200
    flipped = []
    for q, beta, p, alpha in cases:
        Phi, nu = _exponent_case(q, beta, p, alpha)
        report = embedding_criterion(Phi, nu, p, 100_000)
        rule = embeddings._exponent_verdict(Phi, nu, p)
        heuristic = embeddings._verdict_from_trace(report.trace)
        assert rule is not None and report.verdict == rule
        if heuristic != rule:
            # the rule never clears a heuristic Fails; it settles every Inconclusive as Fails
            assert heuristic != "Fails" and rule == "Fails", (q, beta, p, alpha)
            if heuristic == "Embeds":
                flipped.append((q, beta, p, alpha))
    assert set(flipped) == set(TRACE_FLAT_BUT_FAILS) | set(FLOAT_ALPHA_BELOW_C)


@pytest.mark.parametrize("q,beta,p,alpha", TRACE_FLAT_BUT_FAILS)
def test_trace_flat_cases_grow_past_the_horizon(q, beta, p, alpha):
    # A lower bound of the trace at n = e^690: g(n) >= n^(1/p) Lambda_n^(-1/q) with
    # Lambda_n <= n^(1-beta)/(1-beta), or 1 + log n at beta = 1.
    Phi, nu = _exponent_case(q, beta, p, alpha)
    running_sup = embedding_criterion(Phi, nu, p, 100_000).running_sup
    log_n = 690.0
    log_lam = math.log1p(log_n) if beta == 1 else (1 - beta) * log_n - math.log(1 - beta)
    log_nu = math.log(log_n) if alpha is None else alpha * log_n
    assert log_n / p - log_lam / q - log_nu > math.log(1e6 * running_sup)


def test_exponent_rule_scope():
    lam = LambdaSequence.harmonic()
    exp_all = PhiSequence.orlicz_all(exp_orlicz())
    table = ModulusOfVariation.from_table(np.sqrt(np.arange(1.0, 65.0)))
    rule = embeddings._exponent_verdict
    # c = 1/p - (1 - beta)/q against alpha, exactly: c = alpha = 1/2 embeds
    assert rule(PhiSequence.power_all(2.0), NU_SQRT, 1.0) == "Embeds"
    assert rule(PhiSequence.power_all(2.0), NU_LOG, 2.0) == "Embeds"  # c = 0
    assert rule(PhiSequence.power_all(2.0), NU_LOG, 1.0) == "Fails"
    assert rule(PhiSequence.orlicz_all(power_orlicz(3.0)), NU_SQRT, 1.0) == "Fails"
    # beta = 1: n^(1/p) against nu, log n only in the denominator
    assert rule(PhiSequence.orlicz_over_lambda(power_orlicz(2.0), lam), NU_SQRT, 2.0) == "Embeds"
    assert rule(PhiSequence.orlicz_over_lambda(power_orlicz(2.0), lam), NU_LOG, 3.0) == "Fails"
    for p in (1.0, 2.0):
        assert rule(exp_all, NU_LOG, p) == "Embeds"
    # a table nu, exp over weights and any other gauge keep the trace heuristic
    assert rule(PhiSequence.power_all(2.0), table, 1.0) is None
    assert rule(exp_all, table, 1.0) is None
    assert rule(PhiSequence.orlicz_over_lambda(exp_orlicz(), lam), NU_LOG, 1.0) is None
    cosh = OrliczFunction("cosh", lambda x: np.cosh(x) - 1.0, lambda y: np.arccosh(1.0 + y))
    assert rule(PhiSequence.orlicz_all(cosh), NU_LOG, 1.0) is None


def test_corollary_criteria_caps_the_horizon():
    with pytest.raises(ValueError, match="horizon must be <="):
        corollary_criteria("BVq", NU_LOG, 1.0, 2 ** 20 + 1, q=2.0)


def test_salem_power_matches_bvq():
    a = corollary_criteria("BVq", NU_SQRT, 1.0, 512, q=2.0)
    b = corollary_criteria("Salem", NU_SQRT, 1.0, 512, phi=power_orlicz(2.0))
    assert np.allclose(a.trace, b.trace, atol=1e-12)


def test_lambda_bv_harmonic_number_trace():
    lam = LambdaSequence.harmonic()
    horizon = 256
    ks = np.arange(1, horizon + 1, dtype=float)
    nu = ModulusOfVariation.from_table(ks / np.log(ks + 2.0))  # concave over this range
    rep = corollary_criteria("LambdaBV", nu, 1.0, horizon, lam=lam)
    harm = np.cumsum(1.0 / ks)
    expected = np.maximum.accumulate(ks / harm) / nu.table(horizon)
    assert np.allclose(rep.trace, expected, atol=1e-9)


# -- Phi-variation ----------------------------------------------------------------

def test_var_phi_monotone_rise():
    f = SampledFunction([0.0, 0.5, 1.0], [0.0, 0.4, 1.0])
    Phi = PhiSequence.orlicz_over_lambda(power_orlicz(1.0), LambdaSequence.power(0.0))
    assert var_phi(f, Phi) == pytest.approx(1.0, abs=1e-12)


def test_var_phi_zigzag_weighted():
    Phi = PhiSequence.orlicz_over_lambda(power_orlicz(1.0), LambdaSequence.harmonic())
    assert var_phi(make_zigzag(5), Phi) == pytest.approx(25 / 12, abs=1e-12)


def test_var_phi_constant_and_budget():
    c = SampledFunction([0.0, 1.0], [1.0, 1.0])
    Phi = PhiSequence.power_all(2.0)
    assert var_phi(c, Phi) == 0.0
    big = SampledFunction(np.linspace(0, 1, 20), np.sin(np.linspace(0, 9, 20)))
    with pytest.raises(ValueError):
        var_phi(big, Phi)


def test_var_phi_power_specialization(rng):
    # with phi_j = x^p the Phi-variation is v_p(n, f)^p at the swing budget
    p = 2.0
    Phi = PhiSequence.power_all(p)
    for _ in range(10):
        vals = rng.uniform(-1, 1, 7)
        f = SampledFunction(np.arange(7.0), vals)
        exact = var_phi(f, Phi)
        v, _ = pvariation_dp(f, p, 6)
        assert exact == pytest.approx(v ** p, rel=1e-10)


# -- Wu bound ----------------------------------------------------------------------

def test_wu_zero_sequence():
    lhs, rhs, ok = wu_bound_check(PhiSequence.power_all(2.0), np.zeros(4), 2.0, 1.0)
    assert lhs == 0.0 and rhs > 0 and ok


def test_wu_worked_example():
    lhs, rhs, ok = wu_bound_check(PhiSequence.power_all(2.0), [0.5, 0.5], 2.0, 0.5)
    assert lhs == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert rhs == pytest.approx(16 * math.sqrt(0.5), rel=1e-9)
    assert ok


def test_wu_requires_admissible_input():
    Phi = PhiSequence.power_all(2.0)
    with pytest.raises(ValueError):
        wu_bound_check(Phi, [0.2, 0.5], 2.0, 1.0)  # increasing
    with pytest.raises(ValueError):
        wu_bound_check(Phi, [2.0, 1.0], 2.0, 0.1)  # budget violated


def _check_wu_cases(seed, monkeypatch):
    """The (Phi, x, p, factor) cases of one ``Battery.check_wu``."""
    seen = []
    monkeypatch.setattr(inv, "wu_ratios",
                        lambda cases, slack: seen.extend(cases) or np.zeros(len(cases)))
    inv.Battery(seed).check_wu()
    monkeypatch.undo()
    return seen


def test_wu_batch_is_bit_identical_to_one_case_calls(monkeypatch):
    cases = _check_wu_cases(1001, monkeypatch)
    phis = list(dict.fromkeys(Phi for Phi, _, _, _ in cases))
    assert len(phis) == 3
    for Phi in phis:
        xs = [x for P, x, _, _ in cases if P is Phi]
        budgets = [float(np.sum(Phi.phi(np.arange(1, x.size + 1), x))) * 1.5 + 1e-9 for x in xs]
        batch = wu_bound_checks(Phi, xs, 2.0, budgets)
        one = [wu_bound_check(Phi, x, 2.0, b) for x, b in zip(xs, budgets)]
        assert [(lhs.hex(), rhs.hex(), ok) for lhs, rhs, ok in batch] == \
               [(lhs.hex(), rhs.hex(), ok) for lhs, rhs, ok in one]
    assert np.all(inv.wu_ratios(cases, 1e-9) <= 1.0 + 1e-12)
    assert wu_bound_checks(phis[0], [], 2.0, []) == []


def test_wu_batch_raises_the_one_case_errors():
    Phi = PhiSequence.power_all(2.0)
    good_x, good_budget = [0.5, 0.5], 0.5
    for x, p, budget in (([0.2, 0.5], 2.0, 1.0), ([2.0, 1.0], 2.0, 0.1), ([0.5], 0.5, 1.0)):
        with pytest.raises(ValueError) as one:
            wu_bound_check(Phi, x, p, budget)
        with pytest.raises(ValueError) as batch:
            wu_bound_checks(Phi, [good_x, x, good_x], p, [good_budget, budget, good_budget])
        assert str(batch.value) == str(one.value)


def test_wu_randomized(rng):
    cases = [(Phi, np.sort(rng.uniform(0, 2, int(rng.integers(1, 10))))[::-1],
              float(rng.uniform(1.0, 3.0)), 1.0)
             for Phi in (PhiSequence.power_all(2.0), PhiSequence.orlicz_all(exp_orlicz()),
                         PhiSequence.orlicz_over_lambda(power_orlicz(2.0),
                                                        LambdaSequence.harmonic()))
             for _ in range(100)]
    assert np.all(inv.wu_ratios(cases, 1e-12) <= 1.0 + 1e-12)


# -- witness -----------------------------------------------------------------------

def test_witness_requires_failing_verdict():
    Phi = PhiSequence.power_all(2.0)
    with pytest.raises(ValueError):
        witness_generate(Phi, NU_SQRT, 1.0, 2, embedding_criterion(Phi, NU_SQRT, 1.0, 4096))
    with pytest.raises(ValueError):
        # q = p always embeds
        witness_generate(Phi, NU_LOG, 2.0, 2, embedding_criterion(Phi, NU_LOG, 2.0, 4096))


def test_witness_small_run_certified():
    w = witness_generate(PhiSequence.power_all(2.0), NU_LOG, 1.0, 1)
    assert w is not None and w.certified
    blk = w.blocks[0]
    assert blk.n > 2 ** 3 and blk.r <= min(blk.m, blk.s)
    cert = w.certificates[0]
    assert cert.ratio >= 2.0
    assert cert.prefix_dp_ok
    assert w.varphi_total <= 2.0
    # the grid really is a step function reaching the advertised height
    assert np.max(w.function.values) == pytest.approx(blk.height, abs=1e-15)
    # DP on a window confirms the certificate objective independently
    assert cert.window_dp_ran
    assert cert.window_dp_value >= cert.objective * (1 - 1e-9)
    # the window (leading zero, then (h, h, 0) per tooth) reduces to 2r + 1
    # points, and its total-variation value is the p = 1 DP value bit for bit
    hi = 1 + 3 * blk.r
    window = extrema_reduce(SampledFunction(w.function.grid[:hi], w.function.values[:hi]))
    assert len(window) == 2 * blk.r + 1
    assert blk.n >= 2 * blk.r
    prof = _kernels.dp1_profile(window.values, blk.n)  # rows 0..K, row n is row min(n, K)
    assert prof.size <= blk.n + 1 and cert.window_dp_value == prof[min(blk.n, prof.size - 1)]


def test_window_value_rejects_a_window_off_its_closed_form():
    blk = WitnessBlock(k=1, n=8, m=2, s=2, r=2, height=1.0, rate=1.0, literal=True)
    grid = np.linspace(0.0, 1.0, 7)
    good = SampledFunction(grid, [0, 1, 1, 0, 1, 1, 0])
    assert whole_window_dp_value(blk, 1.0, good) == 4.0 == _certificate_objective(blk, 1.0)[1]
    # the last tooth never comes back to zero: 4 reduced points, not 2r + 1 = 5
    bad = SampledFunction(grid, [0, 1, 1, 0, 1, 1, 1])
    with pytest.raises(RuntimeError, match="expected 5"):
        whole_window_dp_value(blk, 1.0, bad)


def test_window_value_is_the_dp_value_on_random_teeth(rng):
    for _ in range(40):
        r = int(rng.integers(1, 31))
        heights = rng.uniform(0.1, 3.0, r)
        teeth = np.stack([heights, heights, np.zeros(r)], axis=1).ravel()
        f = SampledFunction(np.linspace(0.0, 1.0, 3 * r + 1), np.concatenate([[0.0], teeth]))
        reduced = extrema_reduce(f).values
        for n in (2 * r, 2 * r + 3):
            blk = WitnessBlock(k=1, n=n, m=2, s=r, r=r, height=1.0, rate=1.0, literal=True)
            prof = _kernels.dp1_profile(reduced, n)
            ref = prof[min(n, prof.size - 1)]
            assert abs(whole_window_dp_value(blk, 1.0, f) - ref) <= 1e-12 * ref


def test_window_value_is_the_whole_window_dp_value():
    # The closed form is the DP on the built window bit for bit: r from 1 to
    # several thousand, h over 2^-40..2^40 and decimals d 10^e (d < 10^4, e in
    # -16..8), every p, n from 2r to 2r + 50.  The p > 1 DP runs 2r rows over ~4r pairs, so r past a
    # few hundred is drawn at p = 1 and in a handful of p > 1 blocks.
    rng = np.random.default_rng(25)
    blocks = []
    for i in range(2000):
        p = (1.0, 1.25, 1.5, 2.0, 3.0)[i % 5]
        top = 5000 if p == 1.0 else 300
        r = int(2.0 ** rng.uniform(0.0, math.log2(top)))
        if rng.random() < 0.5:
            h = 2.0 ** int(rng.integers(-40, 41))
        else:
            h = float(f"{int(rng.integers(1, 10_000))}e{int(rng.integers(-16, 9))}")
        blocks.append((r, h, p))
    blocks += [(r, 0.1, p) for r, p in ((2500, 1.25), (1200, 1.5), (1000, 2.0), (800, 3.0))]
    for r, h, p in blocks:
        n = 2 * r + int(rng.integers(0, 51))
        blk = WitnessBlock(k=1, n=n, m=r, s=r, r=r, height=h, rate=1.0, literal=False)
        value = _certificate_objective(blk, p)[1]
        assert value.hex() == whole_window_dp_value(blk, p).hex(), (r, h, p, n)


def test_witness_json_omits_huge_grids(monkeypatch):
    w = witness_generate(PhiSequence.power_all(2.0), NU_LOG, 1.0, 1)
    monkeypatch.setattr(embeddings, "_MAX_JSON_POINTS", 10)
    d = w.to_json_dict()
    assert d["function"].get("omitted") is True
    monkeypatch.setattr(embeddings, "_MAX_JSON_POINTS", 10 ** 9)
    d2 = w.to_json_dict()
    assert len(d2["function"]["grid"]) == len(w.function)


@pytest.mark.parametrize("Phi,nu,k_max", [
    (PhiSequence.power_all(2.0), NU_LOG, 1),
    (PhiSequence.power_all(3.0), ModulusOfVariation.power(0.1), 1),
    (PhiSequence.orlicz_over_lambda(power_orlicz(2.0), LambdaSequence.harmonic()), NU_SQRT, 2),
])
def test_witness_function_is_the_windows_certified(Phi, nu, k_max, monkeypatch):
    prefixes = {}
    prefix_dp_check = embeddings._prefix_dp_check

    def recording_prefix(window, blk, p):
        prefixes[blk.k] = window.values.copy()
        return prefix_dp_check(window, blk, p)

    monkeypatch.setattr(embeddings, "_prefix_dp_check", recording_prefix)
    w = witness_generate(Phi, nu, 1.0, k_max)
    assert sorted(prefixes) == list(range(1, k_max + 1))
    assert all(c.window_dp_ran for c in w.certificates)
    # blocks sit in decreasing k; each window's leading zero is the previous trailing zero
    start = 0
    for blk in sorted(w.blocks, key=lambda b: b.k, reverse=True):
        stop = start + 3 * blk.r + 1
        block_slice = w.function.values[start:stop]
        assert np.array_equal(block_slice, _tooth_window(blk)[1])
        # the window value's closed form: the slice reduces to 0, h, 0, ..., h, 0
        assert len(extrema_reduce(SampledFunction(w.function.grid[start:stop], block_slice))
                   ) == 2 * blk.r + 1
        # the prefix DP reads the first min(r, 40) teeth of that slice
        assert np.array_equal(prefixes[blk.k], block_slice[:1 + 3 * min(blk.r, 40)])
        start = stop - 1
    monkeypatch.setattr(embeddings, "_MAX_JSON_POINTS", 0)
    assert len(w.function) == w.to_json_dict()["function"]["points"]
    assert len(w.function) - start in (1, 2)  # the last trailing zero, then maybe (1, 0)


@pytest.mark.parametrize("p", [1.0, 1.5])
@pytest.mark.parametrize("q", [1.05, 1.5, 2.0, 3.0])
def test_power_score_closed_form_is_the_chunked_scan(q, p):
    Phi = PhiSequence.power_all(q)
    if 1.0 / p - 1.0 / q > 0:
        _assert_score_is_the_prefix_argmax(Phi, p)
    else:  # the criterion embeds, so no witness search reads a score
        assert embedding_criterion(Phi, NU_LOG, p, 1000).verdict == "Embeds"


@pytest.mark.parametrize("beta", [0.5, 1.0])
def test_power_score_over_weights_closed_form_is_the_chunked_scan(beta):
    # Lambda_(k+1)/Lambda_k <= 1 + 1/k keeps g increasing over weights
    Phi = PhiSequence.orlicz_over_lambda(power_orlicz(2.0), LambdaSequence.power(beta))
    _assert_score_is_the_prefix_argmax(Phi, 1.5)


def _assert_score_is_the_prefix_argmax(Phi, p):
    # The search reads g at n itself.  For x^q with c = 1/p - 1/q > 0 that is
    # the float at the argmax a chunked scan of g over 1..n finds: a chunk of
    # the array expression ends at n and strictly increases.  A scan of all n
    # values past 2^22 would take minutes, so there the chunk is the last 2^21.
    chunk = 1 << 21
    for n in (chunk - 1, chunk, chunk + 1, 1 << 27, embeddings._N_MAX - 1):
        ks = np.arange(1 if n <= 2 * chunk else n - chunk + 1, n + 1, dtype=np.float64)
        g = ks ** (1.0 / p) * Phi.closed_inverse(ks, 1.0)
        assert np.all(np.diff(g) > 0)
        assert embeddings._score(Phi, p, n).hex() == float(g[-1]).hex()


@pytest.mark.parametrize("q", [2.0, 3.0])
def test_orlicz_power_gives_the_power_blocks(q):
    orlicz, power = (witness_generate(Phi, NU_LOG, 1.0, 2) for Phi in (
        PhiSequence.orlicz_all(power_orlicz(q)), PhiSequence.power_all(q)))
    assert orlicz.certified and power.certified
    assert orlicz.blocks == power.blocks
    assert all(b.m == b.n for b in power.blocks)


def test_a_failed_witness_certificate_is_returned(monkeypatch, capsys):
    # a failed certificate is returned with certified False, and embed --witness
    # writes its JSON, then exits 1
    import json

    from pvarlab.cli import main

    good = witness_generate(PhiSequence.power_all(2.0), NU_LOG, 1.0, 1)
    monkeypatch.setattr(embeddings, "_prefix_dp_check", lambda window, blk, p: False)
    w = witness_generate(PhiSequence.power_all(2.0), NU_LOG, 1.0, 1)
    assert good.certified and w is not None and not w.certified
    assert [c.prefix_dp_ok for c in w.certificates] == [False]
    assert w.blocks == good.blocks and w.varphi_total == good.varphi_total
    rc = main(["embed", "--phi", "power:2", "--nu", "log", "--p", "1", "--k-max", "1",
               "--witness"])
    captured = capsys.readouterr()
    assert rc == 1 and "witness certificates failed" in captured.err
    payload = json.loads(captured.out)
    assert payload["witness"]["certified"] is False
    assert '"certified": false' in captured.out


def test_witness_block_with_colliding_teeth_is_a_grid_error(monkeypatch):
    # at n = 2^60 a tooth is narrower than the float spacing near 1/2, so its points coincide
    blk = WitnessBlock(k=1, n=1 << 60, m=8, s=8, r=8, height=0.5, rate=1.0, literal=False)
    for check in (whole_window_check, embeddings._check_window):
        with pytest.raises(ValueError, match="grid must be strictly increasing"):
            check(blk)
    monkeypatch.setattr(embeddings, "_search_block", lambda Phi, nu, p, k, cap: blk)
    with pytest.raises(ValueError, match="grid must be strictly increasing"):
        witness_generate(PhiSequence.power_all(2.0), NU_LOG, 1.0, 1)
    # a sound grid passes both checks, and a nan height is the finite-values error
    sound = WitnessBlock(k=1, n=64, m=8, s=8, r=8, height=0.5, rate=1.0, literal=False)
    for check in (whole_window_check, embeddings._check_window):
        check(sound)
        with pytest.raises(ValueError, match="grid and values must be finite"):
            check(dataclasses.replace(sound, height=math.nan))


def test_closed_form_grid_check_is_sound_against_the_whole_window():
    # seeded blocks over k 1..5 and n 2^2..2^56, up to 2 000 teeth so the oracle stays cheap
    rng = np.random.default_rng(18)
    checked = refused = 0
    while checked < 600:
        k = int(rng.integers(1, 6))
        n = int(2.0 ** rng.uniform(2, 56))
        s = int((2.0 ** (-k) * n + 1.0) // 2)
        if s < 1:
            continue
        top = min(s, 2000)
        r = top if rng.random() < 0.5 else int(rng.integers(1, top + 1))
        blk = WitnessBlock(k=k, n=n, m=r, s=s, r=r, height=float(rng.uniform(0.01, 2.0)),
                           rate=1.0, literal=False)
        checked += 1
        try:
            embeddings._check_window(blk)
        except ValueError as e:
            assert str(e) == "grid must be strictly increasing"
            assert n > embeddings._N_MAX  # no block the search can give is refused
            refused += 1
            continue
        whole_window_check(blk)  # a grid the closed form passes is a valid window
    assert 0 < refused < checked


def test_witness_builds_no_window_beyond_the_prefix(monkeypatch):
    built = []
    tooth_window = embeddings._tooth_window

    def recording(blk, *args):
        xs, vs = tooth_window(blk, *args)
        built.append((blk.k, (xs.size - 1) // 3))  # teeth in the array
        return xs, vs

    monkeypatch.setattr(embeddings, "_tooth_window", recording)
    w = witness_generate(PhiSequence.power_all(2.0), NU_LOG, 1.0, 2)
    assert all(c.window_dp_ran for c in w.certificates)
    assert min(b.r for b in w.blocks) > embeddings._PREFIX_TEETH
    assert sorted(k for k, _ in built) == [1, 2]  # one prefix per block, nothing else
    assert all(teeth <= embeddings._PREFIX_TEETH for _, teeth in built)


def test_p_above_one_witness_checks_its_whole_window():
    # one block of r = 36 179 teeth at p = 1.5: its window value, read from the
    # differences, is checked against the objective like any other
    w = witness_generate(PhiSequence.power_all(3.0), ModulusOfVariation.power(0.1), 1.5, 1)
    assert w is not None and w.certified
    assert [b.r for b in w.blocks] == [36_179]
    for cert in w.certificates:
        assert cert.window_dp_ran and cert.window_dp_value >= cert.objective * (1 - 1e-9)
    # a small p > 1 witness agrees with the DP on its built window
    Phi = PhiSequence.orlicz_over_lambda(power_orlicz(3.0), LambdaSequence.harmonic())
    w = witness_generate(Phi, ModulusOfVariation.power(0.1), 1.5, 1)
    assert w.certified and [b.r for b in w.blocks] == [101]
    assert w.certificates[0].window_dp_value == whole_window_dp_value(w.blocks[0], 1.5)


def test_witness_whose_last_tooth_ends_at_one_has_no_closing_point(monkeypatch):
    w = witness_generate(PhiSequence.power_all(3.0), ModulusOfVariation.power(0.1), 1.0, 1)
    blk = w.blocks[0]
    assert (blk.n, blk.r, blk.s) == (134, 34, 34)
    assert w.function.grid[-1] == 1.0 and w.function.values[-1] == 0.0
    assert len(w.function) == 1 + 3 * blk.r == 103
    monkeypatch.setattr(embeddings, "_MAX_JSON_POINTS", 0)
    assert w.to_json_dict()["function"] == {"points": 103, "omitted": True}


def test_witness_lambda_gauge_literal_blocks():
    # the Orlicz-over-Lambda score reaches the full 2^(4k) rate cheaply
    Phi = PhiSequence.orlicz_over_lambda(power_orlicz(2.0), LambdaSequence.harmonic())
    w = witness_generate(Phi, NU_SQRT, 1.0, 2)
    assert w is not None and w.certified
    assert all(b.literal for b in w.blocks)
    assert all(b.rate > 2.0 ** (4 * b.k) for b in w.blocks)
    ratios = {c.k: c.ratio for c in w.certificates}
    assert ratios[1] >= 2.0 and ratios[2] >= 4.0
