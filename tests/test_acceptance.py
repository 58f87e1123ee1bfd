"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Tolerances and budgets are pinned here.  Two constants differ from naive
expectations and are deliberate (see notes in the repository history):

* The K-functional sandwich is certified as lower/2 <= upper <= 5*lower with
  lower = t*v_p(M, f).  The constant 1/2 is forced by |h(b)-h(a)| <= 2*sup|h|
  and is attained by explicit competitors, so the raw inequality
  lower <= upper is falsifiable (random competitors reach ratios ~0.54).

* Witness growth certificates are verified by exact selection evaluation on
  the materialized grid plus dynamic-programming cross-checks (full-window DP
  whenever the O(m*n) budget allows, replica-prefix DP always); running the
  full DP at every certified index would need ~1e13 operations for the k = 3
  block of the (x^2, p=1, log) family.
"""

import time

import numpy as np
import pytest

from pvarlab import (
    LambdaSequence,
    ModulusOfVariation,
    OmegaLog,
    OmegaPower,
    PhiSequence,
    SampledFunction,
    coeff_decay_report,
    corollary_criteria,
    dual_harmonic_estimate,
    embedding_criterion,
    exp_orlicz,
    fejer_kernel_integral,
    fejer_mean,
    fourier_coeffs,
    lorentz_norm,
    marcinkiewicz_norm,
    modular_norm,
    orlicz_norm,
    pl_interpolate,
    power_orlicz,
    pvariation_bruteforce,
    pvariation_dp,
    pvariation_profile,
    q_sequence,
    rearrange,
    sine_integral_lower,
    theta,
    unif2_verdicts,
    varp_pl,
    vpnu_norm,
    witness_generate,
    wu_bound_check,
)
from pvarlab.functions import make_random, make_square_wave, make_zigzag
from pvarlab.kfunctional import bracket_count, kfunctional_bounds
from pvarlab.cli import main

SEED = 987654321


def _report(name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_dp_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst = 0.0
    cases = 0
    for _ in range(520):
        f = make_random(rng, int(rng.integers(4, 14)))
        n = int(rng.integers(1, 6))
        for p in (1.0, 1.5, 2.0, 3.0):
            bf, _ = pvariation_bruteforce(f, p, n)
            dp, _ = pvariation_dp(f, p, n)
            worst = max(worst, abs(bf - dp) / (1.0 + bf))
            cases += 1
    elapsed = time.perf_counter() - t0
    _report(
        "dp-oracle-equivalence",
        worst <= 1e-12 and elapsed < 60.0 and cases >= 2000,
        f"{cases} cases, worst gap {worst:.3e}, {elapsed:.1f}s",
    )


def test_holder_chain():
    rng = np.random.default_rng(SEED + 1)
    violations = 0
    cases = 0
    for _ in range(520):
        f = make_random(rng, int(rng.integers(4, 14)))
        n = int(rng.integers(1, 6))
        u1, _ = pvariation_dp(f, 1.0, n)
        for p in (1.5, 2.0, 3.0):
            up, _ = pvariation_dp(f, p, n)
            if up > u1 + 1e-12 or u1 > up * n ** (1.0 - 1.0 / p) + 1e-12:
                violations += 1
            cases += 1
    _report("holder-chain", violations == 0, f"{cases} cases, {violations} violations")


def test_kfunctional_sandwich():
    rng = np.random.default_rng(SEED + 2)
    fs = [make_zigzag(5), make_zigzag(9),
          SampledFunction(np.linspace(0, 1, 33), np.sin(9 * np.linspace(0, 1, 33)))]
    fs += [make_random(rng, int(rng.integers(5, 40))) for _ in range(47)]
    ts = [1.0, 0.77, 0.5, 0.33, 0.25, 0.17, 0.11, 0.06]
    min_ratio, max_ratio = np.inf, -np.inf
    cert_ok = True
    for f in fs:
        for t in ts:
            p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
            try:
                ks = kfunctional_bounds(f, t, p)  # raises on pVarEst/LInfEst failure
            except RuntimeError:
                cert_ok = False
                continue
            if ks.lower > 0:
                min_ratio = min(min_ratio, ks.ratio)
                max_ratio = max(max_ratio, ks.ratio)
    comp_ok = True
    f = make_random(rng, 31)
    for t in (0.9, 0.41, 0.13):
        p = 2.0
        M = bracket_count(t, p)
        prof = pvariation_profile(f, p, M)
        lower = t * prof[M - 1]
        for _ in range(200):
            idx = np.unique(np.concatenate([[0, 30], rng.choice(31, int(rng.integers(2, 10)))]))
            g = pl_interpolate(f, idx)
            cost = float(np.max(np.abs(f.values - g(f.grid)))) + t * varp_pl(g, p)
            if cost < 0.5 * lower - 1e-10:
                comp_ok = False
    ok = cert_ok and comp_ok and max_ratio <= 5.0 + 1e-9 and min_ratio >= 0.5 - 1e-9
    _report(
        "kfunctional-sandwich",
        ok,
        f"ratio in [{min_ratio:.4f}, {max_ratio:.4f}] (certified [0.5, 5]), "
        f"approximant certificates {'ok' if cert_ok else 'FAILED'}, "
        f"competitors {'ok' if comp_ok else 'FAILED'}",
    )


def test_q_weight_bounds():
    t0 = time.perf_counter()
    ks = np.arange(1, 1_000_001, dtype=np.float64)
    ok = True
    worst = 0.0
    for p in (1.0, 1.5, 2.0, 4.0):
        q = q_sequence(p, ks)
        hi_gap = float(np.max(q) - 2.0 ** (-1.0 / p))
        lo_gap = float((1.0 - 1.0 / p) - np.min(q))
        inc = float(np.max(np.diff(q)))
        worst = max(worst, hi_gap, lo_gap, inc)
        ok = ok and hi_gap <= 1e-12 and lo_gap <= 1e-12 and inc <= 1e-12
    elapsed = time.perf_counter() - t0
    _report("q-weight-bounds", ok and elapsed < 5.0, f"worst excess {worst:.2e}, {elapsed:.2f}s")


def test_sine_integral_matrix():
    cases = []
    rng = np.random.default_rng(SEED + 3)
    while len(cases) < 25:  # wide branch: 2a < b
        a = int(rng.integers(1, 20))
        b = a + int(rng.integers(a + 1, a + 40))
        cases.append((a, b, int(rng.integers(1, 4)) * b))
    while len(cases) < 50:  # narrow branch: 2a >= b
        a = int(rng.integers(2, 40))
        b = a + int(rng.integers(1, a + 1))
        cases.append((a, b, int(rng.integers(1, 4)) * b))
    worst = np.inf
    for a, b, n in cases:
        lhs, rhs = sine_integral_lower(a, b, n)
        worst = min(worst, lhs - rhs)
    _report("sine-integral", worst >= -1e-12, f"50 cases, min(lhs-rhs) = {worst:.3e}")


def test_theta_bracket_sweep():
    families = [
        (OmegaLog(), ModulusOfVariation.power(0.25), 2.0),
        (OmegaLog(), ModulusOfVariation.power(0.5), 1.0),
        (OmegaLog(), ModulusOfVariation.log(), 1.0),
        (OmegaPower(0.2), ModulusOfVariation.power(0.25), 2.0),
        (OmegaPower(1 / 3), ModulusOfVariation.power(1 / 8), 2.0),
        (OmegaPower(0.5), ModulusOfVariation.power(0.25), 2.0),
    ]
    worst = 0.0
    checked = 0
    for om, nu, p in families:
        for n in range(2, 1025):
            th = theta(nu, om, p, n)
            w = om(1.0 / n)
            if th < n - 1:
                worst = max(worst, nu.value(th + 1) / (th + 1) ** (1.0 / p) - w)
                checked += 1
            if th >= 2:
                worst = max(worst, w - nu.value(th) / th ** (1.0 / p))
                checked += 1
    _report("theta-bracket", worst <= 1e-12, f"{checked} bracket sides, worst excess {worst:.2e}")


def test_unif2_agreement():
    ok = True
    sandwich_ok = True
    for nu in (ModulusOfVariation.power(1 / 8), ModulusOfVariation.power(1 / 4),
               ModulusOfVariation.power(1 / 2), ModulusOfVariation.log()):
        for p in (1.0, 2.0):
            rep = unif2_verdicts(nu, p, 100_000)
            ok = ok and rep.agree
            for h in (64, 1_000, 50_000, 100_000):
                lo, up = dual_harmonic_estimate(nu, p, h)
                sandwich_ok = sandwich_ok and lo <= up + 1e-12
    _report("unif2-verdicts", ok and sandwich_ok,
            f"verdict agreement {'ok' if ok else 'FAILED'}, "
            f"dual sandwich {'ok' if sandwich_ok else 'FAILED'}")


def test_fejer_identities():
    worst = 0.0
    for n in range(0, 51):
        worst = max(worst, abs(fejer_kernel_integral(n) - np.pi))
    nu = ModulusOfVariation.power(0.5)
    contraction = 0.0
    for f in (make_square_wave(256), make_square_wave(512), make_zigzag_periodic()):
        c = fourier_coeffs(f, 24)
        for n in (8, 24):
            fn = SampledFunction(f.grid, fejer_mean(c, n, f.grid), periodic=True,
                                 period=f.period)
            vf, _ = vpnu_norm(f, nu, 2.0, 16)
            vfn, _ = vpnu_norm(fn, nu, 2.0, 16)
            if vf > 0:
                contraction = max(contraction, vfn / vf)
    _report("fejer-identities", worst <= 1e-8 and contraction <= 1.05,
            f"kernel gap {worst:.2e}, contraction factor {contraction:.4f}")


def make_zigzag_periodic():
    g = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    return SampledFunction(g, np.where(np.arange(64) % 2 == 0, 0.0, 1.0),
                           periodic=True, period=2 * np.pi)


def test_embedding_consistency():
    lam = LambdaSequence.harmonic()
    nu = ModulusOfVariation.power(0.5)
    gap = 0.0
    for case, kw in [("BVq", {"q": 2.0}),
                     ("Salem", {"phi": power_orlicz(2.0)}),
                     ("LambdaBV", {"lam": lam}),
                     ("WatermanShiba", {"lam": lam, "q": 2.0}),
                     ("PhiLambda", {"lam": lam, "phi": exp_orlicz()})]:
        rep = corollary_criteria(case, nu, 2.0, 4096, **kw)
        gap = max(gap, rep.crosscheck_gap or 0.0)
    known = corollary_criteria("BVq", nu, 1.0, 4096, q=2.0)
    trace_one = bool(np.allclose(known.trace, 1.0, atol=1e-12))
    fails = embedding_criterion(PhiSequence.power_all(2.0), ModulusOfVariation.log(),
                                1.0, 100_000)
    ok = gap <= 1e-9 and known.verdict == "Embeds" and trace_one and fails.verdict == "Fails"
    _report("embedding-consistency", ok,
            f"max crosscheck gap {gap:.2e}, known answers "
            f"({known.verdict}, trace==1: {trace_one}; {fails.verdict})")


def test_witness_soundness():
    t0 = time.perf_counter()
    w = witness_generate(PhiSequence.power_all(2.0), ModulusOfVariation.log(), 1.0, 3)
    elapsed = time.perf_counter() - t0
    ok = w is not None and w.certified
    detail = f"elapsed {elapsed:.1f}s"
    if w is not None:
        ratios = {c.k: c.ratio for c in w.certificates}
        dp_ok = all(c.prefix_dp_ok for c in w.certificates)
        dp_full = [c.k for c in w.certificates if c.window_dp_ran]
        ok = (
            ok
            and all(ratios[k] >= 2.0 ** k for k in (1, 2, 3))
            and w.varphi_total <= 2.0
            and dp_ok
            and elapsed < 120.0
        )
        detail = (
            f"ratios {ratios[1]:.2f}/{ratios[2]:.2f}/{ratios[3]:.2f} vs 2/4/8, "
            f"varphi {w.varphi_total:.4f} <= 2, prefix-DP ok, full-window DP at k={dp_full}, "
            f"{len(w.function)} points, {elapsed:.1f}s"
        )
    _report("witness-soundness", ok, detail)


def test_wu_inequality():
    rng = np.random.default_rng(SEED + 4)
    kinds = [
        PhiSequence.power_all(2.0),
        PhiSequence.orlicz_all(exp_orlicz()),
        PhiSequence.orlicz_over_lambda(power_orlicz(2.0), LambdaSequence.harmonic()),
        PhiSequence.custom([lambda x, j=j: x ** 2 / (j + 1) for j in range(12)]),
    ]
    violations = 0
    cases = 0
    for Phi in kinds:
        for _ in range(300):
            n = int(rng.integers(1, 12))
            x = np.sort(rng.uniform(0, 2, n))[::-1]
            budget = sum(float(Phi.phi(j + 1, v)) for j, v in enumerate(x)) * \
                float(rng.uniform(1.0, 2.0)) + 1e-12
            p = float(rng.choice([1.5, 2.0, 3.0]))
            _, _, holds = wu_bound_check(Phi, x, p, budget)
            violations += 0 if holds else 1
            cases += 1
    _report("wu-inequality", violations == 0, f"{cases} instances, {violations} violations")


def test_norm_batteries():
    rng = np.random.default_rng(SEED + 5)
    nu = ModulusOfVariation.power(0.5)
    w = 1.0 / np.arange(1, 40, dtype=np.float64)
    Phi = PhiSequence.orlicz_over_lambda(power_orlicz(2.0), LambdaSequence.harmonic())
    norms = {
        "marcinkiewicz": lambda v: marcinkiewicz_norm(v, nu, 2.0),
        "lorentz": lambda v: lorentz_norm(v, w, 1.0),
        "orlicz": lambda v: orlicz_norm(v, power_orlicz(2.0)),
        "modular": lambda v: modular_norm(v, Phi),
    }
    worst = 0.0
    for name, norm in norms.items():
        for _ in range(200):
            n = int(rng.integers(1, 14))
            x = rng.uniform(-2, 2, n)
            y = rng.uniform(-2, 2, n)
            perm = rng.permutation(x) * rng.choice([-1.0, 1.0], n)
            worst = max(worst, abs(norm(perm) - norm(x)))
            worst = max(worst, norm(x + y) - norm(x) - norm(y))
            xs, ys = rearrange(x), rearrange(y)
            worst = max(worst, norm(np.minimum(xs, ys)) - norm(xs))
    fund_ok = True
    for n in (1, 4, 9, 64, 256):
        got = marcinkiewicz_norm(np.ones(n), nu, 1.0)
        if abs(got - n / nu.value(n)) > 1e-12 * (1 + got):
            fund_ok = False
    decay = coeff_decay_report(make_square_wave(1024), ModulusOfVariation.log(), 1.0, 256)
    ok = worst <= 1e-9 and fund_ok and np.isfinite(decay)
    _report("norm-batteries", ok,
            f"worst axiom excess {worst:.2e}, fundamental formula "
            f"{'exact' if fund_ok else 'FAILED'}, square-wave decay sup {decay:.4f}")


def test_verify_determinism(tmp_path):
    paths = [tmp_path / "r1.txt", tmp_path / "r2.txt"]
    codes = [main(["verify", "--seed", "424242", "--out", str(path)]) for path in paths]
    same = paths[0].read_bytes() == paths[1].read_bytes()
    _report("verify-determinism", codes == [0, 0] and same,
            f"exit codes {codes}, reports identical: {same}")
