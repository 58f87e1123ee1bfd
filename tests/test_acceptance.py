"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Each criterion is computed by its one function in ``pvarlab.verify``; this
module draws the cases and pins the tolerances and budgets.  Two constants
differ from naive expectations and are deliberate (see notes in the
repository history):

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

from pvarlab import (
    LambdaSequence,
    ModulusOfVariation,
    OmegaLog,
    OmegaPower,
    PhiSequence,
    SampledFunction,
    coeff_decay_report,
    exp_orlicz,
    power_orlicz,
    witness_generate,
)
from pvarlab import embeddings
from pvarlab import verify as inv
from pvarlab.functions import make_random, make_square_wave, make_zigzag

SEED = 987654321


def _report(name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_dp_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    cases = []
    for _ in range(520):
        f = make_random(rng, int(rng.integers(4, 14)))
        n = int(rng.integers(1, 6))
        cases += [(f, p, n) for p in (1.0, 1.5, 2.0, 3.0)]
    worst = float(np.max(inv.dp_oracle_gaps(cases)))
    elapsed = time.perf_counter() - t0
    _report(
        "dp-oracle-equivalence",
        worst <= 1e-12 and elapsed < 60.0 and len(cases) >= 2000,
        f"{len(cases)} cases, worst gap {worst:.3e}, {elapsed:.1f}s",
    )


def test_holder_chain():
    rng = np.random.default_rng(SEED + 1)
    cases = []
    for _ in range(520):
        f = make_random(rng, int(rng.integers(4, 14)))
        n = int(rng.integers(1, 6))
        cases += [(f, p, n) for p in (1.5, 2.0, 3.0)]
    violations = int(np.sum(inv.holder_chain_excess(cases) > 1e-12))
    _report("holder-chain", violations == 0, f"{len(cases)} cases, {violations} violations")


def test_kfunctional_sandwich():
    rng = np.random.default_rng(SEED + 2)
    fs = [make_zigzag(5), make_zigzag(9),
          SampledFunction(np.linspace(0, 1, 33), np.sin(9 * np.linspace(0, 1, 33)))]
    fs += [make_random(rng, int(rng.integers(5, 40))) for _ in range(47)]
    ts = [1.0, 0.77, 0.5, 0.33, 0.25, 0.17, 0.11, 0.06]
    ratios = inv.kfunctional_ratios(
        [(f, t, float(rng.choice([1.0, 1.5, 2.0, 3.0]))) for f in fs for t in ts])
    cert_ok = not np.any(np.isinf(ratios))
    ratios = ratios[np.isfinite(ratios)]
    min_ratio, max_ratio = np.min(ratios, initial=np.inf), np.max(ratios, initial=-np.inf)
    f = make_random(rng, 31)
    knot_sets = {t: [np.unique(np.concatenate([[0, 30], rng.choice(31, int(rng.integers(2, 10)))]))
                     for _ in range(200)] for t in (0.9, 0.41, 0.13)}
    comp_ok = bool(np.max(inv.competitor_excess(
        [(f, t, 2.0, idxs) for t, idxs in knot_sets.items()])) <= 1e-10)
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
    worst = float(np.max(inv.q_bound_excess((1.0, 1.5, 2.0, 4.0), 1_000_000)))
    elapsed = time.perf_counter() - t0
    _report("q-weight-bounds", worst <= 1e-12 and elapsed < 5.0,
            f"worst excess {worst:.2e}, {elapsed:.2f}s")


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
    worst = -float(np.max(inv.sine_integral_excess(cases)))
    _report("sine-integral", worst >= -1e-12, f"50 cases, min(lhs-rhs) = {worst:.3e}")


def test_theta_bracket_sweep():
    families = [
        (ModulusOfVariation.power(0.25), OmegaLog(), 2.0),
        (ModulusOfVariation.power(0.5), OmegaLog(), 1.0),
        (ModulusOfVariation.log(), OmegaLog(), 1.0),
        (ModulusOfVariation.power(0.25), OmegaPower(0.2), 2.0),
        (ModulusOfVariation.power(1 / 8), OmegaPower(1 / 3), 2.0),
        (ModulusOfVariation.power(0.25), OmegaPower(0.5), 2.0),
    ]
    sides = inv.theta_bracket_excess(families, range(2, 1025))
    worst = float(np.max(sides, initial=0.0))
    _report("theta-bracket", worst <= 1e-12,
            f"{sides.size} bracket sides, worst excess {worst:.2e}")


def test_unif2_dual_sandwich():
    nus = (ModulusOfVariation.power(1 / 8), ModulusOfVariation.power(1 / 4),
           ModulusOfVariation.power(1 / 2), ModulusOfVariation.log())
    sandwich_ok = bool(np.max(inv.dual_gaps(
        [(nu, p, h) for nu in nus for p in (1.0, 2.0) for h in (64, 1_000, 50_000, 100_000)]))
        <= 1e-12)
    _report("unif2-dual", sandwich_ok, f"dual sandwich {'ok' if sandwich_ok else 'FAILED'}")


def test_fejer_identities():
    worst = float(np.max(inv.fejer_kernel_gaps(range(0, 51))))
    contraction = float(np.max(inv.fejer_contraction(
        [(f, 24, n) for f in (make_square_wave(256), make_square_wave(512),
                              make_zigzag_periodic()) for n in (8, 24)]), initial=0.0))
    _report("fejer-identities", worst <= 1e-8 and contraction <= 1.05,
            f"kernel gap {worst:.2e}, contraction factor {contraction:.4f}")


def make_zigzag_periodic():
    g = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    return SampledFunction(g, np.where(np.arange(64) % 2 == 0, 0.0, 1.0),
                           periodic=True, period=2 * np.pi)


def test_embedding_consistency():
    lam = LambdaSequence.harmonic()
    gap = float(np.max(inv.crosscheck_gaps(
        [("BVq", {"q": 2.0}),
         ("Salem", {"phi": power_orlicz(2.0)}),
         ("LambdaBV", {"lam": lam}),
         ("WatermanShiba", {"lam": lam, "q": 2.0}),
         ("PhiLambda", {"lam": lam, "phi": exp_orlicz()})],
        ModulusOfVariation.power(0.5), 2.0, 4096), initial=0.0))
    excess, (known, fails) = inv.known_embedding_answers()
    trace_one = bool(np.max(excess) <= 1e-12)
    ok = gap <= 1e-9 and trace_one
    _report("embedding-consistency", ok,
            f"max crosscheck gap {gap:.2e}, known answers "
            f"({known}, trace==1: {trace_one}; {fails})")


def test_witness_soundness(monkeypatch):
    t0 = time.perf_counter()
    w = witness_generate(PhiSequence.power_all(2.0), ModulusOfVariation.log(), 1.0, 3)
    elapsed = time.perf_counter() - t0
    ok = w is not None and w.certified
    detail = f"elapsed {elapsed:.1f}s"
    if w is not None:
        monkeypatch.setattr(embeddings, "_MAX_JSON_POINTS", 0)  # the point count, not the grid
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
            f"{w.to_json_dict()['function']['points']} points, "
            f"{elapsed:.1f}s"
        )
    _report("witness-soundness", ok, detail)


def test_wu_inequality():
    rng = np.random.default_rng(SEED + 4)
    kinds = [
        PhiSequence.power_all(2.0),
        PhiSequence.orlicz_all(exp_orlicz()),
        PhiSequence.orlicz_over_lambda(power_orlicz(2.0), LambdaSequence.harmonic()),
        PhiSequence.orlicz_over_lambda(power_orlicz(3.0), LambdaSequence.power(0.5)),
    ]
    cases = [(Phi, np.sort(rng.uniform(0, 2, int(rng.integers(1, 12))))[::-1],
              float(rng.uniform(1.0, 2.0)), float(rng.choice([1.5, 2.0, 3.0])))
             for Phi in kinds for _ in range(300)]
    violations = int(np.sum(inv.wu_ratios(
        [(Phi, x, p, factor) for Phi, x, factor, p in cases], 1e-12) > 1.0 + 1e-12))
    _report("wu-inequality", violations == 0, f"{len(cases)} instances, {violations} violations")


def test_norm_batteries():
    rng = np.random.default_rng(SEED + 5)
    worst = 0.0
    for norm in inv.SEQUENCE_NORMS:
        cases = []
        for _ in range(200):
            n = int(rng.integers(1, 14))
            x = rng.uniform(-2, 2, n)
            y = rng.uniform(-2, 2, n)
            cases.append((x, y, rng.permutation(x) * rng.choice([-1.0, 1.0], n)))
        worst = max(worst, float(np.max(inv.norm_axiom_excess(norm, cases))))
    nu = ModulusOfVariation.power(0.5)
    fund_ok = bool(np.max(inv.fundamental_excess(nu, 1.0, (1, 4, 9, 64, 256))) <= 1e-12)
    decay = coeff_decay_report(make_square_wave(1024), ModulusOfVariation.log(), 1.0, 256)
    ok = worst <= 1e-9 and fund_ok and np.isfinite(decay)
    _report("norm-batteries", ok,
            f"worst axiom excess {worst:.2e}, fundamental formula "
            f"{'exact' if fund_ok else 'FAILED'}, square-wave decay sup {decay:.4f}")


def test_verify_determinism(verify_seed7_pair):
    codes, paths = verify_seed7_pair
    same = paths[0].read_bytes() == paths[1].read_bytes()
    _report("verify-determinism", codes == [0, 0] and same,
            f"exit codes {codes}, reports identical: {same}")
