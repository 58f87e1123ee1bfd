"""Deterministic invariant battery behind the ``verify`` CLI subcommand.

Each invariant is defined once, as a module-level function that takes its
cases as data and returns one excess (or ratio) per case.  ``Battery``, the
acceptance tests and the unit tests draw their own cases and reduce that
array under their own tolerance.
"""

from __future__ import annotations

import logging
import time

import numpy as np

from . import fourier, seqspaces
from .embeddings import (
    LambdaSequence,
    PhiSequence,
    corollary_criteria,
    embedding_criterion,
    exp_orlicz,
    phi_partial_inverse,
    power_orlicz,
    wu_bound_checks,
)
from .functions import make_random, make_square_wave, make_zigzag
from .kfunctional import bracket_count, kfunctional_bounds, pl_interpolate, varp_pl
from .modulus import _TINY, ModulusOfVariation, _ratio_nonincreasing, epsilon_p_table
from .sampled import SampledFunction, extrema_reduce
from .variation import pvariation_bruteforce, pvariation_profile, vpnu_norm

log = logging.getLogger("pvarlab")

_NU_SQRT = ModulusOfVariation.power(0.5)
_FAMILIES = [
    (ModulusOfVariation.power(0.25), 2.0),
    (_NU_SQRT, 1.0),
    (ModulusOfVariation.log(), 1.0),
]
_HARMONIC_W = 1.0 / np.arange(1, 40, dtype=np.float64)
_PHI_HARMONIC = PhiSequence.orlicz_over_lambda(power_orlicz(2.0), LambdaSequence.harmonic())

# The four symmetric norms whose axioms ``norm_axiom_excess`` checks, each
# mapping a list of sequences to their norms (the Luxemburg two in one bisection).
SEQUENCE_NORMS = (
    lambda vs: np.array([seqspaces.marcinkiewicz_norm(v, _NU_SQRT, 2.0) for v in vs]),
    lambda vs: np.array([seqspaces.lorentz_norm(v, _HARMONIC_W, 1.0) for v in vs]),
    lambda vs: seqspaces.orlicz_norms(vs, power_orlicz(2.0)),
    lambda vs: seqspaces.modular_norms(vs, _PHI_HARMONIC),
)


def _v(f, p, n) -> float:
    return float(pvariation_profile(f, p, n)[-1])


# -- the invariants --------------------------------------------------------------

def dp_oracle_gaps(cases) -> np.ndarray:
    """|brute force - DP| / (1 + brute force) of v_p(n, f) per case (f, p, n)."""
    def one(f, p, n):
        bf, _ = pvariation_bruteforce(f, p, n)
        return abs(bf - _v(f, p, n)) / (1.0 + bf)
    return np.array([one(*c) for c in cases])


def holder_chain_excess(cases) -> np.ndarray:
    """max(v_p - v_1, v_1 - n^(1-1/p) v_p) of v(n, f) per case (f, p, n)."""
    def one(f, p, n):
        up, u1 = _v(f, p, n), _v(f, 1.0, n)
        return max(up - u1, u1 - up * n ** (1.0 - 1.0 / p))
    return np.array([one(*c) for c in cases])


def triangle_homogeneity_excess(cases) -> np.ndarray:
    """Rows (v(f+g) - v(f) - v(g), |v(cf) - c v(f)|) per case (f, g, p, n, c), g on f's grid."""
    def one(f, g, p, n, c):
        vf, vg = _v(f, p, n), _v(g, p, n)
        vsum = _v(SampledFunction(f.grid, f.values + g.values), p, n)
        return vsum - vf - vg, abs(_v(f.scaled(c), p, n) - c * vf)
    return np.array([one(*c) for c in cases])


def extrema_reduce_gaps(cases) -> np.ndarray:
    """|v_p(n, f) - v_p(n, extrema_reduce(f))| per case (f, p, n)."""
    return np.array([abs(_v(f, p, n) - _v(extrema_reduce(f), p, n)) for f, p, n in cases])


def _telescoped(eps: np.ndarray, p: float) -> np.ndarray:
    """(sum_{j<=k} eps(j)^p)^(1/p) for every k.  Where the partial sum
    overflows or falls below the smallest normal float, the entry is read as
    exp(log(sum) / p), the log-sum from ``np.logaddexp.accumulate`` of
    p log eps(j): the per-entry rule of ``epsilon_p_table``."""
    with np.errstate(over="ignore", under="ignore"):
        sums = np.cumsum(eps ** p)
    root = sums ** (1.0 / p)
    out = ~((sums >= _TINY) & (sums < np.inf))
    if out.any():
        with np.errstate(divide="ignore"):  # log(0) = -inf: a zero term adds nothing
            root[out] = np.exp(np.logaddexp.accumulate(p * np.log(eps))[out] / p)
    return root


def epsilon_excess(families, horizon: int) -> np.ndarray:
    """Per (nu, p) and k <= horizon: the relative telescoping gap
    |(sum_{j<=k} eps_p(j)^p)^(1/p) - nu(k)| / (1 + nu(k)), then, when
    nu(k)/k^(1/p) is nonincreasing, eps_p(k) - nu(k)/k^(1/p)."""
    out = []
    ks = np.arange(1, horizon + 1, dtype=np.float64)
    for nu, p in families:
        eps, nut = epsilon_p_table(nu, p, horizon), nu.table(horizon)
        out.append(np.abs(_telescoped(eps, p) - nut) / (1.0 + nut))
        ratio = nut / ks ** (1.0 / p)
        if _ratio_nonincreasing(nu, p, ratio):
            out.append(eps - ratio)
    return np.concatenate(out)


def kfunctional_ratios(cases) -> np.ndarray:
    """upper/lower of the K-functional sandwich per case (f, t, p), certified
    in [1/2, 5]; nan where lower = 0, inf where a certificate fails."""
    def one(f, t, p):
        try:
            ks = kfunctional_bounds(f, t, p)
        except RuntimeError:
            return np.inf
        return ks.ratio if ks.lower > 0 else np.nan
    return np.array([one(*c) for c in cases])


def competitor_excess(cases) -> np.ndarray:
    """lower/2 - cost of each piecewise-linear competitor through the knot
    sets of a case (f, t, p, knot_sets), cost = sup|f - g| + t var_p(g) and
    lower = t v_p(M, f); a competitor below lower/2 breaks the sandwich."""
    out = []
    for f, t, p, knot_sets in cases:
        M = bracket_count(t, p)
        lower = t * pvariation_profile(f, p, M)[M - 1]
        for idx in knot_sets:
            g = pl_interpolate(f, idx)
            cost = float(np.max(np.abs(f.values - g(f.grid)))) + t * varp_pl(g, p)
            out.append(0.5 * lower - cost)
    return np.array(out)


def fejer_kernel_gaps(ns) -> np.ndarray:
    """|int K_n - pi| per n."""
    return np.array([abs(fourier.fejer_kernel_integral(n) - np.pi) for n in ns])


def fejer_contraction(cases) -> np.ndarray:
    """V_{2, sqrt} norm ratio ||sigma_n f|| / ||f|| per case (f, N, n),
    sigma_n from N coefficients; 0 where f is constant."""
    def one(f, N, n):
        fn = SampledFunction(f.grid, fourier.fejer_mean(fourier.fourier_coeffs(f, N), n, f.grid),
                             periodic=True, period=f.period)
        vf, _ = vpnu_norm(f, _NU_SQRT, 2.0)
        return vpnu_norm(fn, _NU_SQRT, 2.0)[0] / vf if vf > 0 else 0.0
    return np.array([one(*c) for c in cases])


def q_bound_excess(ps, horizon: int) -> np.ndarray:
    """Per p, the largest excess of Q_k, k <= horizon, over its bounds
    1 - 1/p <= Q_k <= 2^(-1/p) and over nonincreasing."""
    ks = np.arange(1, horizon + 1, dtype=np.float64)
    out = []
    for p in ps:
        q = fourier.q_sequence(p, ks)
        out.append(max(float(np.max(q) - 2.0 ** (-1.0 / p)), float((1.0 - 1.0 / p) - np.min(q)),
                       float(np.max(np.diff(q)))))
    return np.array(out)


def theta_bracket_excess(families, ns) -> np.ndarray:
    """Excess of each bracket side nu(th+1)/(th+1)^(1/p) <= omega(1/n) (th < n-1)
    and omega(1/n) <= nu(th)/th^(1/p) (th >= 2), th = theta, per (nu, omega, p) and n."""
    ns, out = list(ns), []
    for nu, om, p in families:
        ths = fourier.thetas(nu, om, p, ns)
        nus = nu.value(np.array([[th + 1, th] for th in ths], dtype=np.int64))  # every bracket end
        for n, th, (above, at) in zip(ns, ths, nus):
            w = om(1.0 / n)
            if th < n - 1:
                out.append(above / (th + 1) ** (1.0 / p) - w)
            if th >= 2:
                out.append(w - at / th ** (1.0 / p))
    return np.array(out)


def dual_gaps(cases) -> np.ndarray:
    """lower - upper of the dual harmonic estimate per case (nu, p, horizon)."""
    return np.array([np.subtract(*seqspaces.dual_harmonic_estimate(nu, p, h))
                     for nu, p, h in cases])


def sine_integral_excess(cases) -> np.ndarray:
    """rhs - lhs of the sine-integral lower bound per case (a, b, n)."""
    return np.array([rhs - lhs for lhs, rhs in (fourier.sine_integral_lower(*c) for c in cases)])


def crosscheck_gaps(cases, nu, p: float, horizon: int) -> np.ndarray:
    """Corollary-versus-generic criterion gap per case (name, keyword arguments)."""
    return np.array([corollary_criteria(name, nu, p, horizon, **kw).crosscheck_gap
                     for name, kw in cases])


def known_embedding_answers():
    """(|trace - 1| per index, verdicts) for two known answers: BV_2 into
    BV(sqrt, p = 1) Embeds with trace 1 (horizon 4096), BV_2 into BV(log, p = 1)
    Fails (horizon 100 000); the excess is inf when a verdict is wrong."""
    known = corollary_criteria("BVq", _NU_SQRT, 1.0, 4096, q=2.0)
    fails = embedding_criterion(PhiSequence.power_all(2.0), ModulusOfVariation.log(), 1.0, 100_000)
    verdicts = (known.verdict, fails.verdict)
    excess = np.abs(known.trace - 1.0)
    return (excess if verdicts == ("Embeds", "Fails") else np.full_like(excess, np.inf)), verdicts


def phi_inverse_roundtrip(cases) -> np.ndarray:
    """|Phi_n(Phi_n^{-1}(y)) - y| / y per case (Phi, n, y)."""
    return np.array([abs(float(Phi.partial(n, phi_partial_inverse(Phi, n, y))) - y) / y
                     for Phi, n, y in cases])


def wu_ratios(cases, slack: float) -> np.ndarray:
    """lhs / rhs of Wu's 16-constant bound per case (Phi, x, p, factor) with
    x nonincreasing and budget factor * sum phi_j(x_j) + slack; the bound
    holds where the ratio is at most 1 (0 where both sides are 0)."""
    budgets = [sum(float(Phi.phi(j + 1, v)) for j, v in enumerate(x)) * factor + slack
               for Phi, x, _, factor in cases]
    groups: dict[tuple, list[int]] = {}  # one batched check per (Phi, p)
    for i, (Phi, _, p, _) in enumerate(cases):
        groups.setdefault((Phi, p), []).append(i)
    out = np.zeros(len(cases))
    for (Phi, p), idx in groups.items():
        checks = wu_bound_checks(Phi, [cases[i][1] for i in idx], p, [budgets[i] for i in idx])
        out[idx] = [lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else np.inf)
                    for lhs, rhs, _ in checks]
    return out


def norm_axiom_excess(norm, cases) -> np.ndarray:
    """Rows (|N(x) - N(perm)|, N(x+y) - N(x) - N(y), N(min(x*, y*)) - N(x*)) per
    case (x, y, perm), perm a signed permutation of x and * the rearrangement;
    ``norm`` maps a list of sequences to their norms and is called once."""
    seqs = []
    for x, y, perm in cases:
        xs, ys = seqspaces.rearrange(x), seqspaces.rearrange(y)
        seqs += [x, perm, x + y, y, np.minimum(xs, ys), xs]
    nx, nperm, nsum, ny, nmin, nxs = norm(seqs).reshape(-1, 6).T
    return np.column_stack((np.abs(nx - nperm), nsum - nx - ny, nmin - nxs))


def fundamental_excess(nu, p: float, ns) -> np.ndarray:
    """|Marcinkiewicz norm of the n-term indicator - n^(1/p)/nu(n)| per n."""
    return np.array([abs(seqspaces.marcinkiewicz_norm(np.ones(n), nu, p)
                         - n ** (1.0 / p) / nu.value(n)) for n in ns])


def _worst(excess) -> float:
    """The largest excess, or 0 when none is positive: the value a report line shows."""
    return float(np.max(excess, initial=0.0))


class Battery:
    def __init__(self, seed: int):
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)
        self.rows: list[tuple[str, bool, float]] = []

    def record(self, name: str, ok: bool, value: float):
        self.rows.append((name, bool(ok), float(value)))

    def _random(self, lo: int, hi: int) -> SampledFunction:
        return make_random(self.rng, int(self.rng.integers(lo, hi)))

    # -- individual checks ---------------------------------------------------

    def check_dp_oracle(self):
        ps = [1.0, 1.5, 2.0, 3.0]
        worst = _worst(dp_oracle_gaps(
            [(self._random(4, 13), ps[i % 4], int(self.rng.integers(1, 6))) for i in range(60)]))
        self.record("dp_oracle_equivalence", worst <= 1e-12, worst)

    def check_holder_chain(self):
        worst = _worst(holder_chain_excess(
            [(self._random(4, 13), [1.5, 2.0, 3.0][i % 3], int(self.rng.integers(1, 6)))
             for i in range(40)]))
        self.record("holder_chain", worst <= 1e-10, worst)

    def check_triangle_homogeneity(self):
        data = []
        for i in range(30):
            pts = int(self.rng.integers(4, 12))
            f = make_random(self.rng, pts)
            g = SampledFunction(f.grid, self.rng.uniform(-1, 1, pts))
            data.append((f, g, [1.0, 2.0][i % 2], int(self.rng.integers(1, 5)),
                         float(self.rng.uniform(0.1, 3.0))))
        worst = _worst(triangle_homogeneity_excess(data))
        self.record("triangle_homogeneity", worst <= 1e-10, worst)

    def check_extrema_reduce(self):
        fs = [self._random(5, 13) for _ in range(30)]
        worst = _worst(extrema_reduce_gaps([(f, 2.0, n) for f in fs for n in (1, 2, 4)]))
        self.record("extrema_reduction", worst <= 1e-12, worst)

    def check_epsilon_properties(self):
        worst = _worst(epsilon_excess(_FAMILIES, 4096))
        self.record("epsilon_telescoping", worst <= 1e-12, worst)

    def check_kfunctional(self):
        def knots(m):
            idx = np.sort(self.rng.choice(m, size=int(self.rng.integers(2, min(8, m) + 1)),
                                          replace=False))
            idx[0], idx[-1] = 0, m - 1
            return np.unique(idx)

        fs = [make_zigzag(5), make_zigzag(9),
              SampledFunction(np.linspace(0, 1, 33), np.sin(8 * np.linspace(0, 1, 33))),
              make_random(self.rng, 21)]
        cases = [(f, t, p) for f in fs for t in (1.0, 0.5, 0.25, 0.11) for p in (1.0, 2.0)]
        competitors = [(f, t, p, [knots(len(f)) for _ in range(10)]) for f, t, p in cases]
        ratios = kfunctional_ratios(cases)
        ratios = ratios[~np.isnan(ratios)]
        worst = float(np.max(ratios, initial=-np.inf))
        ok = (worst <= 5.0 + 1e-9 and np.min(ratios, initial=np.inf) >= 0.5 - 1e-9
              and np.max(competitor_excess(competitors)) <= 1e-10)
        self.record("kfunctional_sandwich", ok, worst)

    def check_fejer(self):
        worst = _worst(fejer_kernel_gaps((0, 1, 5, 10)))
        self.record("fejer_kernel_integral", worst <= 1e-9, worst)
        contraction = _worst(fejer_contraction(
            [(make_square_wave(256), 24, 24), (make_square_wave(128), 24, 24)]))
        self.record("fejer_contraction", contraction <= 1.05, contraction)

    def check_lemma_q(self):
        worst = _worst(q_bound_excess((1.0, 1.5, 2.0, 4.0), 100_000))
        self.record("lemma_q_bounds", worst <= 1e-12, worst)

    def check_theta_bracket(self):
        omegas = [fourier.OmegaPower(0.5), fourier.OmegaLog()]
        families = [(nu, om, p) for (nu, p), om in zip(_FAMILIES, omegas * 2)]
        worst = _worst(theta_bracket_excess(families, range(3, 257)))
        self.record("theta_bracket", worst <= 1e-12, worst)

    def check_unif2(self):
        cases = [(nu, p, 10_000) for nu, _ in _FAMILIES for p in (1.0, 2.0)]
        gaps = dual_gaps(cases)
        self.record("unif2_and_dual", np.max(gaps) <= 1e-12, _worst(gaps))

    def check_sine_integral(self):
        worst = _worst(sine_integral_excess(
            [(1, 2, 4), (2, 3, 6), (1, 10, 20), (3, 5, 8), (1, 40, 80)]))
        self.record("sine_integral", worst <= 0.0 + 1e-12, worst)

    def check_embedding(self):
        lam = LambdaSequence.harmonic()
        gap = _worst(crosscheck_gaps([("Salem", {"phi": power_orlicz(2.0)}),
                                      ("LambdaBV", {"lam": lam}),
                                      ("WatermanShiba", {"lam": lam, "q": 2.0}),
                                      ("PhiLambda", {"lam": lam, "phi": exp_orlicz()})],
                                     _NU_SQRT, 2.0, 2048))
        known, _ = known_embedding_answers()
        self.record("embedding_criteria", np.max(known) <= 1e-9 and gap <= 1e-9, gap)

    def check_inverse(self):
        cases = [(Phi, n, y)
                 for Phi in (PhiSequence.power_all(2.0), PhiSequence.orlicz_all(exp_orlicz()),
                             PhiSequence.orlicz_over_lambda(power_orlicz(3.0),
                                                            LambdaSequence.harmonic()))
                 for n in (1, 7, 100, 10_000) for y in (0.5, 1.0, 7.0)]
        worst = _worst(phi_inverse_roundtrip(cases))
        self.record("phi_inverse_roundtrip", worst <= 1e-10, worst)

    def check_wu(self):
        data = [(Phi, np.sort(self.rng.uniform(0, 1, int(self.rng.integers(1, 12))))[::-1], 2.0,
                 float(self.rng.uniform(1.0, 2.0)))
                for Phi in (PhiSequence.power_all(2.0), PhiSequence.orlicz_all(exp_orlicz()),
                            _PHI_HARMONIC)
                for _ in range(60)]
        worst = _worst(wu_ratios(data, 1e-9))
        self.record("wu_inequality", worst <= 1.0 + 1e-12, worst)

    def check_norms(self):
        data = [[] for _ in SEQUENCE_NORMS]
        for _ in range(50):
            n = int(self.rng.integers(1, 12))
            x, y = self.rng.uniform(-1, 1, n), self.rng.uniform(-1, 1, n)
            for rows in data:
                rows.append((x, y, self.rng.permutation(x) * self.rng.choice([-1, 1], n)))
        worst = _worst([np.max(norm_axiom_excess(norm, rows))
                        for norm, rows in zip(SEQUENCE_NORMS, data)])
        ok = worst <= 1e-10 and fundamental_excess(_NU_SQRT, 1.0, [9])[0] <= 1e-12
        self.record("sequence_norms", ok, worst)

    def run(self) -> list[tuple[str, bool, float]]:
        for check in (self.check_dp_oracle, self.check_holder_chain,
                      self.check_triangle_homogeneity, self.check_extrema_reduce,
                      self.check_epsilon_properties, self.check_kfunctional, self.check_fejer,
                      self.check_lemma_q, self.check_theta_bracket, self.check_unif2,
                      self.check_sine_integral, self.check_embedding, self.check_inverse,
                      self.check_wu, self.check_norms):
            start = time.perf_counter()
            check()
            log.debug("verify %s: %.6f s", check.__name__, time.perf_counter() - start)
        return self.rows


def run_battery(seed: int) -> tuple[str, bool]:
    """Run all checks; returns (report text, all passed)."""
    battery = Battery(seed)
    rows = battery.run()
    lines = [f"seed {seed}"]
    for name, ok, value in rows:
        lines.append(f"{'ok  ' if ok else 'FAIL'} {name} {value:.12g}")
    passed = all(ok for _, ok, _ in rows)
    lines.append(f"{'PASS' if passed else 'FAIL'} {sum(ok for _, ok, _ in rows)}/{len(rows)}")
    return "\n".join(lines) + "\n", passed
