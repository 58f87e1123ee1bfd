"""Symmetric sequence-space norms on finitely supported sequences.

Every norm is applied to the nonincreasing rearrangement, which makes
permutation and sign invariance definitional.  The Luxemburg norms (Orlicz
and modular) are evaluated as a batch: ``orlicz_norms`` and
``modular_norms`` run one bisection over all their sequences, and
``orlicz_norm``/``modular_norm`` are the one-sequence case of the same code,
so each value is bit-identical to its own call.  The fundamental sequence
of a space, the norm of the n-term indicator, is any of these norms on
``np.ones(n)`` (``seqnorm --n``).
"""

from __future__ import annotations

import numpy as np

from .embeddings import OrliczFunction, PhiSequence, _bisect_increasing
from .modulus import ModulusOfVariation, _check_p, epsilon_p_table

__all__ = [
    "rearrange",
    "marcinkiewicz_norm",
    "lorentz_norm",
    "orlicz_norm",
    "orlicz_norms",
    "modular_norm",
    "modular_norms",
    "dual_harmonic_estimate",
]


def _as_seq(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("expected a one-dimensional sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sequence entries must be finite")
    return arr


def rearrange(x) -> np.ndarray:
    """Nonincreasing rearrangement of |x|."""
    return np.sort(np.abs(_as_seq(x)))[::-1]


def marcinkiewicz_norm(x, nu: ModulusOfVariation, p: float) -> float:
    """sup_n (sum_{j<=n} (x*_j)^p)^(1/p) / nu(n) over the support length."""
    _check_p(p)
    xs = rearrange(x)
    if xs.size == 0 or xs[0] == 0.0:
        return 0.0
    partial = np.cumsum(xs ** p) ** (1.0 / p)
    return float(np.max(partial / nu.table(xs.size)))


def lorentz_norm(x, w, q: float) -> float:
    """(sum (x*_j)^q w_j)^(1/q) for a nonincreasing positive weight and finite q >= 1."""
    _check_p(q, "q")
    xs = rearrange(x)
    ws = _as_seq(w)
    if np.any(ws <= 0) or np.any(np.diff(ws) > 1e-15):
        raise ValueError("weights must be positive and nonincreasing")
    if ws.size < xs.size:
        raise ValueError("weight sequence shorter than the support")
    return float(np.sum(xs ** q * ws[: xs.size]) ** (1.0 / q))


def _support(x) -> np.ndarray:
    xs = rearrange(x)
    return xs[xs > 0]


def _luxemburg(supports: list[np.ndarray], modular) -> np.ndarray:
    """inf{c > 0 : modular(x / c) <= 1} per support x; 0 for an empty one.

    ``modular`` maps a C-contiguous (k, n) matrix of rows x / c to its k row
    sums along axis 1, so each row sums in the same (pairwise) order as a
    lone sequence does.  Supports are grouped by length, never padded.  The
    modular decreases in c, so its negation goes through the increasing
    inverse, one target per nonempty support.
    """
    groups: dict[int, list[int]] = {}
    for i, xs in enumerate(supports):
        if xs.size:
            groups.setdefault(xs.size, []).append(i)
    out = np.zeros(len(supports))
    if not groups:
        return out
    order = [i for idx in groups.values() for i in idx]
    rows = [np.stack([supports[i] for i in idx]) for idx in groups.values()]
    cuts = np.cumsum([0] + [len(x) for x in rows])

    def neg_modular(c):
        return -np.concatenate([modular(x / c[lo:hi, None])
                                for x, lo, hi in zip(rows, cuts, cuts[1:])])

    out[order] = _bisect_increasing(neg_modular, np.full(len(order), -1.0))
    return out


def orlicz_norms(seqs, phi: OrliczFunction) -> np.ndarray:
    """Luxemburg norm inf{c > 0 : sum phi(|x_j|/c) <= 1} of each x in ``seqs``
    (0 for x = 0), by one bisection over all of them; each value is
    bit-identical to ``orlicz_norm(x, phi)``."""
    return _luxemburg([_support(x) for x in seqs], lambda u: phi(u).sum(axis=1))


def orlicz_norm(x, phi: OrliczFunction) -> float:
    """Luxemburg norm inf{c > 0 : sum phi(|x_j|/c) <= 1}; 0 for x = 0."""
    return float(orlicz_norms([x], phi)[0])


def modular_norms(seqs, Phi: PhiSequence) -> np.ndarray:
    """inf{c > 0 : sum phi_j(x*_j / c) <= 1} on the rearrangement of each x in
    ``seqs``, by one bisection over all of them; each value is bit-identical
    to ``modular_norm(x, Phi)``."""
    return _luxemburg([_support(x) for x in seqs],
                      lambda u: Phi.phi(np.arange(1, u.shape[1] + 1), u).sum(axis=1))


def modular_norm(x, Phi: PhiSequence) -> float:
    """inf{c > 0 : sum phi_j(x*_j / c) <= 1} on the rearrangement."""
    return float(modular_norms([x], Phi)[0])


def dual_harmonic_estimate(nu: ModulusOfVariation, p: float, horizon: int):
    """(sum_{k<=h} eps_p(k)/k, sum_{k<=h} nu(k)/k^(1+1/p)).

    The first sum is the pairing of {1/k} with the extremal unit vector
    {eps_p(k)} of the Marcinkiewicz ball, the second the dual-norm bound.
    """
    _check_p(p)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    ks = np.arange(1, horizon + 1, dtype=np.float64)
    lower = float(np.sum(epsilon_p_table(nu, p, horizon) / ks))
    upper = float(np.sum(nu.table(horizon) / ks ** (1.0 + 1.0 / p)))
    return lower, upper
