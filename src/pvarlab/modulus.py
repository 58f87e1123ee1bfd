"""Variation moduli: validated nondecreasing concave positive sequences, and
the input rules the API and the CLI share (``_check_p``, ``_spec_fields``,
``_read_number``)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModulusOfVariation",
    "ModulusValidation",
    "validate_modulus",
    "epsilon_p_table",
]

_CONCAVITY_SLACK = 1e-12
_VALIDATE_HORIZON = 4096
# The largest count that sizes an allocation: pvar --n rows, the seqnorm --n
# indicator, an embedding horizon and a Fourier n.
_MAX_COUNT = 1 << 20


def _check_p(p: float, name: str = "p"):
    """The one rule for an exponent such as p, shared by the API and the CLI."""
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError(f"{name} must be finite and >= 1, got {p!r}")


def _check_count(n: int, name: str = "n"):
    """The one cap on a count that sizes an allocation, shared by the API and the CLI."""
    if n > _MAX_COUNT:
        raise ValueError(f"{name} must be <= {_MAX_COUNT}, got {n}")


def _read_number(text: str, kind=float):
    """``kind(text)`` for a plain number: the digit-group underscores that
    Python's ``int`` and ``float`` accept (``1_0``) are refused."""
    if "_" in text:
        raise ValueError(f"not a plain number: {text!r}")
    return kind(text)


def _spec_fields(spec: str, what: str, forms: dict, grammar: str, kind=float):
    """The head and the fields of ``spec``: the one reader of every spec string.

    ``forms`` maps each head, such as ``orlicz:power``, to its allowed counts
    of ``:``-separated fields, or to None for one comma list of at least one
    field, each read by ``kind``.  Blanks around ``spec`` and case are ignored;
    a missing, extra or unreadable field is a ValueError naming the grammar.
    """
    s = spec.strip().lower()
    head = next((h for h in forms if s == h or s.startswith(h + ":")), None)
    if head is not None:
        counts = forms[head]
        try:
            body = s[len(head) + 1:].split("," if counts is None else ":")
            fields = [_read_number(v, kind) for v in body] if s != head else []
        except ValueError:
            fields = None
        if fields is not None and (fields if counts is None else len(fields) in counts):
            return head, fields
    raise ValueError(f"unknown {what} spec {spec!r} ({grammar})")


class ModulusOfVariation:
    """Sequence nu with nu(0) = 0, nu(k) > 0 nondecreasing and concave.

    Three kinds: ``power`` (nu(k) = k**alpha), ``log`` (nu(k) = log(k+1)) and
    finite ``table``.  Tables are never extrapolated; indexing past the end
    raises.
    """

    def __init__(self, kind: str, alpha: float | None = None, table: np.ndarray | None = None):
        self.kind = kind
        self.alpha = alpha
        self._table = None
        if kind == "power":
            if alpha is None or not (0.0 < alpha <= 1.0):
                raise ValueError("power modulus needs alpha in (0, 1]")
        elif kind == "table":
            t = np.asarray(table, dtype=np.float64)
            if t.ndim != 1 or t.size == 0:
                raise ValueError("table modulus needs a nonempty sequence")
            if not np.all(np.isfinite(t)):
                raise ValueError("table entries must be finite")
            if np.any(t <= 0):
                raise ValueError("modulus values must be positive")
            if np.any(np.diff(t) < -_CONCAVITY_SLACK):
                raise ValueError("modulus must be nondecreasing")
            if t.size >= 3:
                mid = t[1:-1]
                if np.any(t[2:] + t[:-2] > 2 * mid + _CONCAVITY_SLACK):
                    raise ValueError("modulus must be concave")
            # nu(1) <= 2 nu(1) - nu(0) trivially; check the k = 1 step too
            if t.size >= 2 and t[1] > 2 * t[0] + _CONCAVITY_SLACK:
                raise ValueError("modulus must be concave (k = 1 step)")
            self._table = t
        elif kind != "log":
            raise ValueError(f"unknown modulus kind {kind!r}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def power(cls, alpha: float) -> "ModulusOfVariation":
        return cls("power", alpha=alpha)

    @classmethod
    def log(cls) -> "ModulusOfVariation":
        return cls("log")

    @classmethod
    def from_table(cls, values) -> "ModulusOfVariation":
        return cls("table", table=values)

    # -- evaluation ---------------------------------------------------------

    @property
    def max_index(self) -> float:
        return float("inf") if self._table is None else float(self._table.size)

    def value(self, k):
        """nu(k) for integer k >= 0 (scalar or array)."""
        arr = np.asarray(k)
        if np.any(arr < 0):
            raise ValueError("modulus index must be nonnegative")
        kk = arr.astype(np.float64)
        if self.kind == "power":
            out = np.where(arr == 0, 0.0, kk ** self.alpha)
        elif self.kind == "log":
            out = np.log1p(kk)
        else:
            if np.any(arr > self._table.size):
                raise ValueError("index beyond table; modulus tables are not extrapolated")
            out = np.where(arr == 0, 0.0, self._table[np.maximum(arr, 1) - 1])
        return float(out) if np.isscalar(k) or arr.ndim == 0 else out

    def table(self, n: int) -> np.ndarray:
        """Array of nu(1), ..., nu(n)."""
        return self.value(np.arange(1, n + 1))

    def describe(self) -> str:
        if self.kind == "power":
            return f"power:{self.alpha:g}"
        if self.kind == "log":
            return "log"
        return "table:" + ",".join(f"{v:g}" for v in self._table)

    def __repr__(self):
        return f"ModulusOfVariation({self.describe()})"


@dataclass(frozen=True)
class ModulusValidation:
    """Checks recorded by :func:`validate_modulus`."""

    modulus: ModulusOfVariation
    p: float
    nondecreasing: bool
    concave: bool
    nu_p_quasiconcave: bool
    ratio_nonincreasing: bool
    ratio_vanishes: bool


def parse_modulus(candidate) -> ModulusOfVariation:
    """Modulus from a spec string, a modulus, or a table of values.

    Specs are ``power:<alpha>``, ``log`` and ``table:v1,v2,...``; the API and
    the CLI both parse them here, and any other string is a ValueError naming
    that grammar.
    """
    if isinstance(candidate, ModulusOfVariation):
        return candidate
    if isinstance(candidate, str):
        forms = {"power": (1,), "log": (0,), "table": None}
        head, fields = _spec_fields(candidate, "modulus", forms,
                                    "power:<alpha>, log, table:v1,v2,...")
        if head == "power":
            return ModulusOfVariation.power(fields[0])
        return ModulusOfVariation.log() if head == "log" else ModulusOfVariation.from_table(fields)
    return ModulusOfVariation.from_table(candidate)


def validate_modulus(candidate, p: float) -> ModulusValidation:
    """Validate a modulus against the regularity needed for exponent p.

    Raises on positivity, monotonicity or concavity failures and when
    nu(k)/k^(1/p) provably fails to decrease to zero (closed-form families).
    Closed-form families are checked on k <= 4096.  For tables the ratio is
    checked over the table only, and ``ratio_vanishes`` is False: a finite
    table cannot show a limit.
    """
    _check_p(p)
    nu = parse_modulus(candidate)  # constructors enforce the hard axioms

    full = nu.table(int(nu.max_index) if nu.kind == "table" else _VALIDATE_HORIZON)
    if nu.kind == "power":
        ratio_noninc = nu.alpha <= 1.0 / p
        ratio_vanishes = nu.alpha < 1.0 / p
        if not ratio_vanishes:
            raise ValueError(
                f"nu(k) = k^{nu.alpha:g} with p = {p:g}: nu(k)/k^(1/p) does not decrease to 0"
            )
    else:
        ks = np.arange(1, full.size + 1, dtype=np.float64)
        ratio_noninc = bool(np.all(np.diff(full / ks ** (1.0 / p)) <= 1e-15))
        ratio_vanishes = nu.kind == "log"

    t = full[:_VALIDATE_HORIZON]
    nondecreasing = bool(np.all(np.diff(t) >= -_CONCAVITY_SLACK))
    concave = bool(np.all(t[2:] + t[:-2] <= 2 * t[1:-1] + _CONCAVITY_SLACK)) if t.size >= 3 else True
    tp = t ** p
    quasi = bool(np.all(np.diff(tp) >= -1e-12)) and bool(
        np.all(np.diff(tp / np.arange(1, t.size + 1)) <= 1e-12)
    )
    return ModulusValidation(
        modulus=nu,
        p=float(p),
        nondecreasing=nondecreasing,
        concave=concave,
        nu_p_quasiconcave=quasi,
        ratio_nonincreasing=ratio_noninc,
        ratio_vanishes=ratio_vanishes,
    )


def epsilon_p_table(nu: ModulusOfVariation, p: float, n: int) -> np.ndarray:
    """Array of eps_p(1), ..., eps_p(n), eps_p(k) = (nu(k)^p - nu(k-1)^p)^(1/p)."""
    _check_p(p)
    t = np.concatenate(([0.0], nu.table(n))) ** p
    return np.diff(t) ** (1.0 / p)
