"""Variation moduli (validated nondecreasing concave positive sequences),
the rules on nu(k)/k^(1/p) that every module reads, and the input rules the
API and the CLI share (``_check_p``, ``_spec_fields``, ``_read_number``)."""

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
_TINY = float(np.finfo(np.float64).tiny)


def _check_p(p: float, name: str = "p"):
    """The one rule for an exponent such as p, shared by the API and the CLI."""
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError(f"{name} must be finite and >= 1, got {p!r}")


def _check_count(n: int, name: str = "n"):
    """The one cap on a count that sizes an allocation, shared by the API and the CLI."""
    if n > _MAX_COUNT:
        raise ValueError(f"{name} must be <= {_MAX_COUNT}, got {n}")


def _check_magnitude(top: float, p: float, n: int, what: str, name: str = "p",
                     weight: float = 1.0):
    """The one rule for the scale of a sum of at most n terms, each at most
    weight * top^p: that bound times n must be finite, and a nonzero
    weight * top^p below the smallest normal float would round the largest
    term of every sum to a subnormal or to zero, so that is refused too.
    ``what`` names top in the message."""
    try:
        power = top ** p * weight
    except OverflowError:
        power = math.inf
    if not math.isfinite(n * power):
        raise ValueError(
            f"values too large for {name} = {p:g}: {n} * ({what})^{name} overflows; rescale the input"
        )
    if top > 0 and power < _TINY:
        raise ValueError(
            f"values too small for {name} = {p:g}: ({what})^{name} underflows; rescale the input"
        )


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
    finite ``table``.  The constructor is the one check of these axioms (to
    1e-12 for a table; power and log hold them by construction).  Tables are
    never extrapolated; indexing past the end raises.
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
        if (arr < 0).any():
            raise ValueError("modulus index must be nonnegative")
        kk = arr.astype(np.float64)
        if self.kind == "power":
            out = np.where(arr == 0, 0.0, kk ** self.alpha)
        elif self.kind == "log":
            out = np.log1p(kk)
        else:
            if (arr > self._table.size).any():
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
    """What :func:`validate_modulus` found.  nu is nondecreasing, so nu^p/k is
    nonincreasing (nu^p is quasiconcave) exactly when nu(k)/k^(1/p) is."""

    modulus: ModulusOfVariation
    p: float
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


def _ratio_vanishes(nu: ModulusOfVariation, p: float) -> bool | None:
    """Does nu(k)/k^(1/p) decrease to 0?  Decided for the closed forms (the
    integral test of every series built on the ratio); None for a table,
    since a finite table cannot show a limit."""
    if nu.kind == "power":
        return nu.alpha < 1.0 / p
    return True if nu.kind == "log" else None


def _ratio_nonincreasing(nu: ModulusOfVariation, p: float, ratio: np.ndarray) -> bool:
    """Is nu(k)/k^(1/p) nonincreasing?  For a power, exactly (alpha <= 1/p);
    otherwise every step of ``ratio``, its values on k = 1..horizon, is <= 1e-15."""
    if nu.kind == "power":
        return nu.alpha <= 1.0 / p
    return bool(np.all(np.diff(ratio) <= 1e-15))


def validate_modulus(candidate, p: float) -> ModulusValidation:
    """Validate a modulus against the regularity needed for exponent p.

    Raises on the constructor's refusals (positivity, monotonicity,
    concavity) and when nu(k)/k^(1/p) provably fails to decrease to zero (a
    power with alpha >= 1/p).  The log ratio is checked on k <= 4096, a
    table's over the table only, and ``ratio_vanishes`` is False for a
    table: a finite table cannot show a limit.
    """
    _check_p(p)
    nu = parse_modulus(candidate)
    vanishes = _ratio_vanishes(nu, p)
    if vanishes is False:
        raise ValueError(
            f"nu(k) = k^{nu.alpha:g} with p = {p:g}: nu(k)/k^(1/p) does not decrease to 0"
        )
    horizon = int(nu.max_index) if nu.kind == "table" else _VALIDATE_HORIZON
    ratio = nu.table(horizon) / np.arange(1, horizon + 1, dtype=np.float64) ** (1.0 / p)
    return ModulusValidation(nu, float(p), _ratio_nonincreasing(nu, p, ratio), bool(vanishes))


def epsilon_p_table(nu: ModulusOfVariation, p: float, n: int) -> np.ndarray:
    """Array of eps_p(1), ..., eps_p(n), eps_p(k) = (nu(k)^p - nu(k-1)^p)^(1/p).

    Where nu(k)^p overflows or falls below the smallest normal float, the
    entry is read as nu(k) (1 - (nu(k-1)/nu(k))^p)^(1/p), with the bracket
    from ``expm1`` of p log(nu(k-1)/nu(k)); every other entry is the
    difference of powers above.
    """
    _check_p(p)
    nus = np.concatenate(([0.0], nu.table(n)))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        t = nus ** p
        eps = np.diff(t) ** (1.0 / p)
    out = ~((t[1:] >= _TINY) & (t[1:] < math.inf))
    if out.any():
        lo, hi = nus[:-1][out], nus[1:][out]
        with np.errstate(divide="ignore"):  # log(0) = -inf at k = 1: the bracket is 1
            eps[out] = hi * (-np.expm1(p * np.log(lo / hi))) ** (1.0 / p)
    return eps
