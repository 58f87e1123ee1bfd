"""Named test functions used by the CLI, the verification battery and tests."""

from __future__ import annotations

import numpy as np

from .modulus import _spec_fields
from .sampled import SampledFunction

TWO_PI = 2.0 * np.pi

__all__ = [
    "make_linear",
    "make_zigzag",
    "make_sine",
    "make_square_wave",
    "make_sawtooth",
    "make_random",
    "from_spec",
]


def make_linear(points: int = 2) -> SampledFunction:
    g = np.linspace(0.0, 1.0, max(points, 2))
    return SampledFunction(g, g.copy())


def make_zigzag(points: int = 5) -> SampledFunction:
    g = np.linspace(0.0, 1.0, max(points, 2))
    return SampledFunction(g, (np.arange(g.size) % 2).astype(np.float64))


def make_sine(points: int = 256) -> SampledFunction:
    g = np.linspace(0.0, TWO_PI, points, endpoint=False)
    return SampledFunction(g, np.sin(g), periodic=True, period=TWO_PI)


def make_square_wave(points: int = 256) -> SampledFunction:
    """1 on [0, pi), 0 on [pi, 2*pi), sampled uniformly over one period."""
    g = np.linspace(0.0, TWO_PI, points, endpoint=False)
    v = (g < np.pi).astype(np.float64)
    return SampledFunction(g, v, periodic=True, period=TWO_PI)


def make_sawtooth(points: int = 256) -> SampledFunction:
    g = np.linspace(0.0, 1.0, points, endpoint=False)
    return SampledFunction(g, g.copy(), periodic=True, period=1.0)


def make_random(rng: np.random.Generator, points: int) -> SampledFunction:
    g = np.sort(rng.uniform(0.0, 1.0, points))
    g[0], g[-1] = 0.0, 1.0
    while np.any(np.diff(g) <= 0):
        g = np.linspace(0.0, 1.0, points)
    return SampledFunction(g, rng.uniform(-1, 1, points))


# family -> (default point count, builder taking the count and the seed)
_SPECS = {
    "linear": (64, lambda n, seed: make_linear(n)),
    "zigzag": (5, lambda n, seed: make_zigzag(n)),
    "sine": (256, lambda n, seed: make_sine(n)),
    "square": (256, lambda n, seed: make_square_wave(n)),
    "sawtooth": (256, lambda n, seed: make_sawtooth(n)),
    "random": (13, lambda n, seed: make_random(np.random.default_rng(seed), n)),
}


def from_spec(spec: str, seed: int = 0) -> SampledFunction:
    """Build a function from a CLI spec like ``zigzag:9`` or ``random:13``.

    Blanks around it are ignored.  The point count after the colon defaults
    per family when absent and must be at least 2; any other field is rejected.
    """
    grammar = " | ".join(f"{family}[:<points>]" for family in _SPECS)
    head, fields = _spec_fields(spec, "function", dict.fromkeys(_SPECS, (0, 1)), grammar, int)
    default, build = _SPECS[head]
    (points,) = fields or [default]
    if points < 2:
        raise ValueError(f"function spec {spec!r} needs at least 2 points")
    return build(points, seed)
