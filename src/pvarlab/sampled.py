"""Sampled functions on a real interval, and their extrema reduction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SampledFunction", "extrema_reduce"]


def _as_1d_float(a) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("expected a one-dimensional sequence")
    return arr


@dataclass(frozen=True)
class SampledFunction:
    """A function known at finitely many grid points, optionally periodic.

    The continuous model is the piecewise-linear interpolant of the samples;
    variation quantities computed on the grid coincide with the continuous
    ones for this model because all extrema sit on grid points.
    """

    grid: np.ndarray
    values: np.ndarray
    periodic: bool = False
    period: float | None = None

    def __post_init__(self):
        grid = _as_1d_float(self.grid)
        values = _as_1d_float(self.values)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.size != values.size:
            raise ValueError("grid and values must have the same length")
        if grid.size < 2:
            raise ValueError("need at least two sample points")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
            raise ValueError("grid and values must be finite")
        if self.periodic:
            if self.period is None or not np.isfinite(self.period) or self.period <= 0:
                raise ValueError("periodic functions require a positive period")
            if grid[-1] - grid[0] > self.period * (1 + 1e-12):
                raise ValueError("grid span exceeds the period")
        elif self.period is not None:
            raise ValueError("period given for a non-periodic function")

    def __len__(self) -> int:
        return int(self.grid.size)

    def __call__(self, x):
        """Piecewise-linear evaluation; periodic functions wrap modulo the period."""
        x = np.asarray(x, dtype=np.float64)
        if self.periodic:
            x = self.grid[0] + np.mod(x - self.grid[0], self.period)
            gx = np.append(self.grid, self.grid[0] + self.period)
            gv = np.append(self.values, self.values[0])
            return np.interp(x, gx, gv)
        return np.interp(x, self.grid, self.values)

    def scaled(self, c: float) -> "SampledFunction":
        return SampledFunction(self.grid, c * self.values, self.periodic, self.period)

    def sup_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        d = {
            "grid": self.grid.tolist(),
            "values": self.values.tolist(),
            "periodic": self.periodic,
        }
        if self.periodic:
            d["period"] = self.period
        return d


def extrema_reduce(f: SampledFunction) -> SampledFunction:
    """Drop grid points that are not endpoints or strict interior extrema.

    Plateaus are compressed to their first point.  The p-variation profile is
    unchanged by this reduction for every interval budget.
    """
    v = f.values
    m = v.size
    if m <= 2:
        return f
    # Keep both ends and the end of each monotone run: the point reached by the
    # last nonzero step before the direction flips.  Indices are increasing.
    d = np.diff(v)
    nz = np.flatnonzero(d)
    up = d[nz] > 0
    idx = np.concatenate(([0], nz[:-1][up[1:] != up[:-1]] + 1, [m - 1]))
    return SampledFunction(f.grid[idx], f.values[idx], f.periodic, f.period)
