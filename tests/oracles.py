"""Loop oracles for the DP kernels, the shift max, the knot search,
``extrema_reduce``, the Fourier layer and the inverse table, and the
whole-window grid oracle for witness blocks.

They sit beside ``pvariation_bruteforce`` as references for the vectorized
library code.

``dp_profile_loops``, ``dp1_profile_loops`` and ``shift_max_loops`` are the
plain loop forms of the three ``_kernels`` profile and window kernels;
``shift_max_loops`` visits every pair in the kernel's window,
grid[j] <= grid[i] + delta (1 + 1e-15) + 1e-15.  ``knots_loop`` is the knot
search hop by hop: ``next_hit_loop``, the segment-by-segment walk with
``_first_crossing`` on each segment from the current knot on, then
``np.interp`` for the knot's value.  ``sandwich_loop`` builds the
K-functional sandwich on its knots through ``pl_interpolate``.
``dp_parent_loops`` is the plain O(n m^2) triple loop.  Its strict-improvement
updates record, for each cell, the start of the interval ending there (-1 for
skip), so ties prefer skipping and then the smallest start.
``dp1_parent_loops`` is the same loop at p = 1 with the pair sums written as
the p = 1 row step writes them, max((prev_j - v_j) + v_i, (prev_j + v_j) - v_i),
so its table is the kernel's bit for bit.  ``backtrack_take`` walks either
record.  ``dense_dp_with_parents`` is the kernel's DP at any p, p = 1
included, with the dense m x m row step ``dense_row`` over every pair cost
``pow_diff`` in place of the kernel's candidate pairs, and all n + 1 rows
stored: the rows past the fixed point are copies of its row.
``extrema_reduce_loop`` scans the values once and keeps the endpoints and
the point before each direction flip;
``swing_count_loop`` counts the monotone runs in the same scan.
``fourier_coeffs_loop`` is the rectangle rule as an N x m trig matrix product,
and ``trig_sum_loop`` sums weighted harmonics one at a time at any points.
``inverse_at_one_loop`` is the fixed 120-halving bisection of
Phi_k^{-1}(1) from the bracket [0, 2^j].  ``luxemburg_column`` is the
Luxemburg norm of one support with its modular summed down an (n, 1) column.
``whole_window_check`` builds a witness block's whole tooth window and
validates it as a ``SampledFunction``: the reference for the closed-form
grid test ``embeddings._check_window``.  ``whole_window_dp_value`` builds
that window, reduces it and runs the DP on it: the reference for the window
value ``embeddings._certificate_objective`` reads from the differences.
``gauge_spec_fields``, ``parse_modulus_split`` and ``from_spec_split`` are
the three spec readers that ``modulus._spec_fields`` replaced, kept as they
were: the gauge and omega reader of the CLI, the modulus reader that splits
on the first ``:`` and then on ``,``, and the function reader that splits on
every ``:``.
"""

from __future__ import annotations

import numpy as np

from pvarlab import SampledFunction, _kernels, extrema_reduce
from pvarlab.embeddings import _bisect_increasing, _tooth_window
from pvarlab.functions import _SPECS
from pvarlab.kfunctional import (_CROSSING_TOL, _first_crossing, bracket_count,
                                 pl_interpolate, varp_pl)
from pvarlab.modulus import ModulusOfVariation
from pvarlab.variation import _profile


def dp_profile_loops(values, p, nmax):
    m = values.shape[0]
    prev = np.zeros(m)
    out = np.zeros(nmax + 1)
    for k in range(1, nmax + 1):
        cur = np.zeros(m)
        for i in range(1, m):
            best = cur[i - 1]
            for j in range(i):
                d = values[i] - values[j]
                if d < 0.0:
                    d = -d
                c = prev[j] + d ** p
                if c > best:
                    best = c
            cur[i] = best
        out[k] = cur[m - 1]
        prev = cur
    return out


def dp1_profile_loops(values, nmax):
    # p = 1: the inner max is carried as two running maxima, O(m * nmax).
    m = values.shape[0]
    prev = np.zeros(m)
    out = np.zeros(nmax + 1)
    for k in range(1, nmax + 1):
        cur = np.zeros(m)
        a = prev[0] - values[0]  # max_j prev[j] - v_j
        b = prev[0] + values[0]  # max_j prev[j] + v_j
        for i in range(1, m):
            best = cur[i - 1]
            c1 = a + values[i]
            c2 = b - values[i]
            if c1 > best:
                best = c1
            if c2 > best:
                best = c2
            cur[i] = best
            if prev[i] - values[i] > a:
                a = prev[i] - values[i]
            if prev[i] + values[i] > b:
                b = prev[i] + values[i]
        out[k] = cur[m - 1]
        prev = cur
    return out


def shift_max_loops(grid, values, delta, limit):
    best = 0.0
    m = grid.shape[0]
    for i in range(limit):
        j = i + 1
        while j < m and grid[j] <= grid[i] + delta * (1.0 + 1e-15) + 1e-15:
            d = values[j] - values[i]
            if d < 0.0:
                d = -d
            if d > best:
                best = d
            j += 1
    return best


def knots_loop(f: SampledFunction, M: int, p: float, ups: float):
    """``kfunctional._knots`` hop by hop: each knot from ``next_hit_loop``
    and its value from ``np.interp``.  Returns (knots, case)."""
    threshold = ups / M ** (1.0 / p)
    if threshold <= _CROSSING_TOL * f.sup_abs():
        return np.array([0.0, 1.0]), "II"
    grid, vals = f.grid, f.values
    knots = [0.0]
    cur_x = 0.0
    cur_val = float(vals[0])
    produced = 0
    while produced < M - 1:
        nxt = next_hit_loop(grid, vals, cur_x, cur_val, threshold)
        if nxt is None:
            break
        cur_x = nxt
        cur_val = float(np.interp(nxt, grid, vals))
        knots.append(cur_x)
        produced += 1
        if cur_x >= 1.0 - 1e-15:
            break
    if knots[-1] < 1.0 - 1e-15:
        knots.append(1.0)
    return np.asarray(knots), "I" if produced == M - 1 else "II"


def sandwich_loop(f: SampledFunction, t: float, p: float):
    """(knots, case, lower, upper, ratio) of ``kfunctional_bounds`` from
    ``knots_loop``, ``pl_interpolate`` and the sup of |f - g| over the
    sorted union of grid, knots and their midpoints."""
    M = bracket_count(t, p)
    ups = float(_profile(f, p, M)[-1])
    knots, case = knots_loop(f, M, p, ups)
    g = pl_interpolate(f, knots)
    pts = np.unique(np.concatenate([f.grid, g.grid]))
    xs = np.unique(np.concatenate([pts, 0.5 * (pts[:-1] + pts[1:])]))
    err = float(np.max(np.abs(np.interp(xs, f.grid, f.values) - g(xs))))
    lower = t * ups
    upper = err + t * varp_pl(g, p)
    return knots, case, lower, upper, upper / lower if lower > 0 else float("inf")


def next_hit_loop(grid, vals, cur_x, cur_val, threshold):
    """The knot search's hop from cur_x as a walk: ``_first_crossing`` on every segment."""
    i0 = int(np.searchsorted(grid, cur_x, side="right")) - 1
    i0 = max(0, min(i0, grid.size - 2))
    for i in range(i0, grid.size - 1):
        xl, xr = grid[i], grid[i + 1]
        if xr <= cur_x:
            continue
        xl_eff = max(xl, cur_x)
        vl_eff = float(np.interp(xl_eff, grid, vals))
        hit = _first_crossing(xl_eff, vl_eff, xr, float(vals[i + 1]), cur_val, threshold, cur_x)
        if hit is not None and hit > cur_x:
            return float(min(hit, 1.0))
    return None


def dp_parent_loops(values, p, n):
    m = values.shape[0]
    prev = np.zeros(m)
    table = np.zeros((n + 1, m))
    take = np.full((n + 1, m), -1, dtype=np.int64)
    for k in range(1, n + 1):
        cur = np.zeros(m)
        for i in range(1, m):
            best = cur[i - 1]
            arg = -1
            for j in range(i):
                d = values[i] - values[j]
                if d < 0.0:
                    d = -d
                c = prev[j] + d ** p
                if c > best:
                    best = c
                    arg = j
            cur[i] = best
            take[k, i] = arg
        table[k] = cur
        prev = cur
    return table, take


def dp1_parent_loops(values, n):
    m = values.shape[0]
    prev = np.zeros(m)
    table = np.zeros((n + 1, m))
    take = np.full((n + 1, m), -1, dtype=np.int64)
    for k in range(1, n + 1):
        cur = np.zeros(m)
        for i in range(1, m):
            best = cur[i - 1]
            arg = -1
            for j in range(i):
                c = max((prev[j] - values[j]) + values[i], (prev[j] + values[j]) - values[i])
                if c > best:
                    best = c
                    arg = j
            cur[i] = best
            take[k, i] = arg
        table[k] = cur
        prev = cur
    return table, take


def pow_diff(values, p):
    return np.abs(values[:, None] - values[None, :]) ** p  # diff[j, i]


def dense_row(prev, diff, buf, cur):
    """One DP row into ``cur``, using the m x m scratch ``buf``.

    buf[j, i] = prev[j] + diff[j, i], accumulated down the columns, so its
    superdiagonal holds ext[i-1] = max_{j <= i-1} prev[j] + diff[j, i].
    """
    np.add(prev[:, None], diff, out=buf)
    np.maximum.accumulate(buf, axis=0, out=buf)
    cur[0] = 0.0
    np.maximum(np.diagonal(buf, offset=1), 0.0, out=cur[1:])
    np.maximum.accumulate(cur[1:], out=cur[1:])


def dense_dp_with_parents(values, p, n):
    """``_kernels.dp_with_parents`` with the dense m x m row step at every p,
    as an (n + 1) x m table padded past the fixed point."""
    m = values.shape[0]
    diff, buf = pow_diff(values, float(p)), np.empty((m, m))
    table = np.zeros((n + 1, m))
    for k in range(1, n + 1):
        dense_row(table[k - 1], diff, buf, table[k])
        if np.array_equal(table[k], table[k - 1]):
            table[k:] = table[k]
            break
    return table, lambda prev, i: prev[:i] + diff[:i, i]


def backtrack_take(take) -> list[tuple[int, int]]:
    pairs = []
    k, i = take.shape[0] - 1, take.shape[1] - 1
    while k > 0 and i > 0:
        j = take[k, i]
        if j < 0:
            i -= 1
        else:
            pairs.append((int(j), int(i)))
            i = int(j)
            k -= 1
    pairs.reverse()
    return pairs


def extrema_reduce_loop(f: SampledFunction) -> SampledFunction:
    v = f.values
    m = v.size
    if m <= 2:
        return f
    keep = [0]
    last = v[0]
    direction = 0
    for i in range(1, m):
        step = v[i] - last
        if step == 0.0:
            continue
        s = 1 if step > 0 else -1
        if direction != 0 and s != direction:
            keep.append(prev_idx)
        direction = s
        last = v[i]
        prev_idx = i
    if keep[-1] != m - 1:
        keep.append(m - 1)
    idx = np.asarray(keep, dtype=np.int64)
    return SampledFunction(f.grid[idx], f.values[idx], f.periodic, f.period)


def swing_count_loop(values) -> int:
    """Number of monotone runs, plateaus skipped; 0 for a constant."""
    count, direction, last = 0, 0, values[0]
    for v in values[1:]:
        if v == last:
            continue
        s = 1 if v > last else -1
        if s != direction:
            count += 1
        direction, last = s, v
    return count


def fourier_coeffs_loop(g, v, N):
    """(a_1..a_N, b_1..b_N) = (2/m) sum_j v_j (cos, sin)(n g_j) on one period."""
    m = g.size
    phase = np.outer(np.arange(1, N + 1), g)
    return (2.0 / m) * (np.cos(phase) @ v), (2.0 / m) * (np.sin(phase) @ v)


def trig_sum_loop(c, n, x, weights):
    """a0/2 + sum_{k<=n} weights[k-1] (a_k cos kx + b_k sin kx)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.full(x.shape, c.a0 / 2.0)
    for k in range(1, n + 1):
        out += weights[k - 1] * (c.a[k - 1] * np.cos(k * x) + c.b[k - 1] * np.sin(k * x))
    return out


def inverse_at_one_loop(Phi, lo_k, hi_k):
    """[Phi_k^{-1}(1) for k = lo_k..hi_k]: double hi from 1, then 120 halvings from 0."""
    ns = np.arange(lo_k, hi_k + 1, dtype=np.float64)
    ones = np.ones(ns.size)
    lo = np.zeros(ns.size)
    hi = np.ones(ns.size)
    for _ in range(200):
        need = Phi.partial(ns, hi) < ones
        if not np.any(need):
            break
        hi[need] *= 2.0
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        below = Phi.partial(ns, mid) < ones
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def luxemburg_column(xs, phi_j) -> float:
    """inf{c > 0 : sum_j phi_j(j, xs_j / c) <= 1} for one support xs (0 if empty)."""
    if xs.size == 0:
        return 0.0
    js = np.arange(1, xs.size + 1)[:, None]
    return _bisect_increasing(lambda c: -phi_j(js, xs[:, None] / c).sum(axis=0), -1.0)


def whole_window_check(blk) -> None:
    """Raise ``SampledFunction``'s ValueError if the block's whole window has one."""
    SampledFunction(*_tooth_window(blk))


def whole_window_dp_value(blk, p, window=None) -> float:
    """v_p(n) of the block's whole window (or of ``window``, which must
    reduce to the 2r + 1 points of the block's closed form)."""
    if window is None:
        window = SampledFunction(*_tooth_window(blk))
    m = 2 * blk.r + 1
    sub = extrema_reduce(window)
    if len(sub) != m:
        raise RuntimeError(
            f"block k = {blk.k}: window reduced to {len(sub)} points, expected {m}"
        )
    if p == 1.0:
        # The certificate uses 2r <= n intervals, one per swing, so by the
        # triangle inequality v_1(n) is the total variation, summed in order.
        return float(np.cumsum(np.abs(np.diff(sub.values)))[-1])
    # the DP's last row is row n: it stops at its fixed point, at or before n
    return float(_kernels.dp_profile_pow(sub.values, p, blk.n)[-1] ** (1.0 / p))


def gauge_spec_fields(spec: str, what: str, forms: dict, grammar: str) -> tuple[str, list[float]]:
    """The head and the numeric fields of ``spec``, which must match one of ``forms``.

    ``forms`` maps a head such as ``orlicz:power`` to its allowed field counts.
    A missing, extra or non-numeric field is a ValueError naming the grammar.
    """
    s = spec.strip().lower()
    head = next((h for h in forms if s == h or s.startswith(h + ":")), None)
    if head is not None:
        try:
            fields = [float(v) for v in s[len(head) + 1:].split(":")] if s != head else []
        except ValueError:
            fields = None
        if fields is not None and len(fields) in forms[head]:
            return head, fields
    raise ValueError(f"unknown {what} spec {spec!r} ({grammar})")


def parse_modulus_split(candidate) -> ModulusOfVariation:
    """Modulus from a spec string, a modulus, or a table of values.

    Specs are ``power:<alpha>``, ``log`` and ``table:v1,v2,...``; the API and
    the CLI both parse them here, and any other string is a ValueError naming
    that grammar.
    """
    if isinstance(candidate, ModulusOfVariation):
        return candidate
    if isinstance(candidate, str):
        s = candidate.strip().lower()
        head, _, body = s.partition(":")
        try:
            fields = [float(x) for x in body.split(",")]
        except ValueError:
            fields = []
        if s == "log":
            return ModulusOfVariation.log()
        if head == "power" and len(fields) == 1:
            return ModulusOfVariation.power(fields[0])
        if head == "table" and fields:
            return ModulusOfVariation.from_table(fields)
        raise ValueError(
            f"unknown modulus spec {candidate!r} (power:<alpha>, log, table:v1,v2,...)"
        )
    return ModulusOfVariation.from_table(candidate)


def from_spec_split(spec: str, seed: int = 0) -> SampledFunction:
    """Build a function from a CLI spec like ``zigzag:9`` or ``random:13``.

    Blanks around it are ignored.  The point count after the colon defaults
    per family when absent and must be at least 2; any other field is rejected.
    """
    name, *fields = spec.strip().split(":")
    try:
        default, build = _SPECS[name.lower()]
        (points,) = [int(v) for v in fields] or [default]
    except (KeyError, ValueError):
        grammar = " | ".join(f"{family}[:<points>]" for family in _SPECS)
        raise ValueError(f"unknown function spec {spec!r} ({grammar})") from None
    if points < 2:
        raise ValueError(f"function spec {spec!r} needs at least 2 points")
    return build(points, seed)
