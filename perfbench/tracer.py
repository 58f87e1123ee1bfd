"""Span recorder for the traced benchmark run, installed from outside pvarlab.

Each traced function is wrapped here and the wrapper is rebound in every
``pvarlab`` module namespace that holds the original, because ``kfunctional``,
``embeddings``, ``cli`` and ``verify`` import ``pvariation_profile``,
``extrema_reduce`` and others by name.  Methods are rebound on their class.
Spans (name, start, end, parent) stay in memory; per-function calls, total
and self time, and the work counts are derived from them after the run.
No file of the package is changed.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# (module, attribute) pairs; "Class.method" wraps a method on its class.
TARGETS = (
    ("cli", "main"),
    ("variation", "pvariation_profile"),
    ("variation", "pvariation_dp"),
    ("variation", "pvariation_bruteforce"),
    ("kfunctional", "kfunctional_bounds"),
    ("kfunctional", "select_knots"),
    ("kfunctional", "varp_pl"),
    ("fourier", "fourier_coeffs"),
    ("fourier", "partial_sum"),
    ("fourier", "fejer_mean"),
    ("fourier", "coeff_decay_report"),
    ("fourier", "modulus_of_continuity"),
    ("fourier", "convergence_sequences"),
    ("fourier", "unif2_verdicts"),
    ("fourier", "fejer_kernel_integral"),
    ("fourier", "sine_integral_lower"),
    ("embeddings", "embedding_criterion"),
    ("embeddings", "corollary_criteria"),
    ("embeddings", "witness_generate"),
    ("embeddings", "phi_partial_inverse"),
    ("embeddings", "wu_bound_check"),
    ("embeddings", "PhiSequence.inverse_at_one_table"),
    ("seqspaces", "orlicz_norm"),
    ("seqspaces", "modular_norm"),
    ("modulus", "epsilon_p_table"),
    ("sampled", "extrema_reduce"),
    ("_kernels", "dp_profile_pow"),
    ("_kernels", "dp_with_parents"),
    ("_kernels", "dp1_profile"),
    ("_kernels", "shift_max"),
)

# The fifteen checks of verify.Battery, traced as verify.check.<name>.
BATTERY_CHECKS = (
    "dp_oracle", "holder_chain", "triangle_homogeneity", "extrema_reduce",
    "epsilon_properties", "kfunctional", "fejer", "lemma_q", "theta_bracket",
    "unif2", "sine_integral", "embedding", "inverse", "wu", "norms",
)

# Work counts derived from arguments and results; byte counts are computed
# from array sizes, not measured memory traffic.
COUNTS = (
    "sampled.extrema_reduce.points_in",
    "sampled.extrema_reduce.points_out",
    "_kernels.dp_profile_pow.cells",
    "_kernels.dp_profile_pow.bytes_computed",
    "_kernels.dp_with_parents.cells",
    "_kernels.dp1_profile.cells",
    "fourier.fourier_coeffs.bytes_computed",
    "kfunctional.profiles_per_bound",
    "embeddings.witness.points",
    "embeddings.witness.window_dp_ran",
    "embeddings.witness.window_dp_skipped",
    "embeddings.witness.points_reduced_unused",
)


def span_names() -> list[str]:
    names = [f"{mod}.{attr}" for mod, attr in TARGETS]
    return names + [f"verify.check.{c}" for c in BATTERY_CHECKS]


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    out = []
    for name in span_names():
        if name.startswith("verify.check."):
            out.append(f"{name}.total_s")
        else:
            out += [f"{name}.calls", f"{name}.total_s", f"{name}.self_s"]
    return out + list(COUNTS)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count(counts, name, args, kwargs, result):
    if name == "sampled.extrema_reduce":
        counts["sampled.extrema_reduce.points_in"] += len(_arg(args, kwargs, 0, "f"))
        counts["sampled.extrema_reduce.points_out"] += len(result)
    elif name == "_kernels.dp_profile_pow":
        m = len(_arg(args, kwargs, 0, "values"))
        n = int(_arg(args, kwargs, 2, "nmax"))
        counts["_kernels.dp_profile_pow.cells"] += m * m * n
        counts["_kernels.dp_profile_pow.bytes_computed"] += 8 * m * m * (2 * n + 1)
    elif name == "_kernels.dp_with_parents":
        m = len(_arg(args, kwargs, 0, "values"))
        counts["_kernels.dp_with_parents.cells"] += m * (m - 1) // 2 * int(_arg(args, kwargs, 2, "n"))
    elif name == "_kernels.dp1_profile":
        m = len(_arg(args, kwargs, 0, "values"))
        counts["_kernels.dp1_profile.cells"] += m * int(_arg(args, kwargs, 1, "nmax"))
    elif name == "fourier.fourier_coeffs":
        m = len(_arg(args, kwargs, 0, "f"))
        counts["fourier.fourier_coeffs.bytes_computed"] += 3 * 8 * int(_arg(args, kwargs, 1, "N")) * m
    elif name == "embeddings.witness_generate" and result is not None:
        counts["embeddings.witness.points"] += len(result.function)
        for blk, cert in zip(result.blocks, result.certificates):
            if cert.window_dp_ran:
                counts["embeddings.witness.window_dp_ran"] += 1
            else:
                # the window of 3r + 1 points was extrema-reduced, then its DP skipped
                counts["embeddings.witness.window_dp_skipped"] += 1
                counts["embeddings.witness.points_reduced_unused"] += 3 * blk.r + 1


class Tracer:
    """Installs the wrappers; ``active`` is cleared while output checks run."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.counts = dict.fromkeys(COUNTS, 0)
        self.active = True
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            _count(counts, name, args, kwargs, result)
            return result

        return wrapper

    def _rebind(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname != "pvarlab" and not modname.startswith("pvarlab."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self):
        import pvarlab.cli  # noqa: F401  (loads every module that holds a target)
        import pvarlab.verify

        for modname, attr in TARGETS:
            mod = sys.modules[f"pvarlab.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = vars(cls)[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(f"{modname}.{attr}", original))
            else:
                original = getattr(mod, attr)
                self._rebind(original, self._wrap(f"{modname}.{attr}", original))
        battery = pvarlab.verify.Battery
        for check in BATTERY_CHECKS:
            original = vars(battery)[f"check_{check}"]
            self._restore.append((battery, f"check_{check}", original))
            setattr(battery, f"check_{check}", self._wrap(f"verify.check.{check}", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover.

        Children never overlap: the benchmark runs one job at a time.
        """
        own = [t1 - t0 for _, t0, t1, _ in self.spans]
        for (_, _, _, parent), d in zip(self.spans, list(own)):
            if parent >= 0:
                own[parent] -= d
        return own

    def metrics(self) -> dict[str, float]:
        """calls, total_s and self_s per traced function, plus the work counts."""
        names = span_names()
        calls = dict.fromkeys(names, 0)
        total = dict.fromkeys(names, 0.0)
        self_s = dict.fromkeys(names, 0.0)
        for (name, t0, t1, _), own in zip(self.spans, self._self_times()):
            calls[name] += 1
            total[name] += t1 - t0
            self_s[name] += own
        out: dict[str, float] = {}
        for name in names:
            if name.startswith("verify.check."):
                out[f"{name}.total_s"] = total[name]
            else:
                out[f"{name}.calls"] = calls[name]
                out[f"{name}.total_s"] = total[name]
                out[f"{name}.self_s"] = self_s[name]
        out.update(self.counts)
        out["kfunctional.profiles_per_bound"] = self._profiles_per_bound()
        return out

    def _profiles_per_bound(self) -> float:
        """pvariation_profile spans below a kfunctional_bounds span, per bound."""
        bounds = 0
        profiles = 0
        for name, _, _, parent in self.spans:
            if name == "kfunctional.kfunctional_bounds":
                bounds += 1
            elif name == "variation.pvariation_profile":
                while parent >= 0 and self.spans[parent][0] != "kfunctional.kfunctional_bounds":
                    parent = self.spans[parent][3]
                profiles += parent >= 0
        return profiles / bounds if bounds else 0.0

    def module_self_s(self) -> dict[str, float]:
        """Self time summed per pvarlab module (verify checks count as verify)."""
        shares: dict[str, float] = {}
        for (name, _, _, _), own in zip(self.spans, self._self_times()):
            mod = name.split(".")[0]
            shares[mod] = shares.get(mod, 0.0) + own
        return shares

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent index."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
