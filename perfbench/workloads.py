"""The benchmark's four workloads: seeded inputs, jobs and output checks.

Sizes follow a fixed stratified design (``DESIGN_SEED``), identical for
every run seed, so that one batch does the same amount of work whatever the
seed; the run seed and the batch index draw the function values and the job
order.  Jobs go through ``pvarlab.cli.main(argv)`` in-process wherever the
CLI reaches the operation.  Every check runs after the timed call, reads the
output back and compares it with a reference that does not come from the
code path under test alone.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import pvarlab  # noqa: E402
from pvarlab import cli, fourier  # noqa: E402
from pvarlab.modulus import ModulusOfVariation  # noqa: E402
from pvarlab.sampled import SampledFunction  # noqa: E402
from pvarlab.variation import pvariation_bruteforce  # noqa: E402

if Path(pvarlab.__file__).resolve().parent != SRC / "pvarlab":
    raise ImportError(f"pvarlab imported from {pvarlab.__file__}, not from {SRC}")

WORKLOADS = ("pvar", "analysis", "witness", "verify")
DESIGN_SEED = 201107411
TWO_PI = 2.0 * math.pi

# Full-size batches; the run repeats whole batches for --seconds.
PVAR_JOBS = 80
ANALYSIS_PAIRS = 20          # kfunc jobs alternate with Fourier jobs
VERIFY_SEEDS = 4
WITNESS_FAMILIES = (         # phi, nu, k_max; p = 1 throughout
    ("power:3", "power:0.1", 3),
    ("power:3", "power:0.25", 2),
    ("power:2", "power:0.25", 2),
    ("power:2", "log", 2),
)

KFUNC_TS = "1,0.5,0.25,0.1,0.05"
FOURIER_NU_ALPHA = 0.5       # coefficient-decay report against nu(n) = n^0.5, p = 1
FOURIER_SHIFT_STEPS_DIV = 64  # modulus of continuity at delta = m/64 grid steps


@dataclass
class Job:
    kind: str
    data: dict
    argv: list[str] | None = None


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------

def _strata(count: int) -> np.ndarray:
    return (np.arange(count) + 0.5) / count


def _loguniform(count: int, lo: float, hi: float) -> np.ndarray:
    return lo * (hi / lo) ** _strata(count)


def _csv(values: np.ndarray) -> str:
    return ",".join(repr(float(v)) for v in values)


def _pvar_values(rng, family: str, m: int) -> np.ndarray:
    x = np.linspace(0.0, 1.0, m)
    if family == "noise":
        return rng.uniform(-1.0, 1.0, m)
    if family == "sine":
        freq = rng.uniform(1.0, 6.0)
        return np.sin(TWO_PI * freq * x + rng.uniform(0, TWO_PI)) + 0.2 * rng.standard_normal(m)
    return np.cumsum(rng.standard_normal(m)) / math.sqrt(m)


def _pvar_jobs(rng, tiny: bool) -> list[Job]:
    count, m_hi, n_hi = (6, 40, 6) if tiny else (PVAR_JOBS, 800, 32)
    design = np.random.default_rng(DESIGN_SEED)
    ms = np.rint(_loguniform(count, 8, m_hi)).astype(int)
    ns = np.rint(_loguniform(count, 1, n_hi)).astype(int)[design.permutation(count)]
    ps = [(1.0, 1.5, 2.0, 3.0)[i % 4] for i in design.permutation(count)]
    fams = [("noise", "sine", "walk")[i % 3] for i in design.permutation(count)]
    jobs = []
    for m, n, p, fam in zip(ms, ns, ps, fams):
        v = _pvar_values(rng, fam, int(m))
        argv = ["pvar", f"--values={_csv(v)}", "--p", repr(p), "--n", str(n)]
        jobs.append(Job("pvar", {"values": v, "p": p, "n": int(n)}, argv))
    return [jobs[i] for i in rng.permutation(len(jobs))]


def _analysis_jobs(rng, tiny: bool) -> list[Job]:
    pairs = 2 if tiny else ANALYSIS_PAIRS
    design = np.random.default_rng(DESIGN_SEED + 1)
    kfunc = []
    k_ms = np.rint(_loguniform(pairs, 64, 96 if tiny else 512)).astype(int)
    k_ps = [(1.0, 2.0)[i % 2] for i in design.permutation(pairs)]
    for m, p in zip(k_ms, k_ps):
        x = np.linspace(0.0, 1.0, int(m))
        v = (np.sin(TWO_PI * rng.uniform(1.0, 4.0) * x + rng.uniform(0, TWO_PI))
             + 0.1 * rng.standard_normal(int(m)))
        argv = ["kfunc", f"--values={_csv(v)}", "--p", repr(p), "--t", KFUNC_TS]
        kfunc.append(Job("kfunc", {}, argv))
    four = []
    for m in 2 * np.rint(_loguniform(pairs, 2 ** 7, 2 ** (9 if tiny else 11))).astype(int):
        g = np.linspace(0.0, TWO_PI, int(m), endpoint=False)
        v = (rng.uniform(0.5, 2.0) * (g < rng.uniform(0.5, 5.5))
             + np.cos(int(rng.integers(1, 5)) * g + rng.uniform(0, TWO_PI)))
        four.append(Job("fourier", {"g": g, "v": v, "N": int(m) // 2 - 1}))
    kfunc = [kfunc[i] for i in rng.permutation(pairs)]
    four = [four[i] for i in rng.permutation(pairs)]
    return [job for pair in zip(kfunc, four) for job in pair]


def _witness_jobs(rng, tiny: bool) -> list[Job]:
    # The generator is deterministic in its spec; the seed sets the job order.
    families = [("power:3", "power:0.25", 1)] if tiny else WITNESS_FAMILIES
    jobs = []
    for i in rng.permutation(len(families)):
        phi, nu, k_max = families[i]
        argv = ["embed", "--phi", phi, "--nu", nu, "--p", "1", "--k-max", str(k_max), "--witness"]
        jobs.append(Job("witness", {"phi": phi, "nu": nu, "p": 1.0}, argv))
    return jobs


def _verify_jobs(seed: int, batch: int, tiny: bool) -> list[Job]:
    count = 1 if tiny else VERIFY_SEEDS
    first = 1000 * seed + count * batch
    return [Job("verify", {}, ["verify", "--seed", str(s)]) for s in range(first, first + count)]


def make_jobs(workload: str, seed: int, batch: int, tiny: bool = False) -> list[Job]:
    """The job list of one batch; the same (workload, seed, batch) gives the same jobs."""
    rng = np.random.default_rng([seed, batch])
    if workload == "pvar":
        return _pvar_jobs(rng, tiny)
    if workload == "analysis":
        return _analysis_jobs(rng, tiny)
    if workload == "witness":
        return _witness_jobs(rng, tiny)
    if workload == "verify":
        return _verify_jobs(seed, batch, tiny)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# Running a job
# ---------------------------------------------------------------------------

def _fourier_call(g, v, N):
    f = SampledFunction(g, v, periodic=True, period=TWO_PI)
    c = fourier.fourier_coeffs(f, N)
    return {
        "a0": c.a0, "a": c.a, "b": c.b,
        "partial_sum": fourier.partial_sum(c, N, g),
        "fejer_mean": fourier.fejer_mean(c, N, g),
        "decay": fourier.coeff_decay_report(f, ModulusOfVariation.power(FOURIER_NU_ALPHA), 1.0, N),
        "omega": fourier.modulus_of_continuity(f, g[len(g) // FOURIER_SHIFT_STEPS_DIV]),
    }


def run_job(job: Job, workdir: Path) -> tuple[float, dict]:
    """Run one job; returns (seconds in the timed call, output read back)."""
    if job.kind == "fourier":
        t0 = perf_counter()
        out = _fourier_call(job.data["g"], job.data["v"], job.data["N"])
        return perf_counter() - t0, out
    out_path = workdir / "out"
    sel_path = workdir / "selection.json"
    argv = job.argv + ["--out", str(out_path)]
    if job.kind == "pvar":
        argv += ["--selection-out", str(sel_path)]
    for path in (out_path, sel_path):
        path.unlink(missing_ok=True)
    t0 = perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as e:  # argparse rejected the arguments
        rc = e.code
    seconds = perf_counter() - t0
    out = {"rc": rc}
    for key, path in (("out", out_path), ("selection", sel_path)):
        out[key] = path.read_text() if path.exists() else None
    return seconds, out


def digest(out: dict) -> str:
    """Hash of a job's output, to compare traced and untraced runs."""
    h = hashlib.sha256()
    for key in sorted(out):
        value = out[key]
        h.update(key.encode())
        h.update(value.tobytes() if isinstance(value, np.ndarray) else repr(value).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

# CLI numbers carry 12 significant digits: half a unit in the 12th digit.
_CLI_ROUNDING = 5e-12


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _check_pvar(job: Job, out: dict) -> str | None:
    v, p, n = job.data["values"], job.data["p"], job.data["n"]
    lines = out["out"].splitlines()
    if lines[0] != "n,value" or len(lines) != n + 1:
        return f"profile has {len(lines) - 1} rows, expected {n}"
    profile = [float(line.split(",")[1]) for line in lines[1:]]
    sel = json.loads(out["selection"])
    intervals = sel["intervals"]
    if len(intervals) > n or any(i >= j for i, j in intervals):
        return "selection has too many or empty intervals"
    if any(a[1] > b[0] for a, b in zip(intervals, intervals[1:])):
        return "selection intervals overlap"
    objective = float(sum(abs(v[j] - v[i]) ** p for i, j in intervals) ** (1.0 / p))
    if not _close(objective, sel["value"], 1e-12):
        return f"selection objective {objective!r} != selection value {sel['value']!r}"
    # profile kernel vs backtracking kernel, through the 12-digit CSV
    if not _close(objective, profile[n - 1], 1e-12 + _CLI_ROUNDING):
        return f"selection objective {objective!r} != profile value {profile[n - 1]!r}"
    if len(v) <= 15 and n <= 6:
        brute, _ = pvariation_bruteforce(SampledFunction(np.linspace(0.0, 1.0, len(v)), v), p, n)
        if not _close(brute, profile[n - 1], 1e-12 + _CLI_ROUNDING):
            return f"brute force {brute!r} != profile value {profile[n - 1]!r}"
    return None


def _check_kfunc(job: Job, out: dict) -> str | None:
    lines = out["out"].splitlines()
    if lines[0] != "t,M,lower,upper,ratio,case" or len(lines) != 1 + KFUNC_TS.count(",") + 1:
        return "unexpected kfunc table"
    slack = 1.0 + 1e-11
    for line in lines[1:]:
        t, _, lower, upper, _, _ = line.split(",")
        lower, upper = float(lower), float(upper)
        if not (lower > 0 and lower / 2 <= upper * slack and upper <= 5 * lower * slack):
            return f"sandwich lower/2 <= upper <= 5 lower fails at t = {t}: {lower!r}, {upper!r}"
    return None


def _check_fourier(job: Job, out: dict) -> str | None:
    v, N = job.data["v"], job.data["N"]
    m = v.size
    X = np.fft.rfft(v)
    a_ref, b_ref = (2.0 / m) * X.real, -(2.0 / m) * X.imag
    err = max(abs(out["a0"] - a_ref[0]), np.max(np.abs(out["a"] - a_ref[1:N + 1])),
              np.max(np.abs(out["b"] - b_ref[1:N + 1])))
    if err > 1e-9:
        return f"coefficients differ from rfft by {err:.3g}"
    C = np.zeros(m // 2 + 1, dtype=complex)
    C[:N + 1] = X[:N + 1]
    weights = 1.0 - np.arange(N + 1) / (N + 1.0)
    scale = 1.0 + float(np.max(np.abs(v)))
    for key, coeffs in (("partial_sum", C), ("fejer_mean", C * np.append(weights, 0.0))):
        err = float(np.max(np.abs(out[key] - np.fft.irfft(coeffs, m))))
        if err > 1e-9 * scale:
            return f"{key} differs from the weighted irfft by {err:.3g}"
    ks = np.arange(1, N + 1, dtype=np.float64)
    decay_ref = float(np.max(np.hypot(a_ref, b_ref)[1:N + 1] * ks / ks ** FOURIER_NU_ALPHA))
    if not _close(out["decay"], decay_ref, 1e-9):
        return f"decay report {out['decay']!r} != rfft reference {decay_ref!r}"
    steps = m // FOURIER_SHIFT_STEPS_DIV
    omega_ref = max(float(np.max(np.abs(np.roll(v, -h) - v))) for h in range(1, steps + 1))
    if abs(out["omega"] - omega_ref) > 1e-12:
        return f"modulus of continuity {out['omega']!r} != shift reference {omega_ref!r}"
    return None


def _nu(spec: str, n: int) -> float:
    return math.log1p(n) if spec == "log" else n ** float(spec.split(":")[1])


def _check_witness(job: Job, out: dict) -> str | None:
    payload = json.loads(out["out"])
    w = payload.get("witness")
    if payload.get("verdict") != "Fails" or w is None:
        return "no witness for a failing criterion"
    if not w["certified"]:
        return "witness not certified"
    p, q = job.data["p"], float(job.data["phi"].split(":")[1])
    blocks = {b["k"]: b for b in w["blocks"]}
    varphi = 0.0
    for cert in w["certificates"]:
        blk = blocks[cert["k"]]
        # 2r teeth edges of height h: objective (2r)^(1/p) h over nu(n)
        ratio = (2 * blk["r"]) ** (1.0 / p) * blk["height"] / _nu(job.data["nu"], blk["n"])
        if cert["ratio"] < cert["required"] or ratio < cert["required"]:
            return f"block k = {cert['k']}: ratio {cert['ratio']!r} below {cert['required']!r}"
        if not _close(ratio, cert["ratio"], 1e-9) or cert["intervals"] != 2 * blk["r"]:
            return f"block k = {cert['k']}: certificate disagrees with its block"
        varphi += 2 * blk["r"] * blk["height"] ** q
    if varphi > 2.0 * (1.0 + 1e-9):
        return f"Phi-variation {varphi!r} exceeds the ball radius 2"
    return None


def _check_verify(job: Job, out: dict) -> str | None:
    if not out["out"].rstrip("\n").splitlines()[-1].startswith("PASS"):
        return "battery report does not end in PASS"
    return None


_CHECKS = {"pvar": _check_pvar, "kfunc": _check_kfunc, "fourier": _check_fourier,
           "witness": _check_witness, "verify": _check_verify}


def check_job(job: Job, out: dict) -> str | None:
    """None when the output is right, else what is wrong with it."""
    if job.kind != "fourier" and (out["rc"] != 0 or out["out"] is None):
        return f"exit code {out['rc']}"
    return _CHECKS[job.kind](job, out)


class SpeedProbe:
    """Times a fixed task between jobs to follow the speed of the machine.

    On a shared VM the speed can drift by up to 1.6x within seconds, and the
    drift moves most jobs alike.  The task mixes what the workloads do: an
    interpreter loop, small numpy calls, dict and float objects, and array
    sorts and scans.  ``run.py`` scales each job's time by ``PROBE_REF_S``
    over the median time of the probes run around it.
    """

    EVERY_S = 0.25  # one probe per quarter second of run time
    BURST = 8       # at most this many at once, after a long job

    def __init__(self):
        rng = np.random.default_rng(0)
        self._tiny = rng.uniform(size=64)
        self._small = rng.uniform(size=30_000)
        self._large = rng.uniform(size=250_000)
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._last = -math.inf

    def _once(self) -> tuple[float, float]:
        t0 = perf_counter()
        acc = 0
        for i in range(20_000):
            acc += i * i
        for i in range(300):
            np.maximum.accumulate(np.abs(self._tiny - self._tiny[i % 64]))
        table: dict[int, float] = {}
        for i in range(5_000):
            table[i % 97] = table.get(i % 97, 0.0) + float(i) ** 0.5
        np.sort(self._small)
        np.cumsum(self._large)
        return t0, perf_counter() - t0

    def maybe_run(self):
        due = (perf_counter() - self._last) / self.EVERY_S
        for _ in range(int(min(due, self.BURST))):
            self.samples.append(self._once())
        if due >= 1:
            self._last = perf_counter()


def run_batch(jobs: list[Job], workdir: Path, tracer=None, probe=None) -> list[dict]:
    """Run the jobs one at a time (closed loop, one client) and check each.

    A job that raises or fails its check is counted as failed; checks run
    with the tracer paused so that their calls into pvarlab leave no spans.
    The speed probe, if given, runs between jobs, outside their timing.
    """
    results = []
    for job in jobs:
        if probe is not None:
            probe.maybe_run()
        t0 = perf_counter()
        try:
            seconds, out = run_job(job, workdir)
        except Exception as e:  # a raising job is a failed job, not a crash
            results.append({"kind": job.kind, "start": t0, "seconds": perf_counter() - t0,
                            "error": f"raised {type(e).__name__}: {e}", "digest": None})
            continue
        if tracer is not None:
            tracer.active = False
        try:
            error = check_job(job, out)
        except Exception as e:  # malformed output
            error = f"check raised {type(e).__name__}: {e}"
        finally:
            if tracer is not None:
                tracer.active = True
        results.append({"kind": job.kind, "start": t0, "seconds": seconds, "error": error,
                        "digest": digest(out)})
    if probe is not None:
        probe.maybe_run()
    return results
