"""pvarlab benchmark: certified-batch wall time, per-job latency, peak RSS.

    python3 perfbench/run.py --workload pvar --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run it from the root of a checkout; it imports pvarlab from ``src/``.  Each
workload runs in processes of its own (``worker.py``), one client running
one job at a time in a closed loop.  With ``--trace 0`` it prints the
end-to-end metrics: set-up time (median over several fresh processes), the
median batch wall time, the median and 90th-percentile job time, the peak
RSS of the process that ran only this workload, and the failed fraction.
Times are scaled to a reference machine speed by a probe run between jobs;
the measured times are printed beside them.
With ``--trace 1`` it runs one batch untraced and the same batch traced,
checks that both give identical outputs, and prints the per-layer metrics
and the tracing overhead.  The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Workloads, reasons and predictions: ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_out"
WORKLOADS = ("pvar", "analysis", "witness", "verify")
SETUP_PROCESSES = 4  # plus the measuring process itself: setup_s is a median of 5
DEADLINE_S = 170.0   # each workload ends well within 180 s
# End-to-end times are reported at a fixed reference speed: each measured
# time times PROBE_REF_S over the median SpeedProbe time around it.  The
# probe takes 3 to 6 ms on a 2 vCPU x86 VM (CPython 3.11, numpy 2.4).
PROBE_REF_S = 0.004
# Witness jobs are multi-second, memory-heavy runs whose times do not follow
# the probe: over two sets of ten runs their wall_s spread was 0.083 and
# 0.136 as measured, 0.17 and 0.22 scaled.  Their times are reported as measured.
UNSCALED = ("witness",)
TRACE_METRICS = ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s", "trace.spans")

# Layer groups the trace should show dominating each workload (NOTES.md).
PREDICTED = {
    "pvar": ("_kernels.dp_with_parents",),
    "analysis": ("fourier",),
    "witness": ("_kernels.dp1_profile", "sampled.extrema_reduce"),
    "verify": ("embeddings.phi_partial_inverse", "embeddings.PhiSequence.inverse_at_one_table",
               "seqspaces.orlicz_norm", "seqspaces.modular_norm"),
}


class RunFailed(Exception):
    pass


def _worker(workload, seed, seconds, mode, deadline, trace=0, max_batches=None, tiny=False):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode, "--trace", str(trace),
           "--workdir", str(WORKDIR)]
    if max_batches is not None:
        cmd += ["--max-batches", str(max_batches)]
    if tiny:
        cmd.append("--tiny")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed(f"no time left for the {workload} {mode} process")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        raise RunFailed(f"{workload} {mode} process timed out") from None
    if proc.returncode != 0:
        raise RunFailed(f"{workload} {mode} process exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _jobs(record):
    return [job for batch in record["batches"] for job in batch["jobs"]]


def _failures(jobs):
    return [job for job in jobs if job["error"] is not None]


def _p90(times):
    # inclusive: with few jobs the estimate stays between the largest two
    return statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]


def _at_reference_speed(job, probes, window=0.5):
    """The job's time scaled by PROBE_REF_S over the median of the probes run
    within ``window`` seconds of it, or of the three nearest when fewer."""
    start, end = job["start"], job["start"] + job["seconds"]
    near = [dt for t, dt in probes if start - window <= t <= end + window]
    if len(near) < 3:
        near = [dt for _, dt in sorted(probes, key=lambda p: max(start - p[0], p[0] - end))[:3]]
    return job["seconds"] * PROBE_REF_S / statistics.median(near)


def measure(workload, seed, seconds, deadline, tiny=False):
    """Untraced run: end-to-end metrics, printed and returned."""
    setups = [_worker(workload, seed, seconds, "setup", deadline, tiny=tiny)
              for _ in range(SETUP_PROCESSES)]
    rec = _worker(workload, seed, seconds, "run", deadline, tiny=tiny)
    setups.append(rec)
    batches = rec["batches"]
    jobs = _jobs(rec)
    failed = _failures(jobs)
    times = [job["seconds"] for job in jobs]
    measured = {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "wall_s": statistics.median(batch["wall_s"] for batch in batches),
        "job_s.p50": statistics.median(times),
        "job_s.p90": _p90(times),
    }
    if workload in UNSCALED:
        scaled = [[job["seconds"] for job in batch["jobs"]] for batch in batches]
    else:
        scaled = [[_at_reference_speed(job, rec["probes"]) for job in batch["jobs"]]
                  for batch in batches]
    scaled_times = [t for batch in scaled for t in batch]
    metrics = {
        # each set-up process is scaled by the probes it ran right after its set-up
        "setup_s": (statistics.median(r["setup_s"] * PROBE_REF_S / statistics.median(r["setup_probes"])
                                      for r in setups), "s"),
        "wall_s": (statistics.median(sum(batch) for batch in scaled), "s"),
        "job_s.p50": (statistics.median(scaled_times), "s"),
        "job_s.p90": (_p90(scaled_times), "s"),
        "peak_rss_mb": (rec["peak_rss_mb"], "MB"),
    }
    probe_s = statistics.median(dt for _, dt in rec["probes"])
    beyond = sum(t > measured["job_s.p90"] for t in times)
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "wall_s": f"median of {len(batches)} batches of {len(batches[0]['jobs'])} jobs",
        "job_s.p50": f"n = {len(times)}",
        "job_s.p90": f"n = {len(times)}, {beyond} beyond"
                     + ("" if beyond >= 10 else "; too few for a tail, wall_s carries it"),
        "peak_rss_mb": "ru_maxrss of the process that ran only this workload",
    }
    for name, value in measured.items():
        notes[name] += f"; measured {value:.6g} s"
    speed = ("job times as measured" if workload in UNSCALED
             else f"times at reference speed {PROBE_REF_S:g} s per probe")
    print(f"workload {workload}  seed {seed}  (untraced; {speed}; "
          f"median probe {probe_s:.6g} s over {len(rec['probes'])} probes)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<12} {value:12.6g} {unit:<3} {notes[name]}")
    print(f"  {'failed_frac':<12} {len(failed) / len(jobs):12.6g} 1   {len(failed)}/{len(jobs)} jobs")
    for job in failed:
        print(f"    FAILED {job['kind']}: {job['error']}")
    env = rec["env"]
    print(f"  env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"backend {env['backend']}")
    _save(workload, seed, 0, {"env": env, "setups": setups[:-1], "record": rec})
    return metrics, len(jobs), len(failed)


def trace(workload, seed, seconds, deadline, tiny=False):
    """Traced run: per-layer metrics of one batch, checked against an untraced batch."""
    plain = _worker(workload, seed, seconds, "run", deadline, max_batches=1, tiny=tiny)
    traced = _worker(workload, seed, seconds, "run", deadline, trace=1, max_batches=1, tiny=tiny)
    plain_jobs, traced_jobs = _jobs(plain), _jobs(traced)
    failed = _failures(plain_jobs + traced_jobs)
    mismatched = [b for a, b in zip(plain_jobs, traced_jobs) if a["digest"] != b["digest"]]
    wall, plain_wall = traced["batches"][0]["wall_s"], plain["batches"][0]["wall_s"]
    layers = dict(traced["layers"])
    layers.update(zip(TRACE_METRICS, (wall, plain_wall, wall - plain_wall, traced["spans"])))
    metrics = {name: (value, _unit(name)) for name, value in layers.items()}

    print(f"workload {workload}  seed {seed}  (traced, one batch of {len(traced_jobs)} jobs)")
    print(f"  traced wall_s {wall:.6g} s, untraced {plain_wall:.6g} s, "
          f"overhead {wall - plain_wall:+.6g} s over {traced['spans']} spans")
    print("  self time by module:")
    for mod, s in sorted(traced["module_self_s"].items(), key=lambda kv: -kv[1]):
        print(f"    {mod:<12} {s:10.4f} s  {100 * s / wall:5.1f}%")
    selfs = {n[:-len(".self_s")]: v for n, v in layers.items() if n.endswith(".self_s")}
    print("  top functions by self time:")
    for name, s in sorted(selfs.items(), key=lambda kv: -kv[1])[:6]:
        print(f"    {name:<44} {s:10.4f} s  {100 * s / wall:5.1f}%")
    print("  counts (computed from arguments and results, not measured):")
    for name, value in layers.items():
        if not name.endswith(("_s", ".calls")) and not name.startswith("trace."):
            print(f"    {name:<44} {value:.10g}")
    _report_prediction(workload, traced["module_self_s"], selfs)
    print(f"  outputs identical to the untraced batch: {len(plain_jobs) - len(mismatched)}"
          f"/{len(plain_jobs)}")
    for job in failed:
        print(f"    FAILED {job['kind']}: {job['error']}")
    _save(workload, seed, 1, {"env": traced["env"], "plain": plain, "traced": traced})
    bad = sum(a["error"] is not None or b["error"] is not None or a["digest"] != b["digest"]
              for a, b in zip(plain_jobs, traced_jobs))
    return metrics, len(traced_jobs), bad


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_computed"):
        return "bytes"
    if name.endswith("profiles_per_bound"):
        return "1"
    return "count"


def _report_prediction(workload, module_self, selfs):
    """Does the predicted group take more self time than any other module?"""
    group = PREDICTED[workload]
    share = sum(v for k, v in module_self.items() if k in group)
    share += sum(v for k, v in selfs.items() if k in group)
    rest = dict(module_self)
    for name in group:
        if name in selfs:
            mod = name.split(".")[0]
            rest[mod] = rest.get(mod, 0.0) - selfs[name]
    rival = max((v, k) for k, v in rest.items() if k not in group)
    verdict = "holds" if share > rival[0] else f"DOES NOT HOLD: {rival[1]} takes {rival[0]:.4f} s"
    print(f"  prediction: {' + '.join(group)} dominate(s) with {share:.4f} s -> {verdict}")


def _save(workload, seed, traced, record):
    path = WORKDIR / f"result-{workload}-seed{seed}-trace{traced}.json"
    path.write_text(json.dumps(record))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few small jobs per workload, for the benchmark's own tests")
    args = ap.parse_args()
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "pvarlab" / "__init__.py").is_file():
        print(f"error: no pvarlab source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    run = trace if args.trace else measure
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            m, a, f = run(name, args.seed, args.seconds, deadline, args.tiny)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted += a
            failed += f
    except RunFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
