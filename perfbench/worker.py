"""One benchmark process: sets up one workload and runs its batches.

    python3 perfbench/worker.py --workload pvar --seed 1 --seconds 20 --mode run

``--mode setup`` only imports pvarlab and generates the first batch, to time
set-up.  ``--mode run`` also runs whole batches, one job at a time, for as
long as the next batch is expected to finish within ``--seconds`` (at least
one), and ``--trace 1`` records spans around the calls into each layer.  The
last line of standard output is a JSON record for ``run.py``.
"""

from time import perf_counter

_T0 = perf_counter()  # before numpy and pvarlab are imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (imports numpy and pvarlab)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "run"], required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--max-batches", type=int, default=None)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    jobs = workloads.make_jobs(args.workload, args.seed, 0, args.tiny)
    setup_s = perf_counter() - _T0
    probe = workloads.SpeedProbe()
    probe.maybe_run()
    record = {"setup_s": setup_s, "setup_probes": [dt for _, dt in probe.samples]}
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    import numpy as np
    from pvarlab import _kernels

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workdir = Path(args.workdir) / f"jobs-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    batches = []
    try:
        start = perf_counter()
        while True:
            t0 = perf_counter()
            results = workloads.run_batch(jobs, workdir, tracer, probe)
            batch_elapsed = perf_counter() - t0
            batches.append({"wall_s": sum(r["seconds"] for r in results), "jobs": results})
            if args.max_batches is not None and len(batches) >= args.max_batches:
                break
            if perf_counter() - start + batch_elapsed > args.seconds:
                break
            jobs = workloads.make_jobs(args.workload, args.seed, len(batches), args.tiny)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["batches"] = batches
    record["probes"] = probe.samples
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["env"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "backend": _kernels.backend_name(),
    }
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = tracer.metrics()
        record["module_self_s"] = tracer.module_self_s()
        record["spans"] = len(tracer.spans)
        tracer.write(Path(args.workdir) / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
