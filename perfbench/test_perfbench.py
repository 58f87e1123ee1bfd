"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir():
    path = run.WORKDIR / "test-jobs"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _run(job, workdir):
    _, out = workloads.run_job(job, workdir)
    assert workloads.check_job(job, out) is None
    return out


def test_benchmark_json_lists_what_the_runs_emit():
    per_layer = [m["name"] for m in BENCHMARK["per_layer"]]
    assert per_layer == tracer.metric_names() + list(run.TRACE_METRICS)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert set(run.PREDICTED) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "all", "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=workloads.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    expected = {f"{w}.{m['name']}": m["unit"] for w in workloads.WORKLOADS for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert "failed_frac" in proc.stdout


def test_job_times_are_scaled_by_the_probes_around_them():
    probes = [(0.0, 0.008), (0.3, 0.008), (0.6, 0.008), (5.0, 0.002), (5.2, 0.002), (5.4, 0.002)]
    slow = {"start": 0.1, "seconds": 1.0}
    fast = {"start": 5.1, "seconds": 0.5}
    far = {"start": 10.0, "seconds": 0.1}
    assert run._at_reference_speed(slow, probes) == pytest.approx(run.PROBE_REF_S / 0.008)
    assert run._at_reference_speed(fast, probes) == pytest.approx(0.5 * run.PROBE_REF_S / 0.002)
    assert run._at_reference_speed(far, probes) == pytest.approx(0.1 * run.PROBE_REF_S / 0.002)


def test_pvar_check_rejects_a_perturbed_profile_value(workdir):
    job = workloads.make_jobs("pvar", 5, 0, tiny=True)[0]
    out = _run(job, workdir)
    lines = out["out"].splitlines()
    n, value = lines[-1].split(",")
    lines[-1] = f"{n},{float(value) * (1 + 1e-9)!r}"
    assert "profile value" in workloads.check_job(job, dict(out, out="\n".join(lines)))
    sel = json.loads(out["selection"])
    sel["intervals"] = sel["intervals"][:-1]
    assert workloads.check_job(job, dict(out, selection=json.dumps(sel))) is not None
    assert workloads.check_job(job, dict(out, rc=1)) == "exit code 1"


def test_witness_check_rejects_an_uncertified_witness(workdir):
    job = workloads.make_jobs("witness", 5, 0, tiny=True)[0]
    out = _run(job, workdir)
    payload = json.loads(out["out"])
    payload["witness"]["certified"] = False
    assert workloads.check_job(job, dict(out, out=json.dumps(payload))) == "witness not certified"
    payload["witness"]["certified"] = True
    payload["witness"]["blocks"][0]["height"] *= 0.5
    assert workloads.check_job(job, dict(out, out=json.dumps(payload))) is not None


def test_analysis_checks_reject_corrupted_answers(workdir):
    kfunc, four = workloads.make_jobs("analysis", 5, 0, tiny=True)[:2]
    out = _run(kfunc, workdir)
    header, first, *rest = out["out"].splitlines()
    t, M, lower, upper, ratio, case = first.split(",")
    bad = ",".join([t, M, lower, repr(6 * float(lower)), ratio, case])
    assert "sandwich" in workloads.check_job(kfunc, dict(out, out="\n".join([header, bad, *rest])))
    out = _run(four, workdir)
    for key in ("a", "partial_sum", "fejer_mean"):
        wrong = out[key].copy()
        wrong[3] += 1e-6
        assert workloads.check_job(four, dict(out, **{key: wrong})) is not None
    assert workloads.check_job(four, dict(out, omega=out["omega"] * 1.01)) is not None


def test_verify_check_requires_pass():
    job = workloads.Job("verify", {}, ["verify", "--seed", "0"])
    assert workloads.check_job(job, {"rc": 0, "out": "seed 0\nok   x 0\nPASS 1/1\n"}) is None
    report = "seed 0\nFAIL x 1\nFAIL 0/1\n"
    assert workloads.check_job(job, {"rc": 0, "out": report}) is not None


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_and_untraced_batches_give_identical_outputs(name, workdir):
    jobs = workloads.make_jobs(name, 7, 0, tiny=True)
    plain = workloads.run_batch(jobs, workdir)
    rec = tracer.Tracer()
    rec.install()
    try:
        traced = workloads.run_batch(jobs, workdir, rec)
    finally:
        rec.uninstall()
    assert [r["error"] for r in plain + traced] == [None] * (2 * len(jobs))
    assert [r["digest"] for r in plain] == [r["digest"] for r in traced]
    assert rec.metrics()["cli.main.calls"] == sum(job.argv is not None for job in jobs)
    assert workloads.cli.main.__name__ == "main" and not hasattr(workloads.cli.main, "__wrapped__")
