import dataclasses
import functools
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from pvarlab.verify import Battery, run_battery

DATA = Path(__file__).parent / "data"

# The benchmark's span tracer wraps each of these methods on the class, by name.
CHECKS = (
    "dp_oracle", "holder_chain", "triangle_homogeneity", "extrema_reduce",
    "epsilon_properties", "kfunctional", "fejer", "lemma_q", "theta_bracket",
    "unif2", "sine_integral", "embedding", "inverse", "wu", "norms",
)


def test_battery_runs_each_check_once_in_order(monkeypatch):
    assert [k for k in vars(Battery) if k.startswith("check_")] == [f"check_{c}" for c in CHECKS]
    # each check fixes its own sizes: ``run`` is the only caller and passes none
    for c in CHECKS:
        assert list(inspect.signature(getattr(Battery, f"check_{c}")).parameters) == ["self"]
    calls = []
    for c in CHECKS:
        monkeypatch.setattr(Battery, f"check_{c}", lambda self, c=c: calls.append(c))
    Battery(1).run()
    assert calls == list(CHECKS)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_report_matches_pinned_bytes(seed):
    assert run_battery(seed)[0].encode() == (DATA / f"verify_seed{seed}.txt").read_bytes()


def test_traced_names_resolve():
    # The benchmark tracer wraps pvarlab functions by name from outside the
    # package; a deleted or renamed name would only fail its own test suite.
    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for modname, attr in tracer.TARGETS:
        module = importlib.import_module(f"pvarlab.{modname}")
        if "." in attr:  # the tracer reads a method from its own class's __dict__
            cls_name, meth = attr.split(".")
            target = vars(getattr(module, cls_name, object)).get(meth)
        else:
            target = getattr(module, attr, None)
        if not callable(target):
            missing.append(f"{modname}.{attr}")
    missing += [f"Battery.check_{c}" for c in tracer.BATTERY_CHECKS
                if not callable(vars(Battery).get(f"check_{c}"))]
    assert missing == []
    # the attributes of a witness that the tracer's work counts read
    from pvarlab.embeddings import BlockCertificate, Witness, WitnessBlock

    assert isinstance(vars(Witness).get("function"), functools.cached_property)
    read = {Witness: {"blocks", "certificates"}, BlockCertificate: {"window_dp_ran"},
            WitnessBlock: {"r"}}
    for cls, names in read.items():
        assert names <= {f.name for f in dataclasses.fields(cls)}, cls.__name__
