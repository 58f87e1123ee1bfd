"""What pvarlab exports, and what the traced benchmark reads from it."""

import dataclasses
import importlib
import importlib.util
import pathlib
import types

import pvarlab
from pvarlab import _kernels, verify
from pvarlab.embeddings import BlockCertificate

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# The modules whose ``__all__`` the package re-exports.
EXPORTING = ("embeddings", "fourier", "kfunctional", "modulus", "sampled", "seqspaces", "variation")


def _load_tracer():
    """``perfbench/tracer.py`` loaded by path, as a module of its own; nothing is installed."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer_targets", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_targets_exist():
    # the tracer wraps functions by name and methods from their class's own dict
    tracer = _load_tracer()
    for modname, attr in tracer.TARGETS:
        module = importlib.import_module(f"pvarlab.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), (modname, attr)
        else:
            assert callable(getattr(module, attr, None)), (modname, attr)
    for check in tracer.BATTERY_CHECKS:
        assert callable(vars(verify.Battery).get(f"check_{check}")), check
    # the worker records the backend, and the tracer counts window DPs from certificates
    assert callable(_kernels.backend_name)
    assert "window_dp_ran" in {f.name for f in dataclasses.fields(BlockCertificate)}


def test_public_names_are_the_modules_all():
    public = {name for name, value in vars(pvarlab).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    exported = set()
    for modname in EXPORTING:
        exported.update(importlib.import_module(f"pvarlab.{modname}").__all__)
    assert public == exported
