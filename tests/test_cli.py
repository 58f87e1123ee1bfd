import csv
import gc
import gzip
import hashlib
import io
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pvarlab import _kernels, embeddings, validate_modulus
from pvarlab import cli
from pvarlab.cli import _indented_json, main
from pvarlab.functions import from_spec
from pvarlab.modulus import ModulusOfVariation, parse_modulus
from pvarlab.sampled import SampledFunction

from oracles import from_spec_split, gauge_spec_fields, parse_modulus_split

DATA = pathlib.Path(__file__).parent / "data"

def run_cli(args, env=None, timeout=None):
    # A sealed env still needs PYTHONPATH to find a source-checkout pvarlab.
    # A run past ``timeout`` seconds raises subprocess.TimeoutExpired: a hang fails.
    if env is not None and "PYTHONPATH" in os.environ:
        env = {**env, "PYTHONPATH": os.environ["PYTHONPATH"]}
    proc = subprocess.run([sys.executable, "-m", "pvarlab.cli", *args],
                          capture_output=True, text=True, env=env, timeout=timeout)
    return proc


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    # every command of the README's CLI block, in-process, in a scratch directory
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(commands) >= 9 and all(argv[0] == "pvarlab" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, shlex.join(argv)


def test_pvar_zigzag_csv(tmp_path):
    out = tmp_path / "pvar.csv"
    sel = tmp_path / "sel.json"
    rc = main(["pvar", "--values", "0,1,0,1,0", "--p", "1", "--n", "4",
               "--out", str(out), "--selection-out", str(sel)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,value"
    assert lines[-1] == "4,4"
    payload = json.loads(sel.read_text())
    assert payload["value"] == 4.0
    assert len(payload["intervals"]) == 4


@pytest.mark.parametrize("argv", [
    ["pvar", "--values", "0,1,0,1,0", "--p", "0.5", "--n", "3"],
    ["pvar", "--values", "0,1,0,1,0", "--p", "nan", "--n", "3"],
    ["kfunc", "--function", "zigzag:5", "--p", "0.5", "--t", "1,0.5"],
    ["kfunc", "--function", "zigzag:5", "--p", "inf", "--t", "1,0.5"],
    ["fourier", "--p", "nan", "--nu", "log", "--omega", "log", "--n-list", "8"],
    ["fourier", "--p", "nan", "--nu", "log", "--decay", "--function", "square:64"],
    ["fourier", "--p", "0.5", "--nu", "log", "--omega", "log", "--n-list", "8"],
    ["embed", "--phi", "power:2", "--nu", "log", "--p", "nan", "--horizon", "64"],
    ["embed", "--phi", "power:2", "--nu", "log", "--p", "0.5", "--horizon", "64"],
    ["seqnorm", "--space", "marcinkiewicz", "--x", "1,2", "--p", "0.5"],
    ["seqnorm", "--space", "marcinkiewicz", "--x", "1,2", "--p", "inf"],
    ["seqnorm", "--space", "lorentz", "--x", "1,2", "--q", "0"],
    ["seqnorm", "--space", "lorentz", "--x", "1,2", "--q", "inf"],
])
def test_invalid_p_exits_2_before_output(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "must be finite and >= 1" in err  # p, or the Lorentz q of seqnorm


_EMBED = ["--nu", "log", "--p", "1", "--horizon", "64"]


@pytest.mark.parametrize("argv,hint", [
    (["seqnorm", "--space", "orlicz", "--q", "nan", "--x", "1,2"], "q must be finite and >= 1"),
    (["seqnorm", "--space", "orlicz", "--q", "inf", "--x", "1,2"], "q must be finite and >= 1"),
    (["seqnorm", "--space", "modular", "--phi", "power:nan", "--x", "1,2"],
     "q must be finite and >= 1"),
    (["embed", "--phi", "power:nan", *_EMBED], "q must be finite and >= 1"),
    (["embed", "--phi", "orlicz:power:nan", *_EMBED], "q must be finite and >= 1"),
    (["embed", "--phi", "lambda:nan", *_EMBED], "q must be finite and >= 1"),
    (["embed", "--phi", "lambda:2:nan", *_EMBED], "needs 0 <= beta <= 1"),
])
def test_nan_and_inf_gauge_exponents_exit_2_before_output(argv, hint, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert hint in err


@pytest.mark.parametrize("argv", [
    ["pvar", "--values=1e308,-1e308,1e308", "--p", "2", "--n", "2"],
    ["pvar", "--values=1e200,-1e200,1e200", "--p", "2", "--n", "2"],
    ["pvar", "--values=1e308,-1e307,1e308", "--p", "1", "--n", "2"],
    ["kfunc", "--values=1e308,-1e308,1e308", "--p", "2", "--t", "1,0.5"],
    ["kfunc", "--values=1e200,-1e200,1e200", "--p", "3", "--t", "0.5"],
    ["kfunc", "--function", "zigzag:9", "--p", "3", "--t", "1e-120"],  # floor(1/t)^p
    ["kfunc", "--function", "zigzag:9", "--p", "1", "--t", "5e-324"],  # 1/t = inf
    ["seqnorm", "--space", "marcinkiewicz", "--x", "1e300,1e300", "--p", "2"],
    ["seqnorm", "--space", "lorentz", "--x", "1e300,1e300", "--q", "2"],
])
def test_overflowing_values_exit_2_before_output(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "overflows" in err


@pytest.mark.parametrize("argv", [
    ["pvar", "--values=0,1e-150,0", "--p", "3", "--n", "1"],
    ["pvar", "--values=0,0,1.65e-268", "--p", "1.5", "--n", "2"],
    ["kfunc", "--values=0,1e-150,0,1e-150,0", "--p", "3", "--t", "1,0.5"],
])
def test_underflowing_values_exit_2_before_output(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "(max - min)^p underflows; rescale the input" in err


@pytest.mark.parametrize("argv, power", [
    (["seqnorm", "--space", "marcinkiewicz", "--x", "1e-200", "--p", "3"], "p"),
    (["seqnorm", "--space", "lorentz", "--x", "1e-200", "--q", "2"], "q"),
])
def test_underflowing_norms_exit_2_before_output(argv, power, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"(max |x|)^{power} underflows; rescale the input" in err


def test_small_values_above_underflow_give_rows(capsys):
    assert main(["pvar", "--values=0,1e-100,0,1e-100,0", "--p", "3", "--n", "2"]) == 0
    assert capsys.readouterr().out == "n,value\n1,1e-100\n2,1.25992104989e-100\n"


def test_large_values_below_overflow_give_finite_rows(capsys):
    assert main(["pvar", "--values=1e150,-1e150,1e150", "--p", "2", "--n", "2"]) == 0
    assert capsys.readouterr().out == "n,value\n1,2e+150\n2,2.82842712475e+150\n"
    assert main(["kfunc", "--values=1e200,-1e200,1e200", "--p", "1", "--t", "1,0.5"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 2 and all(np.isfinite(float(v)) for r in rows for v in r.split(",")[:5])


def test_parser_is_built_once(monkeypatch, capsys):
    from pvarlab import cli

    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    try:
        assert main(["pvar", "--values", "0,1,0", "--p", "1", "--n", "1"]) == 0
        assert main(["pvar", "--p"]) == 2
        assert main(["kfunc", "--values", "0,1,0", "--p", "1", "--t", "1"]) == 0
        assert main(["pvar", "--help"]) == 0
    finally:
        cli._parser.cache_clear()
    assert builds == [1]
    out, err = capsys.readouterr()
    assert "usage: pvarlab pvar" in out and "usage: pvarlab pvar" in err


def test_pvar_values_with_leading_minus(capsys):
    assert main(["pvar", "--values", "-0.3,0.5,0.1", "--p", "1", "--n", "1"]) == 0
    assert capsys.readouterr().out == "n,value\n1,0.8\n"


@pytest.mark.parametrize("p", ["1", "1.5", "2", "3"])
def test_pvar_runs_one_dp(p, tmp_path, monkeypatch):
    calls = []
    parents = _kernels.dp_with_parents

    def counted(*args):
        calls.append(args)
        return parents(*args)

    def forbidden(*args):
        raise AssertionError("pvar ran a second DP")

    monkeypatch.setattr(_kernels, "dp_with_parents", counted)
    monkeypatch.setattr(_kernels, "dp_profile_pow", forbidden)
    monkeypatch.setattr(_kernels, "dp1_profile", forbidden)
    out = tmp_path / "pvar.csv"
    sel = tmp_path / "sel.json"
    values = ",".join(f"{v:.6f}" for v in np.random.default_rng(3).uniform(-1, 1, 40))
    rc = main(["pvar", "--values", values, "--p", p, "--n", "6",
               "--out", str(out), "--selection-out", str(sel)])
    assert rc == 0
    assert len(calls) == 1
    last = out.read_text().splitlines()[-1]
    assert last == f"6,{json.loads(sel.read_text())['value']:.12g}"


@pytest.mark.parametrize("p", ["1", "2"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_pvar_without_selection_runs_only_the_profile_dp(p, fmt, tmp_path, monkeypatch):
    values = ",".join(f"{v:.6f}" for v in np.random.default_rng(5).uniform(-1, 1, 60))
    argv = ["pvar", "--values", values, "--p", p, "--n", "40", "--format", fmt]
    kept, alone = tmp_path / "kept.txt", tmp_path / "alone.txt"
    assert main(argv + ["--out", str(kept), "--selection-out", str(tmp_path / "s.json")]) == 0

    def forbidden(*args):
        raise AssertionError("pvar ran the DP that keeps its rows")

    monkeypatch.setattr(_kernels, "dp_with_parents", forbidden)
    assert main(argv + ["--out", str(alone)]) == 0
    assert alone.read_bytes() == kept.read_bytes()


def test_pvar_p1_builds_no_pair_costs(tmp_path, monkeypatch):
    def forbidden(*args):
        raise AssertionError("pvar --p 1 built the candidate pairs and their costs")

    monkeypatch.setattr(_kernels, "_pairs", forbidden)
    values = ",".join(f"{v:.6f}" for v in np.random.default_rng(3).uniform(-1, 1, 40))
    rc = main(["pvar", "--values", values, "--p", "1", "--n", "6",
               "--selection-out", str(tmp_path / "sel.json")])
    assert rc == 0


def test_pvar_over_the_pair_cap_exits_2_before_building_pairs(capsys):
    # a converging zigzag has m (m - 1) / 2 candidate pairs: the smallest m over the cap
    cap = _kernels._MAX_PAIRS
    m = next(m for m in range(2, 10**5) if m * (m - 1) // 2 > cap)
    k = np.arange(m)
    values = (1.0 - 0.9 * k / m) * np.where(k % 2, -1.0, 1.0)
    argv = ["pvar", "--values", ",".join(map(repr, values.tolist())), "--p", "2", "--n", "4"]
    tracemalloc.start()
    try:
        rc = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert f"on {m} points needs {m * (m - 1) // 2} candidate pairs, over the cap of {cap}" in err
    assert peak < 32 * 2 ** 20  # the pairs' start indices alone are 8 * cap bytes = 128 MB


@pytest.mark.parametrize("argv,message", [
    (["pvar", "--function", "zigzag:1_0", "--p", "1", "--n", "1"], "unknown function spec 'zigzag:1_0'"),
    (["embed", "--phi", "power:1_0", "--nu", "log", "--p", "1", "--horizon", "64"],
     "unknown phi spec 'power:1_0'"),
    (["pvar", "--values", "1_0,2", "--p", "1", "--n", "1"],
     "--values takes a comma list of numbers such as 0.5,-1, got '1_0,2'"),
])
def test_digit_group_underscores_exit_2(argv, message, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


@pytest.mark.parametrize("argv,option,kind", [
    (["pvar", "--values", "0,1,0", "--p", "1_0", "--n", "1"], "--p", "float"),
    (["pvar", "--values", "0,1,0", "--p", "1", "--n", "1_0"], "--n", "int"),
    (["pvar", "--function", "random:8", "--seed", "1_0", "--p", "1", "--n", "1"], "--seed",
     "int"),
    (["kfunc", "--values", "0,1,0", "--p", "1_0", "--t", "1"], "--p", "float"),
    (["fourier", "--function", "square:64", "--p", "1", "--nu", "log", "--decay",
      "--n-max", "1_0"], "--n-max", "int"),
    (["embed", "--phi", "power:2", "--nu", "log", "--p", "1", "--horizon", "6_4"], "--horizon",
     "int"),
    (["embed", "--phi", "power:2", "--nu", "log", "--p", "1", "--k-max", "1_0"], "--k-max",
     "int"),
    (["seqnorm", "--space", "lorentz", "--n", "4", "--q", "1_0"], "--q", "float"),
    (["seqnorm", "--space", "orlicz", "--n", "1_0"], "--n", "int"),
    (["verify", "--seed", "1_0"], "--seed", "int"),
])
def test_numeric_options_refuse_digit_group_underscores(argv, option, kind, capsys):
    # every numeric option is read by the spec fields' plain-number rule
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"argument {option}: invalid {kind} value: " in err
    # the same number without its underscore is read
    assert main([a.replace("_", "") if a[0].isdigit() else a for a in argv]) == 0
    capsys.readouterr()


def test_pvar_json_format(tmp_path):
    out = tmp_path / "pvar.json"
    rc = main(["pvar", "--values", "0,1,0", "--p", "2", "--n", "2",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data[0]["n"] == 1


def test_json_cells_are_numbers_when_finite(capsys):
    argv = ["kfunc", "--function", "random:40", "--p", "1.5", "--t", "1,0.3,0.1"]
    assert main(argv) == 0
    rows = [r.split(",") for r in capsys.readouterr().out.splitlines()[1:]]
    assert main(argv + ["--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    for row, rec in zip(rows, data):
        assert rec["case"] == row[5]
        assert type(rec["M"]) is int and rec["M"] == int(row[1])
        for col, cell in zip(("t", "lower", "upper", "ratio"), (row[0], *row[2:5])):
            assert f"{rec[col]:.12g}" == cell
    # a zero lower bound gives ratio inf, which JSON cannot hold as a number
    assert main(["kfunc", "--values", "1,1,1", "--p", "1", "--t", "1", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)[0]["ratio"] == "inf"


def test_kfunc_profiles_the_input_once(monkeypatch, capsys):
    from pvarlab import kfunctional

    values = from_spec("random:200").values
    widths = []
    profile = kfunctional._profile

    def counted(f, p, n):
        if np.array_equal(f.values, values):
            widths.append(n)
        return profile(f, p, n)

    monkeypatch.setattr(kfunctional, "_profile", counted)
    argv = ["kfunc", "--function", "random:200", "--p", "2", "--t", "1,0.5,0.25,0.1,0.05"]
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6
    assert widths == [400]


@pytest.mark.parametrize("spec", ["LOG", " log ", "power:", "power:0.5:2", "table:",
                                  "table:1,x", "banana", "power:0.5", "table:1,2,3"])
def test_nu_specs_same_in_api_and_cli(spec, capsys):
    accepted = spec in ("LOG", " log ", "power:0.5", "table:1,2,3")
    if accepted:
        validate_modulus(spec, 1.0)
    else:
        with pytest.raises(ValueError):
            validate_modulus(spec, 1.0)
    rc = main(["seqnorm", "--space", "marcinkiewicz", "--n", "3", "--nu", spec, "--p", "1"])
    out, err = capsys.readouterr()
    assert rc == (0 if accepted else 2)
    assert (out == "") != accepted
    if not accepted:
        assert "(power:<alpha>, log, table:v1,v2,...)" in err


PHI_HINT = "(power:<q>, orlicz:exp, orlicz:power:<q>, lambda:<q>[:<beta>])"
FUNCTION_HINT = "zigzag[:<points>] | sine[:<points>]"


@pytest.mark.parametrize("argv,hint", [
    (["embed", "--p", "1", "--nu", "log", "--horizon", "64", "--phi", "orlicz:power:3:4"], PHI_HINT),
    (["embed", "--p", "1", "--nu", "log", "--horizon", "64", "--phi", "lambda:2:0.5:9"], PHI_HINT),
    (["embed", "--p", "1", "--nu", "log", "--horizon", "64", "--phi", "power:"], PHI_HINT),
    (["embed", "--p", "1", "--nu", "log", "--horizon", "64", "--phi", "orlicz:exp:2"], PHI_HINT),
    (["seqnorm", "--space", "modular", "--x", "1,2", "--phi", "power:2:1"], PHI_HINT),
    (["fourier", "--p", "1", "--nu", "log", "--n-list", "8", "--omega", "power:0.5:1"],
     "(power:<alpha> or log)"),
    (["fourier", "--p", "1", "--nu", "log", "--n-list", "8", "--omega", "log:2"],
     "(power:<alpha> or log)"),
    (["kfunc", "--p", "1", "--t", "1", "--function", "zigzag:9:3"], FUNCTION_HINT),
    (["kfunc", "--p", "1", "--t", "1", "--function", "zigzag:"], FUNCTION_HINT),
])
def test_spec_strings_reject_trailing_and_empty_fields(argv, hint, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and hint in err
    if argv[0] == "kfunc":  # the function specs are library API too
        with pytest.raises(ValueError, match="unknown function spec"):
            from_spec(argv[-1])


def test_function_spec_strips_blanks_like_the_other_specs(capsys):
    assert len(from_spec(" zigzag:5 ")) == 5
    assert main(["pvar", "--function", " zigzag:5", "--p", "1", "--n", "2"]) == 0
    padded = capsys.readouterr().out
    assert main(["pvar", "--function", "zigzag:5", "--p", "1", "--n", "2"]) == 0
    assert padded == capsys.readouterr().out


SPEC_HEADS = ["power", "log", "table", "orlicz:exp", "orlicz:power", "orlicz", "lambda", "zigzag",
              "sine", "random", "linear", "square", "sawtooth", "exp", "tablex", ""]
SPEC_FIELDS = ["", "0.5", "0.25", "1", "2", "3", "9", "-4", "x", "nan", "inf", " 4 ", "+5", "1e400", "1_0"]


def _spec_strings() -> list[str]:
    """Heads x fields x separators, each as given, upper case, padded and
    with a trailing colon."""
    lists = ([(a, b) for a in ("1", "2", "0.5", "x", "") for b in ("1.5", "0.5", "2", "")]
             + [("1", "1.5", "2"), ("1", "2", "2.5"), ("2", "0.5", "9"), ("1", "x", "2")])
    bodies = ["", *(":" + v for v in SPEC_FIELDS),
              *(":" + sep.join(f) for f in lists for sep in ":,")]
    specs = [head + body for head in SPEC_HEADS for body in bodies]
    return list(dict.fromkeys(v for s in specs for v in (s, s.upper(), f"  {s} \t", s + ":")))


def _spec_outcome(read, spec):
    """What ``read`` makes of ``spec``, as comparable data, or its exception."""
    try:
        obj = read(spec)
    except Exception as e:
        return type(e), str(e)
    if isinstance(obj, ModulusOfVariation):
        return obj.describe(), obj.table(int(min(obj.max_index, 16))).tolist()
    if isinstance(obj, SampledFunction):
        return obj.grid.tolist(), obj.values.tolist(), obj.periodic, obj.period
    if isinstance(obj, embeddings.PhiSequence):
        return obj.name, [obj.phi(j, np.array([0.25, 1.0, 3.0])).tolist() for j in (1, 2, 7)]
    return obj.name, [obj(d) for d in (1e-3, 0.1, 0.5)]


def test_spec_readers_match_their_oracles(monkeypatch):
    specs = _spec_strings()
    assert len(specs) >= 2000
    readers = {"modulus": parse_modulus, "function": from_spec,
               "phi": cli._parse_phi, "omega": cli._parse_omega}
    got = {what: [_spec_outcome(read, s) for s in specs] for what, read in readers.items()}
    monkeypatch.setattr(cli, "_spec_fields", gauge_spec_fields)
    oracles = {"modulus": parse_modulus_split, "function": from_spec_split,
               "phi": cli._parse_phi, "omega": cli._parse_omega}
    for what, read in oracles.items():
        want = [_spec_outcome(read, s) for s in specs]
        assert [s for s, a, b in zip(specs, got[what], want) if a != b and "_" not in s] == [], what
        assert sum(not isinstance(w[0], type) for w in want) >= 10, what
    # the oracles read 1_0 as 10 through Python's float/int; the one reader refuses it
    # with the message of any other unreadable field
    assert sum("_" in s for s in specs) >= 50
    for what in readers:
        for s, outcome in zip(specs, got[what]):
            if "_" in s:
                assert outcome[0] is ValueError, s
                assert outcome[1].startswith(f"unknown {what} spec {s!r} ("), s


@pytest.mark.parametrize("argv", [
    ["pvar", "--values", "0,1,0", "--p", "1", "--n", "2", "--jobs", "2"],
    ["pvar", "--values", "0,1,0", "--p", "1", "--n-max", "2"],
    ["pvar", "--values", "0,1,0", "--p", "1"],
    ["embed", "--phi", "power:2", "--nu", "log", "--p", "1", "--horizon", "64", "--jobs", "2"],
    ["embed", "--phi", "power:2", "--nu", "log", "--p", "1", "--horizon", "64", "--seed", "3"],
    ["embed", "--phi", "power:2", "--nu", "log", "--p", "1", "--horizon", "4096",
     "--growth-factor", "2"],
    ["embed", "--phi", "power:2", "--nu", "log", "--p", "1", "--horizon", "64",
     "--ref-fraction", "0.5"],
    ["seqnorm", "--space", "marcinkiewicz", "--n", "3", "--jobs", "2"],
    ["seqnorm", "--space", "marcinkiewicz", "--n", "3", "--seed", "3"],
    ["verify", "--seed", "1", "--jobs", "2"],
    ["kfunc", "--function", "zigzag:5", "--p", "2", "--t", "1,0.5", "--jobs", "2"],
    ["fourier", "--nu", "log", "--omega", "log", "--p", "1", "--n-list", "8", "--jobs", "2"],
])
def test_removed_options_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "usage: pvarlab" in err


@pytest.mark.parametrize("argv,message", [
    (["fourier", "--decay", "--function", "square:64", "--nu", "log", "--p", "1", "--n-max", "0"],
     "N must be >= 1, got 0"),
    (["fourier", "--decay", "--function", "square:64", "--nu", "log", "--p", "1", "--n-max", "-3"],
     "N must be >= 1, got -3"),
    (["pvar", "--values", "0,1,0", "--p", "1", "--n", "0"], "n must be >= 1"),
    (["fourier", "--nu", "log", "--omega", "log", "--p", "1", "--n-list", "8,1"],
     "n must be >= 2, got 1"),
])
def test_zero_and_negative_counts_exit_2(argv, message, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


@pytest.mark.parametrize("argv,option", [
    (["pvar", "--values", "0,1,0", "--p", "2", "--n", "1048577"], "n"),
    (["seqnorm", "--space", "marcinkiewicz", "--n", "1048577"], "n"),
    (["embed", "--phi", "power:2", "--nu", "log", "--p", "1", "--horizon", "1048577"], "horizon"),
    (["fourier", "--nu", "log", "--omega", "log", "--p", "1", "--n-list", "8,1048577"], "n"),
])
def test_counts_over_the_cap_exit_2_before_output(argv, option, tmp_path, capsys):
    out = tmp_path / "out.txt"
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{option} must be <= 1048576, got 1048577" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("space", [["orlicz", "--q", "2"], ["modular", "--phi", "power:2"]])
def test_seqnorm_at_tiny_scale(space, capsys):
    assert main(["seqnorm", "--space", *space, "--x", "3e-300,4e-300"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(",x,5e-300")


def test_kfunc_validation_exit_code(capsys):
    assert main(["kfunc", "--function", "zigzag", "--p", "2", "--t", "0.5,1.5"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "t must lie in (0, 1], got 1.5" in err


def test_kfunc_csv(tmp_path):
    out = tmp_path / "k.csv"
    rc = main(["kfunc", "--function", "zigzag:5", "--p", "2", "--t", "1,0.5",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,M,lower,upper,ratio,case"
    assert len(lines) == 3


def test_fourier_sweep_and_decay(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["fourier", "--nu", "power:0.25", "--omega", "power:0.5", "--p", "2",
               "--n-list", "8,16", "--out", str(out)])
    assert rc == 0
    assert out.read_text().splitlines()[0] == "n,theta,rho,sigma,tau,eta"
    out2 = tmp_path / "decay.csv"
    rc = main(["fourier", "--decay", "--function", "square:512", "--nu", "log",
               "--p", "1", "--n-max", "32", "--out", str(out2)])
    assert rc == 0
    assert out2.read_text().splitlines()[0] == "n,coeff_ratio"


def test_fourier_sweep_needs_omega():
    proc = run_cli(["fourier", "--nu", "log", "--p", "1"])
    assert proc.returncode == 2


@pytest.mark.parametrize("nu", ["log", "banana"])
def test_fourier_sweep_without_omega_is_reported_first(nu, capsys):
    # the missing --omega is named before --nu is parsed
    assert main(["fourier", "--nu", nu, "--p", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: fourier sweep needs --omega (or pass --decay)\n"


def test_cli_starts_no_thread_pool_machinery():
    code = "import sys, pvarlab.cli; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(embeddings.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_embed_report(tmp_path):
    out = tmp_path / "embed.json"
    rc = main(["embed", "--phi", "power:2", "--nu", "power:0.5", "--p", "1",
               "--horizon", "512", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "Embeds"
    assert payload["running_sup"] == pytest.approx(1.0, abs=1e-9)


def test_embed_witness_rejected_when_embedding(capsys):
    rc = main(["embed", "--phi", "power:2", "--nu", "power:0.5", "--p", "1",
               "--horizon", "512", "--witness"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "embedding criterion verdict is Embeds; witnesses exist only for Fails" in err


def test_table_modulus_params_stay_one_cell(capsys):
    argv = ["seqnorm", "--space", "marcinkiewicz", "--n", "3", "--nu", "table:1,2,3", "--p", "1"]
    assert main(argv) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows == [["space", "params", "n_or_x_id", "value"],
                    ["marcinkiewicz", "nu=table:1,2,3;p=1", "3", "1"]]
    assert main(argv + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == [
        {"space": "marcinkiewicz", "params": "nu=table:1,2,3;p=1", "n_or_x_id": 3, "value": 1}]


@pytest.mark.parametrize("space,option,spelled,plain", [
    ("marcinkiewicz", "--nu", " LOG ", "log"),
    ("marcinkiewicz", "--nu", "Power:0.5", "power:0.5"),
    ("modular", "--phi", " POWER:2", "power:2"),
    ("modular", "--phi", "Lambda:2:0.5 ", "lambda:2:0.5"),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_seqnorm_params_carry_the_spec_as_parsed(space, option, spelled, plain, fmt, capsys):
    outs = []
    for spec in (spelled, plain):
        assert main(["seqnorm", "--space", space, "--x", "3,1,2", option, spec,
                     "--format", fmt]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert f"={plain}" in outs[1]


@pytest.mark.parametrize("argv,option,form", [
    (["kfunc", "--function", "zigzag", "--p", "1", "--t", ","], "--t", "numbers"),
    (["fourier", "--nu", "log", "--omega", "log", "--p", "1", "--n-list", "2,x"], "--n-list",
     "integers"),
    (["fourier", "--nu", "log", "--omega", "log", "--p", "1", "--n-list", "8.5"], "--n-list",
     "integers"),
    (["seqnorm", "--space", "lorentz", "--x", ",1"], "--x", "numbers"),
    (["seqnorm", "--space", "lorentz", "--x", "1,,2"], "--x", "numbers"),
    (["pvar", "--values", "1,,2", "--p", "1", "--n", "2"], "--values", "numbers"),
    (["pvar", "--values", "0,1,zero", "--p", "1", "--n", "2"], "--values", "numbers"),
])
def test_number_list_errors_name_their_option(argv, option, form, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: {option} takes a comma list of {form}" in err


def test_seqnorm(tmp_path):
    out = tmp_path / "norm.csv"
    rc = main(["seqnorm", "--space", "marcinkiewicz", "--n", "9", "--nu", "power:0.5",
               "--p", "1", "--out", str(out)])
    assert rc == 0
    assert out.read_text().strip().splitlines()[-1].endswith(",9,3")


def test_unknown_subcommand_exits_2():
    proc = run_cli(["frobnicate"])
    assert proc.returncode == 2


@pytest.mark.parametrize("argv,code", [
    (["pvar", "--p"], 2),
    (["frobnicate"], 2),
    ([], 2),
    (["pvar", "--help"], 0),
])
def test_main_returns_argparse_exit_code(argv, code, capsys):
    assert main(argv) == code
    assert (capsys.readouterr().out != "") == (code == 0)  # only --help prints to stdout


@pytest.mark.parametrize("family", ["linear", "zigzag", "sine", "square", "sawtooth", "random"])
def test_function_spec_sizes(family, capsys):
    assert len(from_spec(f"{family}:3")) == 3
    assert len(from_spec(family)) >= 5
    for size in (0, 1, -4):
        with pytest.raises(ValueError, match="at least 2 points"):
            from_spec(f"{family}:{size}")
    assert main(["pvar", "--function", f"{family}:0", "--p", "1", "--n", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "at least 2 points" in err


def test_unwritable_output_exits_2(tmp_path, capsys):
    bad = str(tmp_path / "missing_dir" / "x.csv")
    # the selection file is written before the rows, which would go to stdout
    for argv in (["--out", bad], ["--selection-out", bad]):
        assert main(["pvar", "--values", "0,1,0", "--p", "1", "--n", "2", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot write {bad}: ")
    # rows that cannot be written take their selection file with them
    sel = tmp_path / "sel.json"
    assert main(["pvar", "--values", "0,1,0", "--p", "1", "--n", "2",
                 "--selection-out", str(sel), "--out", bad]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: cannot write {bad}: ")
    assert not sel.exists()


def test_bad_log_level_env():
    proc = run_cli(["verify", "--seed", "1"], env={"PVARLAB_LOG": "banana", "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 2
    assert "PVARLAB_LOG" in proc.stderr
    assert proc.stdout == ""


def test_verify_debug_log_times_each_check_and_keeps_the_report():
    proc = run_cli(["verify", "--seed", "1"], env={"PVARLAB_LOG": "debug", "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0
    assert proc.stdout.encode() == (DATA / "verify_seed1.txt").read_bytes()
    timed = [line for line in proc.stderr.splitlines() if line.startswith("DEBUG pvarlab: verify ")]
    assert len(timed) == 15 and all(line.endswith(" s") for line in timed)


def test_embed_debug_log_names_its_decisions_and_keeps_the_output(tmp_path):
    argv = ["embed", "--phi", "power:2", "--nu", "log", "--p", "1", "--k-max", "1", "--witness"]
    env = {"PVARLAB_LOG": "debug", "PATH": "/usr/bin:/bin"}
    pinned = gzip.decompress((DATA / "embed_witness_power2_log_k1.json.gz").read_bytes())
    proc = run_cli(argv, env=env)
    assert proc.returncode == 0 and proc.stdout.encode() == pinned
    assert proc.stderr.splitlines() == [
        "DEBUG pvarlab: embedding verdict: exponent rule",
        "DEBUG pvarlab: witness block k=1: pass 1 (2^4k rate) at n=26570, 29 score reads"]
    out = tmp_path / "w.json"
    proc = run_cli([*argv, "--out", str(out)], env=env)
    assert proc.returncode == 0 and proc.stdout == "" and out.read_bytes() == pinned
    # a table nu keeps the trace heuristic
    proc = run_cli(["embed", "--phi", "power:2", "--nu", "table:1,1.5,2,2.4,2.8,3.1,3.4,3.7",
                    "--p", "1", "--horizon", "8"], env=env)
    assert proc.returncode == 0
    assert proc.stderr.splitlines() == ["DEBUG pvarlab: embedding verdict: trace heuristic"]


@pytest.mark.parametrize("phi,nu,p", [("lambda:1:1", "power:0.6", "1.5"),
                                      ("power:1.01", "log", "1")])
def test_embed_witness_with_no_block_answers_null_promptly(phi, nu, p):
    # g(n)/nu(n) grows like n^(1/15)/H_n and n^(0.0099)/log(1 + n): no certifiable
    # block fits the search budget, and reading g at each n tried says so at once
    argv = ["embed", "--phi", phi, "--nu", nu, "--p", p, "--witness", "--k-max", "1"]
    env = {"PVARLAB_LOG": "debug", "PATH": "/usr/bin:/bin"}
    proc = run_cli(argv, env=env, timeout=60)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["verdict"] == "Fails" and payload["witness"] is None
    assert proc.stderr.splitlines()[-1].startswith(
        "DEBUG pvarlab: witness block k=1: no pass placed it, ")


def test_fourier_sweep_matches_pinned_output(capsys):
    for argv, expected in json.loads((DATA / "fourier_sweeps.json").read_text()).items():
        assert main(argv.split()) == 0
        assert capsys.readouterr().out == expected, argv


def test_verify_deterministic(verify_seed7_pair):
    codes, (a, b) = verify_seed7_pair
    assert codes == [0, 0]
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() == (DATA / "verify_seed7.txt").read_bytes()


def test_embed_witness_cheap_pair(tmp_path):
    out = tmp_path / "w.json"
    rc = main(["embed", "--phi", "lambda:2", "--nu", "power:0.5", "--p", "1",
               "--witness", "--k-max", "1", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "Fails"
    assert payload["witness"]["certified"] is True
    assert payload["witness"]["certificates"][0]["ratio"] >= 2.0


def test_embed_exponent_rule_fails_where_the_trace_flattens(capsys):
    # g(n)/nu(n) = n^(1/15)/H_n falls until n ~ e^15, past the horizon, then grows
    assert main(["embed", "--phi", "lambda:1:1", "--nu", "power:0.6", "--p", "1.5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "Fails"
    assert report["trace"][-1] < report["trace"][len(report["trace"]) // 2]


def test_embed_witness_stdout_is_pinned(capsys):
    assert main(["embed", "--phi", "power:2", "--nu", "log", "--p", "1", "--k-max", "1",
                 "--witness"]) == 0
    pinned = gzip.decompress((DATA / "embed_witness_power2_log_k1.json.gz").read_bytes())
    assert capsys.readouterr().out == pinned.decode()


# sha256 of `embed --witness` stdout at p = 1: the benchmark's four witness
# families, then the k_max = 3 case.
WITNESS_STDOUT_SHA256 = [
    ("power:3", "power:0.1", 3, "5af07fe860c828bef282406a2f4020668378a789604acd38e1d83381ecfe3423"),
    ("power:3", "power:0.25", 2, "084180e00db8b3d54e517b70b330191ec6ad8e12e1725a58283afa2aa5bf38fe"),
    ("power:2", "power:0.25", 2, "2a27ef420fe825054a28f9d3f1949b2afeddfc81d5dc98a83f3caa6bd233b30f"),
    ("power:2", "log", 2, "e6ff42dcdaa62629f8384818b86f56454a608978ccd4cfd5c1d54a49f1bb4f8d"),
    ("power:2", "log", 3, "ee3e3371edaef5630e22744a478ae7d38c365c59403845c44fd030d4905db12e"),
]


@pytest.mark.parametrize("phi,nu,k_max,digest", WITNESS_STDOUT_SHA256,
                         ids=[f"{phi}-{nu}-k{k}" for phi, nu, k, _ in WITNESS_STDOUT_SHA256])
def test_embed_witness_stdout_sha256_is_pinned(phi, nu, k_max, digest, capsys):
    assert main(["embed", "--phi", phi, "--nu", nu, "--p", "1", "--k-max", str(k_max),
                 "--witness"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_embed_criterion_stdout_sha256_is_pinned(capsys):
    # no witness: the 100 000-float trace is the whole payload's bulk
    assert main(["embed", "--phi", "power:2", "--nu", "log", "--p", "1"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "355184d0d7a0ac5a4a3a18388c9bee46a91e2680e92a1b3478a13243242d7f27")


_SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.5e-308, -1e-310,
                   1e308, -1e308, 0.1, 1.0]
_FLOATS = st.floats() | st.sampled_from(_SPECIAL_FLOATS)
# strings holding what the writer's flat-list test and re-join look for
_TEXT = st.text(max_size=8) | st.sampled_from(
    [", ", "\n", "\x00", ",\n ", '"', "[", "{", '", "', "[1.0]", '{"a": [1.0, 2.0]}'])
_SCALARS = _FLOATS | _FLOATS.map(np.float64) | st.integers() | st.booleans() | st.none()
_LEAVES = (_SCALARS | _TEXT | st.lists(_FLOATS, max_size=6) | st.lists(_SCALARS, max_size=4)
           | st.lists(st.none() | st.booleans() | st.integers(), max_size=4)
           | st.lists(_SCALARS | _TEXT, max_size=4).map(tuple))


# dicts of numbers, booleans and None, alone and in lists: the one-call row path
_SCALAR_DICTS = st.dictionaries(_TEXT, _SCALARS, min_size=1, max_size=4)
_LEAVES = _LEAVES | _SCALAR_DICTS | st.lists(_SCALAR_DICTS, max_size=4)


def _nested(depth):
    if depth == 0:
        return _LEAVES
    inner = _nested(depth - 1)
    return _LEAVES | st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3)


@settings(max_examples=300, deadline=None)
@given(obj=_nested(3))
@example(obj={"trace": _SPECIAL_FLOATS, "running_sup": math.inf})
@example(obj={"a": [], "b": [-0.0], "c": {"d": [[], [5e-324]]}})
@example(obj=[[[[1.0, 2.0]]], [1, 2.0], [True, 1.0], [1, 2], []])
@example(obj={"s": ", ", "t": "a\nb\x00", "u": [1.0, 2.0], "v": '", "'})
@example(obj={'"': [1.0], "x": [2.0], "[": ["{", 0.5]})
@example(obj={"x": ['", "', [0.5]], "y": ({}, [], ()), "z": [None, True, 1]})
@example(obj=[math.nan, -math.inf])
@example(obj=(np.float64(0.1), [np.float64(-0.0)], {"a": np.float64(math.inf)}))
@example(obj=[{"n": 1, "value": 0.5}, {"n": 2, "value": "inf"}, {}])  # --format json rows
@example(obj={"intervals": [[0, 3], [3, 4]], "differences": [], "value": 2.0})  # a selection
@example(obj={"b": -0.0, "a": 10 ** 30, "c": None, "d": True, "e": math.nan, "f": -math.inf})
@example(obj=[{"n": 1, "value": np.float64(5e-324)}, {"n": 2, "x": False}, {"n": 3}])
@example(obj=[{"n": 1, "value": 0.5}, {"n": 2, "value": {}}])  # an empty dict is not a number
@example(obj=[{"n": 1, "value": 0.5}, [1.0], {"n": 2}])
@example(obj={", ": 1.0, '"': 2, "\n": None})
def test_indented_json_is_json_dumps(obj):
    assert _indented_json(obj) == json.dumps(obj, sort_keys=True, indent=1)


def test_a_flat_list_costs_one_encoder_call(monkeypatch):
    # a list of numbers is one C-encoder call, however long, never one per element
    calls = []
    dumps = json.dumps

    def counted(obj, **kw):
        calls.append(type(obj))
        return dumps(obj, **kw)

    trace = [0.5 * i for i in range(100_000)]
    expected = dumps(trace, sort_keys=True, indent=1)
    monkeypatch.setattr(cli.json, "dumps", counted)
    assert _indented_json(trace) == expected
    assert calls == [list]


def test_rows_of_numbers_cost_one_encoder_call_per_block(monkeypatch):
    # the --format json rows: the values of 4096 rows per C-encoder call
    calls = []
    dumps = json.dumps

    def counted(obj, **kw):
        calls.append(type(obj))
        return dumps(obj, **kw)

    rows = [{"n": i, "value": 0.5 * i, "ok": i % 3 == 0, "none": None} for i in range(10_000)]
    expected = dumps(rows, sort_keys=True, indent=1)
    monkeypatch.setattr(cli.json, "dumps", counted)
    assert _indented_json(rows) == expected
    assert _indented_json(rows[1]) == dumps(rows[1], sort_keys=True, indent=1)
    assert calls == [list] * 4  # three blocks of rows, then the one dict


def test_indented_json_leaves_no_reference_cycle():
    # a nested recursive closure is a reference cycle that would keep each 100 000-float
    # trace alive until the cyclic GC ran; the module-level writer never calls the
    # stdlib indenting encoder, whose closures are garbage after each call
    Phi, nu = embeddings.PhiSequence.power_all(3.0), parse_modulus("power:0.25")
    report = embeddings.embedding_criterion(Phi, nu, 1.0, 4096)
    payload = report.to_json_dict()
    payload["witness"] = embeddings.witness_generate(Phi, nu, 1.0, 1, report).to_json_dict()
    gc.collect()
    gc.disable()
    try:
        _indented_json(payload)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("q", ["2", "3"])
@pytest.mark.parametrize("nu", ["log", "power:0.25"])
@pytest.mark.parametrize("k_max", ["1", "2"])
def test_orlicz_power_witness_is_the_power_witness(q, nu, k_max, capsys):
    # phi_j = x^q either way: one Phi, one score, the same bytes
    outs = []
    for phi in (f"power:{q}", f"orlicz:power:{q}"):
        assert main(["embed", "--phi", phi, "--nu", nu, "--p", "1", "--k-max", k_max,
                     "--witness"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def _peak_rss(code):
    """(stdout lines, peak RSS in MB) of ``code`` run in a fresh interpreter.

    The peak is the child's own VmHWM: ru_maxrss would also count the RSS of
    the forked test process from before the exec.
    """
    code += ("import re\nwith open('/proc/self/status') as fh:\n"
             "    print(re.search(r'VmHWM:\\s*(\\d+) kB', fh.read()).group(1))\n")
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(embeddings.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    *lines, hwm_kb = proc.stdout.splitlines()
    return lines, int(hwm_kb) / 1024


def test_import_cli_peak_memory():
    # Before this test the import peaked at 29.6 MB from cached bytecode and
    # 31.3-31.5 MB compiling the sources on one 2 vCPU machine, and at
    # 32.2-32.4 MB on another (CPython 3.11, numpy 2.4).  The bound is the
    # highest reading plus the 10 % the benchmark allows on pvar's peak RSS.
    lines, mb = _peak_rss("import pvarlab.cli\n")
    assert lines == [] and mb < 35.6


def _embed_peak_rss(argv):
    """(exit code, parsed stdout, peak RSS in MB) of ``pvarlab embed argv``."""
    lines, mb = _peak_rss("import contextlib, io\n"
                          "from pvarlab.cli import main\n"
                          "out = io.StringIO()\n"
                          "with contextlib.redirect_stdout(out):\n"
                          f"    rc = main({['embed', *argv]!r})\n"
                          "print(rc)\n"
                          "print(out.getvalue().replace(chr(10), ' '))\n")
    return int(lines[0]), json.loads(lines[1]), mb


def test_embed_witness_k3_peak_memory():
    rc, _, mb = _embed_peak_rss(["--phi", "power:2", "--nu", "log", "--p", "1", "--k-max", "3",
                                 "--witness"])
    assert rc == 0
    assert mb < 350


def test_embed_over_weights_past_every_block_answers_null_in_bounded_memory():
    # No certifiable k = 3 block fits the point budget: the search runs to 2^34
    # with Lambda_n from the tail, in O(1) memory per n.
    rc, payload, mb = _embed_peak_rss(["--phi", "lambda:3:0.5", "--nu", "power:0.5", "--p", "1",
                                       "--witness", "--k-max", "3"])
    assert rc == 0 and payload["verdict"] == "Fails" and payload["witness"] is None
    assert mb < 150


def test_embed_over_weights_k_max_5_blocks_in_bounded_memory():
    rc, payload, mb = _embed_peak_rss(["--phi", "lambda:3:0.5", "--nu", "log", "--p", "1",
                                       "--witness", "--k-max", "5"])
    assert rc == 0 and payload["witness"]["certified"]
    blocks = [(b["k"], b["n"], b["m"], b["r"], b["literal"]) for b in payload["witness"]["blocks"]]
    assert blocks == [(1, 291, 291, 73, True), (2, 15513, 15513, 1939, True),
                      (3, 640378, 640378, 40024, True), (4, 23780527, 23780527, 743141, True),
                      (5, 9950560, 9950560, 155478, False)]
    assert mb < 150


@pytest.mark.parametrize("phi,nu,p,k_max,blocks", [
    ("lambda:1:1", "log", "1", "2", [(1, 768, 768, 192, True), (2, 28441, 28441, 3555, True)]),
    ("lambda:1:1", "power:0.6", "1", "2", [(1, 768428, 768428, 192107, True),
                                           (2, 49257460, 49257460, 6157183, False)]),
    ("lambda:1:1", "power:0.05", "3", "1", [(1, 5976734, 5976734, 1494184, False)]),
    ("lambda:1:0.75", "log", "1.5", "1", [(1, 18028720, 18028720, 4507180, True)]),
])
def test_embed_witness_blocks_at_small_exponent_gap(phi, nu, p, k_max, blocks, capsys):
    # 1/p - 1/q <= 0.035 here: g grows through the weights, if at all, and the
    # block at n, with m = n, is pinned
    assert main(["embed", "--phi", phi, "--nu", nu, "--p", p, "--witness",
                 "--k-max", k_max]) == 0
    witness = json.loads(capsys.readouterr().out)["witness"]
    assert witness["certified"]
    assert [(b["k"], b["n"], b["m"], b["r"], b["literal"]) for b in witness["blocks"]] == blocks


def test_vpnu_norm_on_a_long_walk_peak_memory():
    # 4 995 reduced points and K = 397 rows at p = 2 over 417 690 candidate
    # pairs; the two m x m arrays of a dense step would hold 400 MB
    lines, mb = _peak_rss("import numpy as np\n"
                          "from pvarlab import SampledFunction\n"
                          "from pvarlab.modulus import ModulusOfVariation\n"
                          "from pvarlab.variation import vpnu_norm\n"
                          "walk = np.cumsum(np.random.default_rng(0).standard_normal(10_001))\n"
                          "f = SampledFunction(np.linspace(0.0, 1.0, walk.size), walk)\n"
                          "print(vpnu_norm(f, ModulusOfVariation.log(), 2.0))\n")
    assert lines == ["(286.22050314689756, 111.8501785254723)"]
    assert mb < 200


def test_kfunc_tiny_t_runs_only_the_rows_to_the_fixed_point(capsys):
    # M = 10^8 at t = 1e-4; zigzag:9 has 8 swings, and no row or profile entry
    # past them is made (a profile padded to M took 1.5 GB)
    argv = ["kfunc", "--function", "zigzag:9", "--p", "2", "--t", "1e-4,1"]
    lines, mb = _peak_rss("import contextlib, io\nfrom pvarlab.cli import main\n"
                          "buf = io.StringIO()\nwith contextlib.redirect_stdout(buf):\n"
                          f"    rc = main({argv!r})\nprint(rc)\nprint(buf.getvalue(), end='')\n")
    assert lines == ["0", "t,M,lower,upper,ratio,case",
                     "0.0001,100000000,0.000282842712475,0.000506840968822,1.79195343018,II",
                     "1,1,1,1,1,I"]
    assert mb < 150


def test_pvariation_dp_budget_past_the_swings_peak_memory():
    # n = 10^8 on 8 swings: the selection's rows stop at the fixed point
    lines, mb = _peak_rss("from pvarlab import pvariation_dp\n"
                          "from pvarlab.functions import make_zigzag\n"
                          "f = make_zigzag(9)\n"
                          "v, sel = pvariation_dp(f, 2.0, 10 ** 8)\n"
                          "w, ref = pvariation_dp(f, 2.0, 8)\n"
                          "print(len(sel.intervals), v == w, sel.intervals == ref.intervals)\n")
    assert lines == ["8 True True"]
    assert mb < 150


@pytest.mark.parametrize("p,t", [("2", "1e-6"), ("1", "1e-7")])
def test_kfunc_over_the_knot_cap_exits_2(p, t, capsys):
    assert main(["kfunc", "--function", "zigzag:9", "--p", p, "--t", f"1,{t}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "over the cap" in captured.err


def test_embed_witness_never_builds_an_omitted_function(monkeypatch, capsys):
    calls = []
    materialize = embeddings._materialize

    def counted(blocks):
        calls.append(len(blocks))
        return materialize(blocks)

    monkeypatch.setattr(embeddings, "_materialize", counted)
    assert main(["embed", "--phi", "power:3", "--nu", "power:0.25", "--p", "1", "--k-max", "2",
                 "--witness"]) == 0
    witness = json.loads(capsys.readouterr().out)["witness"]
    assert witness["certified"] is True
    assert witness["function"] == {"points": 226_427, "omitted": True}
    assert calls == []


@pytest.mark.parametrize("argv", [
    ["embed", "--phi", "power:2", "--nu", "log", "--p", "1", "--horizon", "64"],
    ["verify", "--seed", "1"],
])
def test_format_is_refused_where_no_rows_are_written(argv, tmp_path, capsys):
    # embed writes its JSON report and verify its text report, whatever --format says
    assert main(argv + ["--format", "csv"]) == 2
    cfg = tmp_path / "cfg.json"
    params = dict(zip((a[2:] for a in argv[1::2]), argv[2::2]))
    cfg.write_text(json.dumps({"subcommand": argv[0], "params": params,
                               "output": {"format": "json"}}))
    assert main(["--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("unrecognized arguments: --format") == 2


def test_config_file_fourier_sweep(tmp_path):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "sweep.csv"
    cfg.write_text(json.dumps({
        "subcommand": "fourier",
        "params": {"nu": "power:0.25", "omega": "power:0.5", "p": 2,
                   "n-list": "8,64,512"},
        "output": {"path": str(out), "format": "csv"},
    }))
    assert main(["--config", str(cfg)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,theta,rho,sigma,tau,eta"
    assert len(lines) == 4


def test_option_prefixes_are_not_matched(tmp_path, monkeypatch, capsys):
    # --val and --sel are prefixes of --values and --selection-out, not options
    monkeypatch.chdir(tmp_path)
    assert main(["pvar", "--val", "0,1,0", "--p", "2", "--n", "2", "--sel", "s.json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments" in err
    assert not (tmp_path / "s.json").exists()
    # the same in --config keys, and --n is no longer an ambiguous prefix of --n-list
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subcommand": "pvar",
                               "params": {"values": "0,1,0", "p": 2, "n": 2, "sel": "s.json"}}))
    assert main(["--config", str(cfg)]) == 2
    assert main(["fourier", "--p", "2", "--nu", "log", "--n", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "ambiguous" not in err
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("top", ["[1, 2]", '"x"', "null"])
def test_config_file_must_be_an_object(top, tmp_path, capsys):
    cfg = tmp_path / "top.json"
    cfg.write_text(top)
    assert main(["--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "invalid config: config must be a JSON object" in err


def test_config_file_reports_all_violations(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"subcommand": "nope", "params": [],
                               "output": {"format": "xml"}}))
    assert main(["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "subcommand" in err and "params" in err and "format" in err
