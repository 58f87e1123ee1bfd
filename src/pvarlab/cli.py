"""Command-line front end.

Subcommands: pvar, kfunc, fourier, embed, seqnorm, verify.  pvar, kfunc,
fourier and seqnorm write rows, CSV or ``--format json``, with numbers at 12
significant digits so identical configurations produce byte-identical files;
the ``embed`` JSON report and the ``pvar --selection-out`` file carry full
``repr`` floats, and ``verify`` writes a text report.  Exit codes: 0 success,
1 computation error, 2 validation error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import logging
import math
import os
import sys
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from . import fourier as fr
from . import seqspaces as sq
from .embeddings import (
    LambdaSequence,
    PhiSequence,
    embedding_criterion,
    exp_orlicz,
    power_orlicz,
    witness_generate,
)
from .functions import from_spec
from .kfunctional import kfunctional_sweep, lower_monotone_in_t
from .modulus import _check_count, _read_number, _spec_fields, parse_modulus
from .sampled import SampledFunction
from .variation import _profile, _pvariation_solve
from .verify import run_battery

log = logging.getLogger("pvarlab")


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _setup_logging():
    level = os.environ.get("PVARLAB_LOG", "error").strip().lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level not in levels:
        raise ValueError(f"PVARLAB_LOG must be one of {sorted(levels)}, got {level!r}")
    logging.basicConfig(level=levels[level], format="%(levelname)s %(name)s: %(message)s")


def _parse_omega(spec: str):
    head, fields = _spec_fields(spec, "omega", {"power": (1,), "log": (0,)},
                                "power:<alpha> or log")
    return fr.OmegaPower(fields[0]) if head == "power" else fr.OmegaLog()


def _parse_phi(spec: str) -> PhiSequence:
    head, fields = _spec_fields(
        spec, "phi", {"power": (1,), "orlicz:exp": (0,), "orlicz:power": (1,), "lambda": (1, 2)},
        "power:<q>, orlicz:exp, orlicz:power:<q>, lambda:<q>[:<beta>]")
    if head == "power":
        return PhiSequence.power_all(fields[0])
    if head == "orlicz:exp":
        return PhiSequence.orlicz_all(exp_orlicz())
    if head == "orlicz:power":
        return PhiSequence.orlicz_all(power_orlicz(fields[0]))
    # lambda:<q>:<beta> -> phi_j(x) = x^q / j^beta
    beta = fields[1] if len(fields) > 1 else 1.0
    return PhiSequence.orlicz_over_lambda(power_orlicz(fields[0]), LambdaSequence.power(beta))


def _number_list(text: str, option: str, kind=float) -> list:
    """The comma list ``text`` given to ``option``, each entry read by ``kind``."""
    try:
        return [_read_number(v, kind) for v in text.split(",")]
    except ValueError:
        what = "integers such as 8,16" if kind is int else "numbers such as 0.5,-1"
        raise ValueError(f"{option} takes a comma list of {what}, got {text!r}") from None


def _number(kind):
    """An argparse ``type`` reading one plain number as ``_read_number`` does;
    its usage errors name ``kind`` (``invalid int value: '1_0'``)."""
    read = functools.partial(_read_number, kind=kind)
    read.__name__ = kind.__name__
    return read


def _load_function(args) -> SampledFunction:
    if getattr(args, "values", None):
        vals = _number_list(args.values, "--values")
        grid = np.linspace(0.0, 1.0, len(vals))
        return SampledFunction(grid, vals)
    if getattr(args, "function", None):
        return from_spec(args.function, seed=args.seed)
    raise ValueError("provide --values or --function")


def _write_file(path: str, text: str):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise ValueError(f"cannot write {path}: {e.strerror or e}") from e


def _write(args, text: str):
    if args.out:
        _write_file(args.out, text)
    else:
        sys.stdout.write(text)


def _json_cell(cell: str):
    """A CSV cell as a JSON number when it is a finite number, else the string."""
    for kind in (int, float):
        try:
            value = kind(cell)
        except ValueError:
            continue
        return value if math.isfinite(value) else cell
    return cell


def _indented_json(obj, pad="\n") -> str:
    """The text of ``json.dumps(obj, sort_keys=True, indent=1)``, byte for byte.

    CPython 3.11 sends any indented dump through the pure-Python encoder.
    This writer recurses over each non-empty dict (keys sorted; string keys,
    quoted by the encoder's own C function) and each non-empty list or tuple
    itself, ``pad`` holding the newline and indent of the current level.  A
    list whose compact C encoding holds no ``"`` and no inner ``[`` (numbers,
    booleans, nulls and empty dicts only: any other dict has a quoted key) is
    written by that one ``json.dumps`` call, its ``", "`` separators
    re-joined at the indent: the same ``float.__repr__`` and
    ``NaN``/``Infinity`` tokens, with no Python step per element.  A dict
    whose values are all numbers, booleans or None has its sorted values
    encoded the same way and split at those separators, one token per key;
    a list of such dicts (the ``--format json`` rows) encodes the values of
    4096 of them per call.  Every other value is ``json.dumps``.
    """
    if isinstance(obj, (list, tuple)) and obj:
        inner = pad + " "
        texts = _scalar_dicts(obj, inner) if isinstance(obj[0], dict) else None
        if texts is not None:
            return "[" + inner + ("," + inner).join(texts) + pad + "]"
        flat = json.dumps(obj)
        if '"' not in flat and flat.find("[", 1) < 0:
            return "[" + inner + flat[1:-1].replace(", ", "," + inner) + pad + "]"
        return "[" + ",".join(inner + _indented_json(v, inner) for v in obj) + pad + "]"
    if isinstance(obj, dict) and obj:
        texts = _scalar_dicts([obj], pad)
        if texts is not None:
            return texts[0]
        inner = pad + " "
        return "{" + ",".join(inner + _quote(k) + ": " + _indented_json(v, inner)
                              for k, v in sorted(obj.items())) + pad + "}"
    return json.dumps(obj)


def _scalar_dicts(dicts, pad):
    """``_indented_json`` of each of ``dicts`` when every one is a non-empty
    dict of numbers, booleans and None, else None.  The sorted values of up
    to 4096 dicts go through one ``json.dumps``, split at its ``", "``
    separators: the block bounds the temporaries to a few MB."""
    inner, texts = pad + " ", []
    for start in range(0, len(dicts), 4096):
        rows = []
        for d in dicts[start:start + 4096]:
            if not (isinstance(d, dict) and d):
                return None
            items = sorted(d.items())
            if not all(v is None or isinstance(v, (int, float)) for _, v in items):
                return None
            rows.append(items)
        tokens = iter(json.dumps([v for items in rows for _, v in items])[1:-1].split(", "))
        texts += ["{" + ",".join(inner + _quote(k) + ": " + next(tokens) for k, _ in items)
                  + pad + "}" for items in rows]
    return texts


def _emit_rows(args, header: str, rows: list[list[str]]):
    """The rows, lists of cells under the comma-separated ``header``, as CSV
    (a cell holding a comma is quoted) or as JSON records."""
    cols = header.split(",")
    if args.format == "json":
        data = [{c: _json_cell(v) for c, v in zip(cols, r)} for r in rows]
        _write(args, _indented_json(data) + "\n")
    else:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([cols, *rows])
        _write(args, buf.getvalue())


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_pvar(args) -> int:
    _check_count(args.n)  # one row per n
    f = _load_function(args)
    if args.selection_out:
        value, sel, prof = _pvariation_solve(f, args.p, args.n)
        # Written before the rows, so a failed write leaves stdout empty.
        payload = {
            "p": args.p,
            "n": args.n,
            "value": float(value),
            "intervals": [[int(i), int(j)] for i, j in sel.intervals],
            "differences": [float(d) for d in sel.differences],
        }
        _write_file(args.selection_out, _indented_json(payload))
    else:  # no rows kept for a backtrack: the profile DP alone
        prof = _profile(f, args.p, args.n)
    rows = [[str(n), _fmt(prof[min(n, prof.size) - 1])] for n in range(1, args.n + 1)]
    try:
        _emit_rows(args, "n,value", rows)
    except ValueError:
        if args.selection_out:  # no selection file is left without its rows
            os.remove(args.selection_out)
        raise
    return 0


def _cmd_kfunc(args) -> int:
    f = _load_function(args)
    sandwiches = kfunctional_sweep(f, _number_list(args.t, "--t"), args.p)
    rows = [[_fmt(s.t), str(s.M), _fmt(s.lower), _fmt(s.upper), _fmt(s.ratio), s.case]
            for s in sandwiches]
    log.info("lower bound nondecreasing in t: %s", lower_monotone_in_t(sandwiches))
    _emit_rows(args, "t,M,lower,upper,ratio,case", rows)
    return 0


def _cmd_fourier(args) -> int:
    if args.decay:
        f = _load_function(args)
        nu = parse_modulus(args.nu)
        ratios = fr.coeff_decay_ratios(f, nu, args.p, args.n_max)
        rows = [[str(n), _fmt(r)] for n, r in zip(range(1, args.n_max + 1), ratios)]
        _emit_rows(args, "n,coeff_ratio", rows)
        return 0
    if args.omega is None:
        raise ValueError("fourier sweep needs --omega (or pass --decay)")
    nu = parse_modulus(args.nu)
    omega = _parse_omega(args.omega)
    ns = sorted(set(_number_list(args.n_list, "--n-list", int)))
    seqs = [fr.convergence_sequences(nu, omega, args.p, n) for n in ns]
    rows = [[str(s.n), str(s.theta), _fmt(s.rho), _fmt(s.sigma), _fmt(s.tau), _fmt(s.eta)]
            for s in seqs]
    _emit_rows(args, "n,theta,rho,sigma,tau,eta", rows)
    return 0


def _cmd_embed(args) -> int:
    Phi = _parse_phi(args.phi)
    nu = parse_modulus(args.nu)
    report = embedding_criterion(Phi, nu, args.p, args.horizon)
    payload = report.to_json_dict()
    witness = witness_generate(Phi, nu, args.p, args.k_max, report) if args.witness else None
    if args.witness:
        payload["witness"] = None if witness is None else witness.to_json_dict()
    _write(args, _indented_json(payload) + "\n")
    if witness is not None and not witness.certified:  # written, then exit 1
        raise RuntimeError("witness certificates failed; see its certificates")
    return 0


def _cmd_seqnorm(args) -> int:
    if args.x:
        x = np.array(_number_list(args.x, "--x"))
        label = "x"
    else:
        if args.n is None or args.n < 1:
            raise ValueError("seqnorm needs --x or --n >= 1")
        _check_count(args.n)
        x = np.ones(args.n)
        label = str(args.n)
    if args.space == "marcinkiewicz":
        nu = parse_modulus(args.nu)
        val = sq.marcinkiewicz_norm(x, nu, args.p)
        params = f"nu={args.nu.strip().lower()};p={_fmt(args.p)}"
    elif args.space == "lorentz":
        w = 1.0 / np.arange(1, x.size + 1, dtype=np.float64)
        val = sq.lorentz_norm(x, w, args.q)
        params = f"w=harmonic;q={_fmt(args.q)}"
    elif args.space == "orlicz":
        val = sq.orlicz_norm(x, power_orlicz(args.q))
        params = f"phi=power:{_fmt(args.q)}"
    else:  # modular; argparse admits no other --space
        val = sq.modular_norm(x, _parse_phi(args.phi))
        params = f"phi={args.phi.strip().lower()}"
    _emit_rows(args, "space,params,n_or_x_id,value", [[args.space, params, label, _fmt(val)]])
    return 0


def _cmd_verify(args) -> int:
    report, passed = run_battery(args.seed)
    _write(args, report)
    return 0 if passed else 1


# ---------------------------------------------------------------------------

def _is_number_list(s: str) -> bool:
    try:
        _number_list(s, "")
    except ValueError:
        return False
    return True


class _Parser(argparse.ArgumentParser):
    """Reads a number list such as ``-0.3,0.5`` as a value, not as a flag.

    argparse only takes a plain negative number for a value; ``--values`` and
    the other comma lists would otherwise fail on a leading minus sign.
    Option prefixes are not matched (``allow_abbrev=False``, inherited by the
    subcommand parsers), so a new option never changes what an argv or a
    ``--config`` key means.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def _parse_optional(self, arg_string):
        if arg_string.startswith("-") and _is_number_list(arg_string):
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="pvarlab", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, function=True, rows=True):
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if rows:  # embed writes a JSON report and verify a text report
            p.add_argument("--format", choices=["csv", "json"], default="csv")
        if function:
            p.add_argument("--values", default=None, help="comma list sampled on [0,1]")
            p.add_argument("--function", default=None,
                           help="zigzag[:n] | square[:n] | sine[:n] | sawtooth[:n] | linear[:n] | random[:n]")
            p.add_argument("--seed", type=_number(int), default=0, help="seed of a random[:n] function")

    p = sub.add_parser("pvar", help="modulus of p-variation profile")
    common(p)
    p.add_argument("--p", type=_number(float), required=True)
    p.add_argument("--n", type=_number(int), required=True)
    p.add_argument("--selection-out", default=None, help="write the optimal selection JSON here")
    p.set_defaults(fn=_cmd_pvar)

    p = sub.add_parser("kfunc", help="K-functional sandwich sweep")
    common(p)
    p.add_argument("--p", type=_number(float), required=True)
    p.add_argument("--t", required=True, help="comma list of t values in (0,1]")
    p.set_defaults(fn=_cmd_kfunc)

    p = sub.add_parser("fourier", help="convergence-criterion sweep or coefficient decay")
    common(p)
    p.add_argument("--p", type=_number(float), required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--omega", default=None)
    p.add_argument("--n-list", dest="n_list", default="8,16,32,64,128,256,512")
    p.add_argument("--n-max", dest="n_max", type=_number(int), default=64,
                   help="largest coefficient index of the decay report")
    p.add_argument("--decay", action="store_true", help="emit the coefficient-decay report")
    p.set_defaults(fn=_cmd_fourier)

    p = sub.add_parser("embed", help="embedding criterion and optional witness")
    common(p, function=False, rows=False)
    p.add_argument("--phi", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--p", type=_number(float), required=True)
    p.add_argument("--horizon", type=_number(int), default=100_000)
    p.add_argument("--k-max", dest="k_max", type=_number(int), default=3)
    p.add_argument("--witness", action="store_true")
    p.set_defaults(fn=_cmd_embed)

    p = sub.add_parser("seqnorm", help="symmetric sequence-space norms")
    common(p, function=False)
    p.add_argument("--space", required=True,
                   choices=["marcinkiewicz", "lorentz", "orlicz", "modular"])
    p.add_argument("--x", default=None, help="comma list of entries")
    p.add_argument("--n", type=_number(int), default=None, help="indicator length instead of --x")
    p.add_argument("--nu", default="power:0.5")
    p.add_argument("--p", type=_number(float), default=1.0)
    p.add_argument("--q", type=_number(float), default=2.0)
    p.add_argument("--phi", default="power:2")
    p.set_defaults(fn=_cmd_seqnorm)

    p = sub.add_parser("verify", help="run the invariant battery")
    common(p, function=False, rows=False)
    p.add_argument("--seed", type=_number(int), default=0)
    p.set_defaults(fn=_cmd_verify)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argparse tree, built on first use and reused by every ``main`` call."""
    return build_parser()


def config_to_argv(path: str) -> list[str]:
    """Translate a JSON config file into an argument vector.

    Layout: {"subcommand": "fourier", "params": {"nu": "log", "n-list": "8,512",
    "decay": true}, "output": {"path": "...", "format": "csv"}}.  All violated
    constraints are reported together.
    """
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("invalid config: config must be a JSON object")
    problems = []
    sub = cfg.get("subcommand")
    known = {"pvar", "kfunc", "fourier", "embed", "seqnorm", "verify"}
    if sub not in known:
        problems.append(f"subcommand must be one of {sorted(known)}, got {sub!r}")
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        problems.append("params must be an object")
        params = {}
    out = cfg.get("output", {})
    if not isinstance(out, dict):
        problems.append("output must be an object")
        out = {}
    fmt = out.get("format", "csv")
    if fmt not in ("csv", "json"):
        problems.append(f"output.format must be csv or json, got {fmt!r}")
    if problems:
        raise ValueError("invalid config: " + "; ".join(problems))
    argv = [sub]
    for key, value in params.items():
        flag = "--" + str(key).replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        else:
            argv.extend([flag, str(value)])
    if out.get("path"):
        argv.extend(["--out", str(out["path"])])
    if fmt != "csv":
        argv.extend(["--format", fmt])
    return argv


def main(argv=None) -> int:
    try:
        _setup_logging()
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv[:1] == ["--config"]:
        if len(argv) != 2:
            print("error: --config takes exactly one path", file=sys.stderr)
            return 2
        try:
            argv = config_to_argv(argv[1])
        except (OSError, ValueError, json.JSONDecodeError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:  # argparse has printed the usage error or the help
        return e.code
    try:
        return args.fn(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # computation failure
        log.debug("computation error", exc_info=True)
        print(f"computation error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
