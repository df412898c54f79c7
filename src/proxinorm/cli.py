"""Command-line interface: batch JSON in, deterministic JSON out.

Exit codes: 0 success, 1 hypothesis/precondition/input errors, 2 budget
exhaustion.  All rationals travel as strings, so outputs round-trip
losslessly and identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import List, Optional, Tuple

# Only the stream and ``norms`` (the ``--bits`` default) load here; each
# command imports the rest of the stack it calls.
from .construction import DEFAULT_DEPTH_BUDGET, canonical_table
from .errors import BudgetError, InputFormatError, PreconditionError, ProxinormError
from .norms import DEFAULT_PRECISION_BITS, norm_enclosure
from .vectors import SparseVec, format_rational, parse_int


def _read_text(path: str) -> str:
    """The UTF-8 text of an input file; an unreadable file is an input error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise InputFormatError(f"no such file: {path}")
    except OSError as exc:
        raise InputFormatError(f"{path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not UTF-8 text (byte {exc.start})")


def _depth_budget(path: Optional[str]) -> int:
    """The construction table's depth limit, the one configuration key.

    Sources, later wins: the default, a file of ``key = value`` lines (#
    comments allowed), then ``PROXINORM_DEPTH_BUDGET``.  The value is
    decimal digits, parsed as JSON keys are, and at least 1.
    """
    values = {}
    if path is not None:
        for lineno, raw in enumerate(_read_text(path).split("\n"), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputFormatError(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
        for key in values:
            if key != "depth_budget":
                raise InputFormatError(f"unknown config key {key!r}")
    value = os.environ.get("PROXINORM_DEPTH_BUDGET", values.get("depth_budget"))
    if value is None:
        return DEFAULT_DEPTH_BUDGET
    budget = parse_int(value.strip(), "config key 'depth_budget'", key=True)
    if budget < 1:
        raise InputFormatError("config key 'depth_budget' must be a positive integer")
    return budget


def _unique_keys(pairs: List[Tuple[str, object]]) -> dict:
    """A JSON object's dict, rejecting a repeated key (``json.loads`` alone keeps the last)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for key in keys if keys.count(key) > 1)
        raise InputFormatError(f"JSON object repeats the key {repeated!r}")
    return obj


def _load_json(path: str):
    text = _read_text(path)
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ProxinormError(f"{path}: malformed JSON at line {exc.lineno}: {exc.msg}")
    except InputFormatError as exc:  # a repeated key
        raise InputFormatError(f"{path}: {exc}")
    except ValueError:  # the only other ValueError json raises
        raise ProxinormError(f"{path}: JSON integer past the int/str digit limit")
    except RecursionError:
        raise ProxinormError(f"{path}: JSON nested too deeply")


def _load_vec(path: str) -> SparseVec:
    return SparseVec.from_json(_load_json(path))


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=1) + "\n")


def _trial_directions(report, count: int) -> List[SparseVec]:
    """Deterministic pseudo-random directions on the usable indices."""
    import random

    rng = random.Random(0)
    values = [1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)]
    out = []
    usable = list(report.usable)
    for _ in range(count):
        if not usable:
            break
        size = rng.randint(1, min(3, len(usable)))
        picks = rng.sample(usable, size)
        out.append(SparseVec({i: values[rng.randrange(len(values))] for i in picks}))
    return out


def _cmd_construct(args, budget: int) -> int:
    if args.k_max < 1:
        raise PreconditionError("--k-max must be >= 1")
    table = canonical_table(budget)
    for k, u, a in table.prefix(args.k_max):
        sys.stdout.write(json.dumps({"k": k, "u": u.to_json(), "a": a}) + "\n")
    return 0


def _cmd_norm(args, budget: int) -> int:
    table = canonical_table(budget)
    enc = norm_enclosure(table, _load_vec(args.vec), args.bits)
    _emit(enc.to_json())
    return 0


def _cmd_deriv(args, budget: int) -> int:
    from .gateaux import derivative_to_json, dminus_norm, dplus_norm

    table = canonical_table(budget)
    x, u = _load_vec(args.x), _load_vec(args.u)
    enc = dminus_norm(table, x, u, args.bits) if args.minus else dplus_norm(table, x, u, args.bits)
    _emit(derivative_to_json(enc))
    return 0


def _cmd_approxlin(args, budget: int) -> int:
    from .approxlin import build_report, verify_linearity_bound

    if args.trials < 0:
        raise PreconditionError("--trials must be >= 0")
    table = canonical_table(budget)
    x = _load_vec(args.x)
    probes = [_load_vec(p) for p in args.z]
    report = build_report(table, x, probes, args.prefix)
    trials = []
    for v in _trial_directions(report, args.trials):
        lhs, rhs, passed = verify_linearity_bound(table, report, v)
        trials.append(
            {"v": v.to_json(), "lhs": lhs.to_json(), "rhs": format_rational(rhs), "pass": passed}
        )
    _emit({**report.to_json(), "trials": trials})
    return 0


def _cmd_feasible(args, budget: int) -> int:
    from .approxlin import LinearityReport, span_match_feasible

    report = LinearityReport.from_json(_load_json(args.report))
    functionals = [_load_vec(p) for p in args.phi]
    indices = (
        [parse_int(i.strip(), "feasible index", key=True) for i in args.indices.split(",")]
        if args.indices
        else list(report.usable)
    )
    ok, coeffs = span_match_feasible(report, functionals, indices)
    _emit(
        {
            "satisfiable": ok,
            "witness": coeffs.to_json() if coeffs is not None else None,
        }
    )
    return 0


def _cmd_descend(args, budget: int) -> int:
    from .descent import Subspace, minimizing_sequence

    table = canonical_table(budget)
    subspace = Subspace([_load_vec(p) for p in args.phi])
    x0 = _load_vec(args.x0)
    chain = minimizing_sequence(table, subspace, x0, args.steps)
    _emit(chain.to_json())
    if len(chain.certificates) < args.steps:
        sys.stderr.write(
            f"descend: certified {len(chain.certificates)} of {args.steps} steps;"
            f" stop reason: {chain.stop_reason}\n"
        )
    return 0


def _cmd_verify(args, budget: int) -> int:
    from .descent import DescentChain, verify_chain

    chain = DescentChain.from_json(_load_json(args.cert))
    table = canonical_table(budget)
    problems = verify_chain(table, chain)
    _emit({"valid": not problems, "problems": problems})
    return 0 if not problems else 1


def _cmd_demo(args, budget: int) -> int:
    from .demo import run_demo

    table = canonical_table(budget)
    _emit(run_demo(table, args.n))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxinorm",
        description="Exact-arithmetic series renorming of c0: certified norms, "
        "derivatives, linearity reports, and descent certificates.",
    )
    parser.add_argument("--config", help="key = value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="dump a stream prefix as JSON lines")
    p.add_argument("--k-max", type=int, required=True)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("norm", help="certified norm enclosure of a vector")
    p.add_argument("--vec", required=True)
    p.add_argument("--bits", type=int, default=DEFAULT_PRECISION_BITS)
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("deriv", help="one-sided derivative enclosure")
    p.add_argument("--x", required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--minus", action="store_true", help="left derivative")
    p.add_argument("--bits", type=int, default=DEFAULT_PRECISION_BITS)
    p.set_defaults(func=_cmd_deriv)

    p = sub.add_parser("approxlin", help="approximate-linearity report")
    p.add_argument("--x", required=True)
    p.add_argument("--z", action="append", required=True, help="probe file (repeatable)")
    p.add_argument("--prefix", type=int, required=True, help="stream depth")
    p.add_argument("--trials", type=int, default=0)
    p.set_defaults(func=_cmd_approxlin)

    p = sub.add_parser("feasible", help="span-match feasibility against a report")
    p.add_argument("--report", required=True)
    p.add_argument("--phi", action="append", required=True)
    p.add_argument("--indices", help="comma-separated subset of the usable indices")
    p.set_defaults(func=_cmd_feasible)

    p = sub.add_parser("descend", help="certified minimizing sequence")
    p.add_argument("--phi", action="append", required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(func=_cmd_descend)

    p = sub.add_parser("verify", help="re-check a certificate chain from scratch")
    p.add_argument("--cert", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("demo", help="sign-apparatus walkthrough")
    p.add_argument("--n", type=int, default=2)
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, _depth_budget(args.config))
    except BudgetError as exc:
        sys.stderr.write(f"budget exhausted: {exc}\n")
        return 2
    except ProxinormError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
