"""Command-line surface: evaluate scalars, print words, and run verify suites.

Exit codes: 0 on success, 1 when a verify suite finds a counterexample, 2 on
usage errors (including a verify run in which some suite checked nothing, and
a --out path that cannot be opened for writing, found before any suite runs),
3 on an unexpected internal error (a ValueError inside a suite included).  A
verify run writes --out only once it has its reports, so a run that ends
without them leaves the file as it was.
When stdout is closed early, as by `| head`, the run ends quietly with 141,
the code of a SIGPIPE death.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from . import closed_formula as cf
from .magic import magic
from . import rou
from .report import SCHEMA_VERSION
from .verify import SUITES, Bounds, run_suite
from .words import build_word, xi_oracle, xi_recursive


class UsageError(ValueError):
    """Command-line input that the CLI itself rejects."""


def _value_output(kind: str, inputs: dict, value) -> dict:
    return {"schema": SCHEMA_VERSION, "kind": kind, "inputs": inputs, "value": value.to_json()}


def _emit(args, kind: str, inputs: dict, value) -> None:
    if args.format == "json":
        print(json.dumps(_value_output(kind, inputs, value), sort_keys=True))
    else:
        print(value.render())


def _cmd_xi(args) -> int:
    methods = {"formula": cf.xi_formula, "oracle": xi_oracle, "recursion": xi_recursive}
    value = methods[args.method](args.a, args.b, args.i, args.k)
    _emit(args, "xi", {"a": args.a, "b": args.b, "i": args.i, "k": args.k, "method": args.method}, value)
    return 0


def _cmd_xi_rou(args) -> int:
    if args.method == "formula":
        value = rou.xi_rou_formula(args.m, args.a, args.i)
    else:
        value = rou.xi_rou_specialized(args.m, args.a, args.i, "formula")
    _emit(args, "xi-rou", {"m": args.m, "a": args.a, "i": args.i, "method": args.method}, value)
    return 0


def _cmd_magic(args) -> int:
    value = magic(args.nu, args.k, args.beta, args.eps)
    _emit(args, "magic", {"nu": args.nu, "k": args.k, "beta": args.beta, "eps": args.eps}, value)
    return 0


def _cmd_word(args) -> int:
    letters = build_word(args.a, args.b, args.i)
    if args.format == "json":
        out = {
            "schema": SCHEMA_VERSION,
            "kind": "word",
            "inputs": {"a": args.a, "b": args.b, "i": args.i},
            "letters": list(letters),
        }
        print(json.dumps(out, sort_keys=True))
    else:
        print(" ".join(str(c) for c in letters))
    return 0


def _check_out_path(path: str) -> None:
    """Fail before any sweep runs when path cannot be opened for writing, and
    leave the file as it was: a run that writes no report keeps the old one."""
    existed = os.path.lexists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise UsageError(f"cannot write the report to {path}: {exc.strerror}") from None
    if not existed:
        os.remove(path)


def _cmd_verify(args) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    bounds = Bounds(max_len=args.max_len, max_nu=args.max_nu, max_m=args.max_m)
    if args.out:
        _check_out_path(args.out)
    reports = [run_suite(name, bounds, jobs=args.jobs) for name in names]
    vacuous = [r.suite for r in reports if r.checks == 0]
    if vacuous:
        raise UsageError(f"the bounds leave nothing to check in {', '.join(vacuous)}")
    payload = [r.to_dict() for r in reports]
    if args.format == "json":
        print(json.dumps(payload[0] if len(payload) == 1 else payload, indent=2, sort_keys=True))
    else:
        for r in reports:
            print(r.render_text())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump(payload, out, indent=2, sort_keys=True)
    return 0 if all(r.passed for r in reports) else 1


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once on first use: a point query costs less than building it."""
    parser = argparse.ArgumentParser(
        prog="qdemazure",
        description="Exact divided-difference scalars for the deformed affine type-A2 action.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_xi = sub.add_parser("xi", help="evaluate a word scalar")
    p_xi.add_argument("--a", type=int, required=True)
    p_xi.add_argument("--b", type=int, required=True)
    p_xi.add_argument("--i", type=int, required=True, choices=(1, 2, 3))
    p_xi.add_argument("--k", type=int, required=True)
    p_xi.add_argument("--method", choices=("formula", "oracle", "recursion"), default="formula")
    add_format(p_xi)
    p_xi.set_defaults(func=_cmd_xi)

    p_rou = sub.add_parser("xi-rou", help="evaluate the staircase scalar at a root of unity")
    p_rou.add_argument("--m", type=int, required=True)
    p_rou.add_argument("--a", type=int, required=True)
    p_rou.add_argument("--i", type=int, required=True, choices=(1, 2, 3))
    p_rou.add_argument("--method", choices=("formula", "specialize"), default="formula")
    add_format(p_rou)
    p_rou.set_defaults(func=_cmd_xi_rou)

    p_magic = sub.add_parser("magic", help="evaluate the magic binomial sum")
    p_magic.add_argument("--nu", type=int, required=True)
    p_magic.add_argument("--k", type=int, required=True)
    p_magic.add_argument("--beta", type=int, required=True)
    p_magic.add_argument("--eps", type=int, required=True, choices=(-1, 0, 1))
    add_format(p_magic)
    p_magic.set_defaults(func=_cmd_magic)

    p_word = sub.add_parser("word", help="print the letters of a word")
    p_word.add_argument("--a", type=int, required=True)
    p_word.add_argument("--b", type=int, required=True)
    p_word.add_argument("--i", type=int, required=True, choices=(1, 2, 3))
    add_format(p_word)
    p_word.set_defaults(func=_cmd_word)

    p_verify = sub.add_parser("verify", help="run an identity sweep")
    p_verify.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p_verify.add_argument("--max-len", type=int, default=None, dest="max_len")
    p_verify.add_argument("--max-nu", type=int, default=None, dest="max_nu")
    p_verify.add_argument("--max-m", type=int, default=None, dest="max_m")
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--out", type=str, default=None, help="also write the JSON report here")
    add_format(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # point queries leave range checks to the library; in a sweep a ValueError is a bug
    usage_errors = UsageError if args.command == "verify" else ValueError
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe must fail here, not at interpreter exit
        return code
    except usage_errors as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except BrokenPipeError:
        # send the rest of stdout, and its flush at exit, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Exception as exc:
        parser.exit(3, f"{parser.prog}: internal error: {type(exc).__name__}: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
