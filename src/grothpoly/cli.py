"""Command-line front end.

Subcommands:

* ``compute``  -- build G_lambda(x|y) by one method or all three
* ``tableaux`` -- dump the set-valued tableau stream
* ``verify``   -- run one identity verifier, exit 0 pass / 1 fail / 2 bad params
* ``suite``    -- run the whole default verification grid

``--fast-trials N`` searches N >= 0 seeded points for a witness when the
compared sides differ; it never changes a verdict.  Unknown parameters exit 2,
and so does an ``--out`` path that cannot be written; a missing ``--out``
directory is refused before any work runs.

``compute --format json`` prints ``Polynomial.to_json()``, which is
``json.dumps`` of the polynomial's ``to_json_obj()`` dict form.

Text output is byte-stable for identical arguments and seed; JSON output
additionally carries elapsed_ms, which naturally varies between runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .grothendieck import (
    EmbeddingError,
    InvalidShapeError,
    g_determinant,
    g_divided_difference,
    g_tableau,
)
from .identities import IDENTITY_TAGS, run_case, run_suite
from .poly import DegreeOverflowError
from .tableaux import InvalidPartitionError, Partition, enumerate_tableaux

_PARAM_ERRORS = (ValueError, DegreeOverflowError, OSError)


def _parse_shape(text: str) -> tuple[int, ...]:
    text = (text or "").strip()
    if not text:
        return ()
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise InvalidPartitionError(f"cannot parse shape {text!r}; expected e.g. 2,1")
    if any(a < b for a, b in zip(parts, parts[1:])) or (parts and parts[-1] < 0):
        raise InvalidPartitionError(
            f"shape {parts} must be weakly decreasing and nonnegative"
        )
    return parts


def _nonnegative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _render_poly(p, fmt: str) -> str:
    if fmt == "json":
        return p.to_json()
    if fmt == "latex":
        return p.to_latex()
    return str(p)


def cmd_compute(args) -> int:
    shape = _parse_shape(args.shape)
    n = args.n
    methods = {
        "tableau": lambda: g_tableau(shape, n),
        "determinant": lambda: g_determinant(shape, n),
        "divided-difference": lambda: g_divided_difference(shape, n, p=args.p),
    }
    if args.method == "all":
        results = {}
        lines = []
        for name, fn in methods.items():
            try:
                results[name] = fn()
                lines.append(f"{name}: {_render_poly(results[name], args.format)}")
            except (InvalidShapeError, EmbeddingError) as exc:
                results[name] = exc
                lines.append(f"{name}: undefined ({exc})")
        polys = [v for v in results.values() if not isinstance(v, Exception)]
        agree = bool(polys) and all(p == polys[0] for p in polys)
        lines.append(f"methods agree: {str(agree).lower()}")
        _emit("\n".join(lines), args.out)
        return 0 if agree else 1
    result = methods[args.method]()
    _emit(_render_poly(result, args.format), args.out)
    return 0


def cmd_tableaux(args) -> int:
    shape = _parse_shape(args.shape)
    stream = enumerate_tableaux(Partition(shape), args.n)
    if args.format == "json":
        text = json.dumps([t.to_json_obj() for t in stream])
    else:
        text = "\n".join(str(t) for t in stream) or "(empty)"
    _emit(text, args.out)
    return 0


def _report_text(report) -> str:
    params = " ".join(f"{k}={v}" for k, v in report.params.items())
    bits = [f"{report.identity:<18} {params:<36} {report.verdict}"]
    bits.append(f"lhs_terms={report.lhs_terms} rhs_terms={report.rhs_terms}")
    if report.witness is not None:
        bits.append(f"witness={json.dumps(report.witness.to_json_obj())}")
    return "  ".join(bits)


def _verifier_params(args) -> dict:
    params = {}
    if args.shape is not None:
        params["lam"] = list(_parse_shape(args.shape))
    for name in ("n", "k", "m"):
        val = getattr(args, name)
        if val is not None:
            params[name] = val
    return params


def cmd_verify(args) -> int:
    report = run_case(
        args.identity,
        _verifier_params(args),
        seed=args.seed,
        fast_trials=args.fast_trials,
    )
    if args.format == "json":
        _emit(json.dumps(report.to_json_obj()), args.out)
    else:
        _emit(_report_text(report), args.out)
    return 0 if report.passed else 1


def cmd_suite(args) -> int:
    reports = run_suite(seed=args.seed, fast_trials=args.fast_trials)
    n_pass = sum(r.passed for r in reports)
    if args.format == "json":
        _emit(json.dumps([r.to_json_obj() for r in reports]), args.out)
    else:
        lines = [_report_text(r) for r in reports]
        lines.append(f"TOTAL: {len(reports)} checks, {n_pass} pass, {len(reports) - n_pass} fail")
        _emit("\n".join(lines), args.out)
    return 0 if n_pass == len(reports) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one.  The
    cmd_* functions it holds look up the builders and run_case when they run,
    so a later rebinding of those names still takes effect."""
    parser = argparse.ArgumentParser(
        prog="grothpoly",
        description="factorial Grothendieck polynomials: exact computation and identity verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="build G_lambda(x|y)")
    c.add_argument("--shape", required=True, help="comma-separated parts, e.g. 2,1 (zeros allowed)")
    c.add_argument("--n", type=int, required=True, help="number of x variables")
    c.add_argument(
        "--method",
        choices=["tableau", "determinant", "divided-difference", "all"],
        default="tableau",
    )
    c.add_argument("--p", type=int, default=None, help="symmetric group size for divided differences")
    c.add_argument("--format", choices=["text", "json", "latex"], default="text")
    c.add_argument("--out", default=None)
    c.set_defaults(fn=cmd_compute)

    t = sub.add_parser("tableaux", help="dump the set-valued tableau stream")
    t.add_argument("--shape", required=True)
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--format", choices=["text", "json"], default="json")
    t.add_argument("--out", default=None)
    t.set_defaults(fn=cmd_tableaux)

    v = sub.add_parser("verify", help="verify one identity")
    v.add_argument("identity", choices=sorted(IDENTITY_TAGS))
    v.add_argument("--shape", default=None)
    v.add_argument("--n", type=int, default=None)
    v.add_argument("--k", type=int, default=None)
    v.add_argument("--m", type=int, default=None)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--fast-trials", type=_nonnegative_int, default=0)
    v.add_argument("--format", choices=["text", "json"], default="text")
    v.add_argument("--out", default=None)
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("suite", help="run the full verification grid")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--fast-trials", type=_nonnegative_int, default=0)
    s.add_argument("--format", choices=["text", "json"], default="text")
    s.add_argument("--out", default=None)
    s.set_defaults(fn=cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise FileNotFoundError(f"--out directory does not exist: {args.out}")
        return args.fn(args)
    except _PARAM_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
