"""Runs one workload in a closed loop inside a fresh process.

One caller, no threads: each case is one ``grothpoly.cli.main`` call, and
the next starts only after the previous one has returned.  The worker makes
passes over the case list (every case once per pass) until the time budget
would be exceeded, checks every output and prints one JSON object with the
per-pass measurements as its last line.

Usage (normally started by run.py, from the repository root, with
PYTHONPATH=src):

    python3 perfbench/worker.py --workload deformed_grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/worker.py --workload constructions --seed 1 --setup-only
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import random
import resource
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, process_time

sys.path.insert(0, str(Path(__file__).resolve().parent))

import grothpoly.cli as cli  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

TAIL_BEYOND = 10  # the tail percentile keeps this many cases beyond it


def _call(case) -> tuple[int | None, str, str | None]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(case.argv))
    except Exception:  # a raising case is a failed case; the loop goes on
        return None, out.getvalue(), traceback.format_exc(limit=3)
    return code, out.getvalue(), err.getvalue() or None


def _verdict_digest(case, code, text) -> tuple[str, str | None]:
    """Digest of a verify report without its elapsed time, and the problem, if any."""
    try:
        report = json.loads(text)
    except ValueError:
        return "", f"unparseable report (exit {code})"
    report.pop("elapsed_ms", None)
    digest = json.dumps(report, sort_keys=True)
    if report.get("identity") != case.argv[1]:
        return digest, f"report names {report.get('identity')!r}"
    if report.get("verdict") != "pass" or code != 0:
        return digest, f"verdict {report.get('verdict')!r}, exit {code}"
    if report.get("lhs_terms") != report.get("rhs_terms") or report.get("witness"):
        return digest, "pass with unequal sides"
    return digest, None


class Checker:
    """Checks outputs against expected answers and the oracle.

    The first pass checks every output in full and keeps a digest of it;
    later passes, traced or not, must reproduce each digest byte for byte.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.reference: dict[str, tuple[str, str | None]] = {}
        self.pair_digest: dict[str, str] = {}

    def _oracle_problem(self, case, obj) -> str | None:
        rng = random.Random(f"{self.seed}:{case.case_id}")
        point = oracle.seeded_point(rng, obj["universe"]["n_x"], obj["universe"]["n_y"])
        expected = oracle.grothendieck_value(case.shape, case.n, point)
        got = oracle.json_poly_value(obj, point)
        if obj["universe"]["n_x"] != case.n or got != expected:
            return f"differs from the oracle at {point}: {got} != {expected}"
        return None

    def _full_check(self, case, code, text) -> tuple[str, str | None]:
        if case.check == "verdict":
            return _verdict_digest(case, code, text)
        digest = hashlib.sha256(text.encode()).hexdigest()
        if code != 0:
            return digest, f"exit {code}"
        lines = text.rstrip("\n").split("\n")
        if case.check == "agree":
            if lines[-1] != "methods agree: true":
                return digest, f"last line {lines[-1][:80]!r}"
            bodies = {line.split(": ", 1)[1] for line in lines[:-1]}
            if len(lines) != 4 or len(bodies) != 1:
                return digest, "methods print different polynomials"
            body = bodies.pop()
        else:
            body = lines[0]
            other = self.pair_digest.setdefault(case.pair, digest)
            if other != digest or len(lines) != 1:
                return digest, "builders disagree"
        try:
            obj = json.loads(body)
        except ValueError:
            return digest, "unparseable polynomial"
        return digest, self._oracle_problem(case, obj)

    def check(self, case, code, text, err) -> str | None:
        """None when the output is right, else a one-line reason."""
        if code is None:
            return f"raised: {err.strip().splitlines()[-1] if err else '?'}"
        ref = self.reference.get(case.case_id)
        if ref is None:
            digest, problem = self._full_check(case, code, text)
            self.reference[case.case_id] = (digest, problem)
            return problem
        if case.check == "verdict":
            digest, _ = _verdict_digest(case, code, text)
        else:
            digest = hashlib.sha256(text.encode()).hexdigest()
        if digest != ref[0]:
            return "output differs from the first pass"
        return ref[1]


def run_pass(cases, checker: Checker, tracer: Tracer | None) -> dict:
    times, failures = [], []
    cpu0 = process_time()
    for case in cases:
        # Every case starts from a collected heap, as a fresh CLI process
        # would; without this a case's time swings by 30% with the garbage
        # left by the one before.  Collections the case itself causes are timed.
        gc.collect()
        if tracer is None:
            t0 = perf_counter()
            code, text, err = _call(case)
            times.append(perf_counter() - t0)
        else:
            t0 = perf_counter()
            code, text, err = tracer.run_case(case.case_id, lambda c=case: _call(c))
            times.append(perf_counter() - t0)
            tracer.counts["cli.out_bytes"] += len(text)
        problem = checker.check(case, code, text, err)
        if problem is not None:
            failures.append({"case": case.case_id, "why": problem,
                             "known_defect": case.known_defect and code == 1})
    return {"times": times, "failures": failures, "cpu_s": process_time() - cpu0}


def summarize(passes) -> dict:
    """Each case's median time over the passes, then statistics over cases.

    wall_s is the sum of those medians: the time to run every case once.
    The tail is the slowest case but TAIL_BEYOND, i.e. the highest
    percentile with at least TAIL_BEYOND cases beyond it.
    """
    per_case = sorted(statistics.median(ts) for ts in zip(*(p["times"] for p in passes)))
    n = len(per_case)
    k = max(n - TAIL_BEYOND - 1, 0)
    return {
        "wall_s": sum(per_case),
        "case_p50_ms": 1000 * statistics.median(per_case),
        "case_tail_ms": 1000 * per_case[k],
        "tail_percentile": 100.0 * (k + 1) / n,
        "cases_per_pass": n,
        "pass_wall_s": [sum(p["times"]) for p in passes],
        "pass_cpu_s": [p["cpu_s"] for p in passes],
    }


def _per_layer(tracer: Tracer, n_passes: int) -> dict:
    """Per-pass averages of the traced counters and self times."""
    c, calls, self_s = tracer.counts, tracer.calls, tracer.self_s

    def per(v):
        return v / n_passes

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for fn in ("mul", "poly_sum", "substitute", "exact_div", "determinant",
               "divided_difference", "eq"):
        m[f"poly.{fn}.calls"] = per(calls[f"poly.{fn}"])
        m[f"poly.{fn}.self_ms"] = per(1000 * self_s[f"poly.{fn}"])
    m["poly.mul.term_pairs"] = per(c["poly.mul.term_pairs"])
    m["poly.mul.out_terms"] = per(c["poly.mul.out_terms"])
    m["poly.mul.fill"] = ratio(c["poly.mul.out_terms"], c["poly.mul.term_pairs"])
    for fn in ("poly_sum", "substitute"):
        m[f"poly.{fn}.in_terms"] = per(c[f"poly.{fn}.in_terms"])
        m[f"poly.{fn}.out_terms"] = per(c[f"poly.{fn}.out_terms"])
        m[f"poly.{fn}.keep"] = ratio(c[f"poly.{fn}.out_terms"], c[f"poly.{fn}.in_terms"])
    m["poly.exact_div.quot_terms"] = per(c["poly.exact_div.quot_terms"])
    m["poly.to_json_obj.self_ms"] = per(1000 * self_s["poly.to_json_obj"])
    m["poly.max_terms"] = c["poly.max_terms"]
    m["tableaux.enumerate.tableaux"] = per(c["tableaux.enumerate.tableaux"])
    m["tableaux.enumerate.self_ms"] = per(1000 * self_s["tableaux.enumerate"])
    m["tableaux.weight.calls"] = per(calls["tableaux.weight"])
    m["tableaux.weight.self_ms"] = per(1000 * self_s["tableaux.weight"])
    for fn in ("g_tableau", "g_determinant", "g_divided_difference"):
        m[f"grothendieck.{fn}.calls"] = per(calls[f"grothendieck.{fn}"])
        m[f"grothendieck.{fn}.self_ms"] = per(1000 * self_s[f"grothendieck.{fn}"])
        m[f"grothendieck.{fn}.out_terms"] = per(c[f"grothendieck.{fn}.out_terms"])
    m["grothendieck.pi_operator.calls"] = per(calls["grothendieck.pi_operator"])
    restricts = calls["grothendieck.restrict"]
    m["grothendieck.restrict.calls"] = per(restricts)
    m["grothendieck.restrict.self_ms"] = per(1000 * self_s["grothendieck.restrict"])
    m["grothendieck.restrict.distinct"] = len(tracer.restrict_keys)
    m["grothendieck.restrict.reuse"] = (
        1 - len(tracer.restrict_keys) * n_passes / restricts if restricts else 0.0
    )
    m["identities.cases"] = per(calls["identities.run_case"])
    m["identities.clear_denominator.calls"] = per(calls["identities.clear_denominator"])
    m["identities.clear_denominator.self_ms"] = per(1000 * self_s["identities.clear_denominator"])
    m["cli.calls"] = per(calls["cli.main"])
    m["cli.out_bytes"] = per(c["cli.out_bytes"])
    for layer, ms in tracer.layer_self_ms().items():
        m[f"{layer}.self_ms"] = per(ms)
    return m


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="generate the case list, report readiness and exit")
    args = ap.parse_args(argv)

    cases = workloads.generate(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    checker = Checker(args.seed)
    started = perf_counter()
    plain, traced = [], []
    tracer = Tracer() if args.trace else None
    while True:
        # With tracing on, untraced and traced passes alternate, untraced first.
        use_tracer = tracer is not None and len(plain) > len(traced)
        if use_tracer:
            with tracer.installed():
                traced.append(run_pass(cases, checker, tracer))
        else:
            plain.append(run_pass(cases, checker, None))
        elapsed = perf_counter() - started
        typical = statistics.median(sum(p["times"]) for p in plain + traced)
        # At least two untraced passes, or one of each kind when tracing.
        enough = len(traced) >= 1 if tracer is not None else len(plain) >= 2
        if enough and elapsed + typical * (1.5 if tracer is not None else 1.0) > args.seconds:
            break

    failures = [f for p in plain + traced for f in p["failures"]]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(plain),
        "traced_passes": len(traced),
        "attempted": sum(len(p["times"]) for p in plain + traced),
        "failed": len(failures),
        "unexpected_failures": sum(not f["known_defect"] for f in failures),
        "failures": sorted({(f["case"], f["why"], f["known_defect"]) for f in failures}),
        "measured_s": perf_counter() - started,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": sys.version,
        "grothpoly": str(Path(cli.__file__).resolve().parent),
        "commit": _git_commit(Path(__file__).resolve().parent.parent),
        **summarize(plain),
        "case_ms": {
            case.case_id: 1000 * statistics.median(p["times"][i] for p in plain)
            for i, case in enumerate(cases)
        },
    }
    if tracer is not None:
        layer = _per_layer(tracer, len(traced))
        traced_wall = summarize(traced)["wall_s"]
        layer["trace.wall_s"] = traced_wall
        layer["trace.untraced_wall_s"] = result["wall_s"]
        layer["trace.overhead_s"] = traced_wall - result["wall_s"]
        result["per_layer"] = layer
        result["traced_mean_wall_s"] = statistics.mean(sum(p["times"]) for p in traced)
        result["by_parent"] = sorted(
            [name, parent, v[0], 1000 * v[1]] for (name, parent), v in tracer.by_parent.items()
        )
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
