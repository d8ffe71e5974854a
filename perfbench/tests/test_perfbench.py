"""Tests of the benchmark itself: case generation, the oracle and tracing.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracle  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer  # noqa: E402

import grothpoly.cli as cli  # noqa: E402
import grothpoly.grothendieck as gr  # noqa: E402
import grothpoly.identities as ids  # noqa: E402
import grothpoly.poly as poly  # noqa: E402
from grothpoly import RationalPoint, g_tableau  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_cases_are_deterministic_per_seed_and_differ_across_seeds(workload):
    first = workloads.generate(workload, 3)
    assert first == workloads.generate(workload, 3)
    assert len({c.case_id for c in first}) == len(first)
    others = [workloads.generate(workload, s) for s in range(4, 10)]
    assert any(o != first for o in others)


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError):
        workloads.generate("nope", 1)


def test_zero_cases_are_marked_only_for_the_deformed_gm_identity():
    cases = workloads.generate("deformed_grid", 1)
    marked = {c.case_id for c in cases if c.known_defect}
    assert "gm_type lam=0 n=2" in marked
    assert all(c.startswith("gm_type ") for c in marked)
    assert not any(c.known_defect for c in workloads.generate("classical_grid", 1))


def _rational(point: oracle.Point) -> RationalPoint:
    return RationalPoint(beta=point.b, xs=point.xs, ys=point.ys)


@pytest.mark.parametrize(
    "shape,n", [((), 2), ((1,), 1), ((1,), 3), ((2, 1), 2), ((2, 1), 3), ((1, 1, 1), 3), ((2, 2), 3)]
)
def test_oracle_agrees_with_g_tableau(shape, n):
    rng = random.Random(f"{shape}/{n}")
    for _ in range(3):
        g = g_tableau(shape, n)
        point = oracle.seeded_point(rng, g.universe.n_x, g.universe.n_y)
        want = oracle.grothendieck_value(shape, n, point)
        assert g.eval_rational(_rational(point)) == want
        assert oracle.json_poly_value(g.to_json_obj(), point) == want


def test_oracle_rejects_a_perturbed_polynomial():
    g = g_tableau((2, 1), 2)
    obj = g.to_json_obj()
    obj["terms"][-1]["coeff"] = str(int(obj["terms"][-1]["coeff"]) + 1)
    point = oracle.seeded_point(random.Random(0), g.universe.n_x, g.universe.n_y)
    assert oracle.json_poly_value(obj, point) != oracle.grothendieck_value((2, 1), 2, point)


def test_oracle_determinant_of_a_singular_matrix_is_zero():
    assert oracle._det([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 0


_TRACE_ARGVS = [
    ["verify", "gm_type", "--shape", "1,0", "--n", "2", "--format", "json"],
    ["verify", "gm_type", "--shape", "0", "--n", "2", "--format", "json"],
    ["verify", "fnr_type", "--shape", "1", "--m", "2", "--n", "2", "--format", "json"],
    ["verify", "classical_gm", "--shape", "2,1", "--n", "3", "--format", "json"],
    ["verify", "classical_louck", "--m", "3", "--n", "2", "--format", "json"],
    ["verify", "vandermonde_lemma", "--n", "3", "--format", "json"],
    ["verify", "good_k_general", "--n", "3", "--k", "1", "--format", "json"],
    ["compute", "--shape", "2,1", "--n", "2", "--method", "all", "--format", "json"],
    ["compute", "--shape", "2", "--n", "3", "--method", "determinant", "--format", "json"],
]


def _outputs():
    outs = []
    for argv in _TRACE_ARGVS:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(list(argv))
        text = buf.getvalue()
        if argv[0] == "verify":
            report = json.loads(text)
            report.pop("elapsed_ms")
            text = json.dumps(report)
        outs.append((code, text))
    return outs


def test_tracing_leaves_outputs_byte_identical_and_restores_everything():
    originals = (poly.Polynomial.__mul__, poly.Polynomial.__eq__, ids.restrict,
                 gr.poly_sum, cli.main, ids.verify_gm_type.__kwdefaults__["builder"])
    plain = _outputs()
    tracer = Tracer()
    with tracer.installed():
        assert ids.verify_gm_type.__kwdefaults__["builder"] is not g_tableau
        assert cli.main is not originals[4]
        traced = _outputs()
    assert traced == plain
    assert (poly.Polynomial.__mul__, poly.Polynomial.__eq__, ids.restrict,
            gr.poly_sum, cli.main, ids.verify_gm_type.__kwdefaults__["builder"]) == originals
    assert tracer.calls["cli.main"] == len(_TRACE_ARGVS)
    assert tracer.calls["grothendieck.restrict"] > 0
    assert tracer.calls["grothendieck.g_tableau"] > 0
    assert tracer.calls["grothendieck.g_divided_difference"] == 1
    assert tracer.counts["poly.mul.term_pairs"] >= tracer.counts["poly.mul.out_terms"] > 0


def test_self_times_add_up_to_the_case_times():
    cases = [c for c in workloads.generate("deformed_grid", 1) if c.argv[-3] in ("1", "2")][:20]
    tracer = Tracer()
    checker = worker.Checker(1)
    with tracer.installed():
        result = worker.run_pass(cases, checker, tracer)
    total_ms = sum(tracer.layer_self_ms().values())
    assert total_ms == pytest.approx(1000 * sum(result["times"]), rel=0.02)
    case_spans = [s for s in tracer.spans if s[1] == "bench.case"]
    assert len(case_spans) == len(cases)
    assert all(s[4] is not None for s in tracer.spans if s[1] != "bench.case")


def test_checker_counts_a_known_defect_and_passes_a_true_verdict():
    cases = {c.case_id: c for c in workloads.generate("deformed_grid", 1)}
    result = worker.run_pass(
        [cases["gm_type lam=0 n=2"], cases["gm_type lam=1 n=2"]], worker.Checker(1), None
    )
    assert [(f["case"], f["known_defect"]) for f in result["failures"]] == [
        ("gm_type lam=0 n=2", True)
    ]
