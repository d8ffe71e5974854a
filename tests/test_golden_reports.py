"""Pinned verifier reports: verdict, term counts and witness of every small case.

tests/data/identity_reports.json holds, for each case below, the report's
identity, params, verdict, lhs_terms, rhs_terms and witness.  The cases are
the GM/FNR grids at n <= 3 and the corollary grid with the default builder,
the classical cases at n <= 3, and the GM/FNR grids at n <= 3 with the
perturbed builder (fast_trials=5, seed=3), whose reports carry witnesses.

Regenerate the file with ``PYTHONPATH=src:tests python tests/test_golden_reports.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

from grothpoly import run_case
from grothpoly.identities import grid_classical, grid_corollaries, grid_fnr_type, grid_gm_type
from helpers import perturbed_builder

FIXTURE = Path(__file__).parent / "data" / "identity_reports.json"
_FIELDS = ("identity", "params", "verdict", "lhs_terms", "rhs_terms", "witness")


def golden_cases():
    """(builder name, identity, params, options) for every pinned report."""
    small = [c for c in grid_gm_type() + grid_fnr_type() if c[1]["n"] <= 3]
    classical = [c for c in grid_classical() if c[1]["n"] <= 3]
    perturbed = {"builder": perturbed_builder, "fast_trials": 5, "seed": 3}
    return (
        [("g_tableau", identity, params, {}) for identity, params in small + grid_corollaries()]
        + [("g_tableau", identity, params, {}) for identity, params in classical]
        + [("perturbed_builder", identity, params, perturbed) for identity, params in small]
    )


def report_entries():
    entries = []
    for builder, identity, params, opts in golden_cases():
        obj = run_case(identity, params, **opts).to_json_obj()
        entries.append({"builder": builder, **{name: obj[name] for name in _FIELDS}})
    return entries


def test_reports_match_the_pinned_fixture():
    expected = json.loads(FIXTURE.read_text())
    got = report_entries()
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g == e


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        "[\n" + ",\n".join(json.dumps(e, sort_keys=True) for e in report_entries()) + "\n]\n"
    )
