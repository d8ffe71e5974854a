"""Command-line interface: outputs, formats, exit codes, determinism."""

import hashlib
import json
import re
from pathlib import Path

import pytest

from grothpoly import cli, identities
from helpers import perturbed_builder, skewed_builder


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_once_and_reused(capsys):
    # successive calls share one parser, and each prints what a fresh parser gives
    calls = [
        ["compute", "--shape", "2,1", "--n", "2", "--format", "json"],
        ["verify", "gm_type", "--shape", "1", "--n", "2"],
        ["tableaux", "--shape", "1", "--n", "2", "--format", "text"],
    ]
    for argv in calls:
        args = cli.build_parser.__wrapped__().parse_args(argv)
        fresh = (args.fn(args), capsys.readouterr().out)
        assert run_cli(capsys, *argv)[:2] == fresh, argv
    assert cli.build_parser() is cli.build_parser()
    # a bad argument still exits 2 on a later call, and the next call still parses
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "gm_type", "--n", "two"])
    assert exc.value.code == 2 and "invalid int value" in capsys.readouterr().err
    assert run_cli(capsys, "compute", "--shape", "1,2", "--n", "2")[0] == 2
    assert run_cli(capsys, *calls[1])[0] == 0


def test_compute_all_methods_agree(capsys):
    code, out, _ = run_cli(capsys, "compute", "--shape", "2,1", "--n", "2", "--method", "all")
    assert code == 0
    assert "methods agree: true" in out


def test_compute_zero_polynomial(capsys):
    code, out, _ = run_cli(capsys, "compute", "--shape", "1,1,1", "--n", "2")
    assert code == 0
    assert out.strip() == "0"


def test_compute_latex(capsys):
    code, out, _ = run_cli(capsys, "compute", "--shape", "1", "--n", "1", "--format", "latex")
    assert code == 0
    assert out.strip() == r"\beta x_{1} y_{1} + x_{1} + y_{1}"


def test_compute_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "compute", "--shape", "2,1", "--n", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["universe"] == {"n_x": 2, "n_y": 3}
    from grothpoly import from_json_obj, g_tableau

    assert from_json_obj(obj) == g_tableau((2, 1), 2)
    text = json.dumps(g_tableau((2, 1), 2).to_json_obj())
    assert out == text + "\n"
    code, out, _ = run_cli(
        capsys, "compute", "--shape", "2,1", "--n", "2", "--method", "all", "--format", "json"
    )
    assert code == 0
    assert out.splitlines() == [
        f"{name}: {text}" for name in ("tableau", "determinant", "divided-difference")
    ] + ["methods agree: true"]


def test_compute_json_bytes_are_pinned(capsys):
    # the sha256 of json.dumps's text for this 77,598-term result, which to_json must keep
    code, out, _ = run_cli(
        capsys, "compute", "--shape", "3,2", "--n", "4", "--method", "determinant", "--format", "json"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "348971561aa09ccda2640bdc7aed68fb8c919b0fd88655b59f12bd4689aee31f"
    )


def test_compute_bad_shape_exit_2(capsys):
    code, _, err = run_cli(capsys, "compute", "--shape", "1,2", "--n", "2")
    assert code == 2
    assert "error:" in err and "weakly decreasing" in err


@pytest.mark.parametrize("method", ["tableau", "determinant", "divided-difference", "all"])
def test_compute_nonpositive_n_exit_2(capsys, method):
    for n in ("0", "-1"):
        code, out, err = run_cli(capsys, "compute", "--shape", "", "--n", n, "--method", method)
        assert (code, out) == (2, ""), (method, n)
        assert err == "error: n must be a positive integer\n", (method, n)


def test_tableaux_json_order(capsys):
    code, out, _ = run_cli(capsys, "tableaux", "--shape", "2,1", "--n", "2")
    assert code == 0
    objs = json.loads(out)
    assert [o["fill"] for o in objs] == [
        [[1, 1, [1]], [1, 2, [1]], [2, 1, [2]]],
        [[1, 1, [1]], [1, 2, [1, 2]], [2, 1, [2]]],
        [[1, 1, [1]], [1, 2, [2]], [2, 1, [2]]],
    ]


def test_verify_pass_exit_0(capsys):
    code, out, _ = run_cli(capsys, "verify", "gm_type", "--shape", "2,1", "--n", "3")
    assert code == 0
    assert "pass" in out


def test_verify_precondition_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "fnr_type", "--shape", "2", "--m", "1", "--n", "2")
    assert code == 2
    assert "lam_1 <= m-k" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("good_k_general", "--n", "3", "--k", "-1"), "need 0 <= k <= n, got k=-1, n=3"),
        (("good_k_general", "--n", "3", "--k", "4"), "need 0 <= k <= n, got k=4, n=3"),
        (("good_general", "--n", "0"), "n must be positive"),
        (("louck_general", "--m", "1", "--n", "3"), "need m >= n-1 >= 0, got m=1, n=3"),
    ],
)
def test_verify_corollary_precondition_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


_MISSING_FLAGS = {
    "gm_type": "--shape, --n",
    "fnr_type": "--shape, --m, --n",
    "vandermonde_lemma": "--n",
    "e_beta_recurrence": "--k, --n",
    "good_general": "--n",
    "louck_general": "--m, --n",
    "good_k_general": "--n, --k",
    "classical_gm": "--shape, --n",
    "classical_good": "--n",
    "classical_louck": "--m, --n",
    "classical_fnr": "--shape, --m, --n",
}


@pytest.mark.parametrize("identity", identities.IDENTITY_TAGS)
def test_verify_missing_params_exit_2(capsys, identity):
    flags = _MISSING_FLAGS[identity]
    code, out, err = run_cli(capsys, "verify", identity)
    assert code == 2 and out == ""
    assert err == f"error: {identity} needs {flags}\n"
    if flags != "--n":  # only the flags still missing are named
        rest = ", ".join(f for f in flags.split(", ") if f != "--n")
        code, _, err = run_cli(capsys, "verify", identity, "--n", "2")
        assert code == 2
        assert err == f"error: {identity} needs {rest}\n"


@pytest.mark.parametrize(
    "argv, flags",
    [
        (("gm_type", "--shape", "1", "--n", "2", "--k", "3", "--m", "7"), "--k, --m"),
        (("fnr_type", "--shape", "1", "--n", "3", "--k", "1", "--m", "3"), "--k"),
        (("vandermonde_lemma", "--shape", "1", "--n", "3"), "--shape"),
        (("good_k_general", "--n", "3", "--k", "1", "--m", "2"), "--m"),
        (("classical_good", "--n", "2", "--k", "1"), "--k"),
    ],
)
def test_verify_unknown_params_exit_2(capsys, argv, flags):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {argv[0]} does not take {flags}\n"


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_lists_every_identity_tag():
    paragraph = README.read_text().split("Identity tags:", 1)[1].split("\n\n", 1)[0]
    assert set(re.findall(r"`(\w+)`", paragraph)) == set(identities.IDENTITY_TAGS)


def test_readme_cli_examples_parse():
    block = README.read_text().split("## CLI", 1)[1].split("```", 2)[1]
    examples = [line.split("#", 1)[0].split() for line in block.splitlines()]
    examples = [argv for argv in examples if argv[:1] == ["grothpoly"]]
    assert len(examples) >= 5
    parser = cli.build_parser()
    for argv in examples:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {' '.join(argv)}")


def test_verify_fail_exit_1(monkeypatch, capsys):
    # a builder returning G + b makes the identity false on the real CLI path
    monkeypatch.setitem(identities.run_case.__kwdefaults__, "builder", perturbed_builder)
    code, out, _ = run_cli(capsys, "verify", "gm_type", "--shape", "0", "--n", "2")
    assert code == 1
    assert "fail" in out


def test_verify_witness_proves_failure(monkeypatch, capsys):
    monkeypatch.setitem(identities.run_case.__kwdefaults__, "builder", perturbed_builder)
    argv = ("verify", "gm_type", "--shape", "0", "--n", "2", "--fast-trials", "10", "--seed", "1")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert "witness=" in out
    assert "NOT proofs" not in out  # a witness is a proof of failure


def test_verify_non_symmetric_builder_exit_2(monkeypatch, capsys):
    # a builder whose G is not symmetric breaks the identities' precondition
    monkeypatch.setitem(identities.run_case.__kwdefaults__, "builder", skewed_builder)
    code, out, err = run_cli(capsys, "verify", "gm_type", "--shape", "2,1", "--n", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "not symmetric" in err


def test_benchmark_tracer_keeps_output(monkeypatch, capsys):
    # perfbench/tracing.py binds package names (identities.restrict, ...)
    # directly; a rename would otherwise break only the traced benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracing import Tracer

    def verify():
        outs = []
        for identity in ("gm_type", "classical_gm"):
            code, out, _ = run_cli(
                capsys, "verify", identity, "--shape", "2,1", "--n", "3", "--format", "json"
            )
            obj = json.loads(out)
            obj.pop("elapsed_ms")
            outs.append((code, obj))
        return outs

    plain = verify()
    tracer = Tracer()
    try:
        tracer.install()
        traced = verify()
    finally:
        tracer.uninstall()
    assert traced == plain and all(code == 0 for code, _ in plain)
    assert tracer.calls["grothendieck.restrict"] > 0
    # the traced builder reaches the cases through run_case's __kwdefaults__,
    # and each CLI call is one identities.run_case call (identities.cases)
    assert tracer.calls["grothendieck.g_tableau"] > 0
    assert tracer.calls["identities.run_case"] == len(plain)


def test_verify_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "vandermonde_lemma", "--n", "3", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {
        "identity",
        "params",
        "verdict",
        "elapsed_ms",
        "lhs_terms",
        "rhs_terms",
        "witness",
    }


def test_text_output_byte_identical(capsys):
    args = ("verify", "gm_type", "--shape", "2,1", "--n", "3", "--seed", "5")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "good_general", "--n", "2", "--format", "json", "--out", str(path)
    )
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["verdict"] == "pass"


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "--shape", "2,1", "--n", "2"),
        ("tableaux", "--shape", "1", "--n", "2"),
        ("verify", "good_general", "--n", "2"),
        ("suite",),
    ],
)
def test_unwritable_out_exit_2(monkeypatch, tmp_path, capsys, argv):
    monkeypatch.setattr(identities, "suite_cases", lambda seed=0: [("good_general", {"n": 2})])
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "missing" / "x"))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_suite_with_small_grid(monkeypatch, capsys):
    small = [
        ("vandermonde_lemma", {"n": 2}),
        ("good_general", {"n": 2}),
        ("e_beta_recurrence", {"k": 1, "n": 2}),
    ]
    monkeypatch.setattr(identities, "suite_cases", lambda seed=0: small)
    code, out, _ = run_cli(capsys, "suite")
    assert code == 0
    assert "TOTAL: 3 checks, 3 pass, 0 fail" in out


def test_suite_json_array(monkeypatch, capsys):
    small = [("vandermonde_lemma", {"n": 2})]
    monkeypatch.setattr(identities, "suite_cases", lambda seed=0: small)
    code, out, _ = run_cli(capsys, "suite", "--format", "json")
    assert code == 0
    arr = json.loads(out)
    assert isinstance(arr, list) and arr[0]["identity"] == "vandermonde_lemma"


def test_suite_fail_exit_1(monkeypatch, capsys):
    small = [("gm_type", {"lam": [0], "n": 2})]  # a zero case, false with G + b
    monkeypatch.setattr(identities, "suite_cases", lambda seed=0: small)
    monkeypatch.setitem(identities.run_case.__kwdefaults__, "builder", perturbed_builder)
    code, out, _ = run_cli(capsys, "suite")
    assert code == 1
    assert "1 fail" in out


@pytest.mark.parametrize("argv", [("verify", "good_general", "--n", "3"), ("suite",)])
def test_sampling_only_flag_is_rejected(monkeypatch, capsys, argv):
    monkeypatch.setattr(identities, "suite_cases", lambda seed=0: [("good_general", {"n": 2})])
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--fast-only"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [("verify", "good_general", "--n", "3"), ("suite",)])
def test_negative_fast_trials_exit_2(monkeypatch, capsys, argv):
    # a negative count is rejected, not read as 0; 0 itself stays valid
    monkeypatch.setattr(identities, "suite_cases", lambda seed=0: [("good_general", {"n": 2})])
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--fast-trials", "-1"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "--fast-trials: expected a nonnegative integer" in err
    assert run_cli(capsys, *argv, "--fast-trials", "0")[0] == 0
