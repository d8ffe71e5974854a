"""Identity verifiers: clearing algebra, each family, classical limits, fast path."""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from grothpoly import (
    IDENTITY_TAGS,
    IdentityReport,
    Partition,
    PreconditionViolatedError,
    VariableUniverse,
    clear_denominator_fnr,
    clear_denominator_gm,
    e_beta,
    fast_check,
    g_determinant,
    g_divided_difference,
    run_case,
    verify_classical,
    verify_e_beta_recurrence,
    verify_fnr_type,
    verify_gm_type,
    verify_good_general,
    verify_good_k_general,
    verify_louck_general,
    verify_vandermonde_lemma,
)
from grothpoly import g_tableau, identities, poly_sum, relabel_x_sum
from grothpoly.identities import grid_corollaries, grid_fnr_type, grid_gm_type
from cleared_reference import cross_product, fnr_cleared_term, gm_cleared_term
from helpers import (
    elementary_symmetric_oracle,
    perturbed_builder,
    random_polynomial,
    schur_oracle,
    skewed_builder,
)


# -- denominator clearing ----------------------------------------------------


def test_clear_gm_examples():
    U = VariableUniverse(2, 0)
    sign, cof = clear_denominator_gm((1,), 2, 1, U)
    assert sign == 1 and cof == 1
    U4 = VariableUniverse(4, 0)
    sign, cof = clear_denominator_gm((1, 2, 3, 4), 4, 4, U4)
    assert cof == U4.vandermonde([1, 2, 3, 4])


def test_clearing_factorizations_reproduce_vandermonde():
    # sign * cofactor * cross == V for every subset, both orientations, n <= 5
    for n in range(1, 6):
        U = VariableUniverse(n, 0)
        V = U.vandermonde(range(1, n + 1))
        for k in range(n + 1):
            for S in combinations(range(1, n + 1), k):
                s1, c1 = clear_denominator_gm(S, n, k, U)
                assert c1 * cross_product(S, n, U) * s1 == V
                s2, c2 = clear_denominator_fnr(S, n, k, U)
                assert c2 * cross_product(S, n, U, reversed_sign=True) * s2 == V


def test_clearing_shares_cofactor_and_checks_subset_size():
    # both orientations clear with the same cofactor; the crosses differ by
    # (-1)^{k(n-k)}, and so do the signs
    n, k = 4, 2
    U = VariableUniverse(n, 0)
    for S in combinations(range(1, n + 1), k):
        s_gm, c_gm = clear_denominator_gm(S, n, k, U)
        s_fnr, c_fnr = clear_denominator_fnr(S, n, k, U)
        assert s_gm in (-1, 1) and c_gm == c_fnr
        assert s_fnr == s_gm * (-1) ** (k * (n - k))
    for clear in (clear_denominator_gm, clear_denominator_fnr):
        with pytest.raises(ValueError, match=r"\|S\| must equal k"):
            clear((1, 2, 3), n, k, U)


# -- the cleared right side against the per-subset reference --------------------

# every GM/FNR grid case at n <= 3 (GM zero cases, k = n and FNR lam = 0^k
# among them), plus k = 0
_SUBSET_SUM_CASES = (
    grid_gm_type(ns=(1, 2, 3))
    + grid_fnr_type(ns=(1, 2, 3))
    + [("gm_type", {"lam": [], "n": 3}), ("fnr_type", {"lam": [], "m": 2, "n": 3})]
)


def _per_subset_rhs(identity, params, universe, builder):
    """The cleared right side built subset by subset and summed with poly_sum."""
    lam, n = params["lam"], params["n"]
    subsets = combinations(range(1, n + 1), len(lam))
    if identity == "gm_type":
        terms = (gm_cleared_term(lam, n, S, universe, builder) for S in subsets)
    else:
        terms = (fnr_cleared_term(lam, params["m"], n, S, universe, builder) for S in subsets)
    return poly_sum(universe, terms)


@pytest.mark.parametrize("builder", [g_tableau, perturbed_builder])
def test_relabelled_subset_sum_equals_per_subset_terms(builder):
    for identity, params in _SUBSET_SUM_CASES:
        rep = run_case(identity, params, builder=builder)
        U = rep.rhs.universe
        assert rep.rhs == _per_subset_rhs(identity, params, U, builder), (identity, params)
        if builder is g_tableau:
            assert rep.passed, (identity, params)


def test_perturbed_verdicts_keep_their_term_counts():
    # (lhs_terms, rhs_terms) of false statements, as the per-subset sum gave them
    for identity, params, counts in [
        ("gm_type", {"lam": [2, 1], "n": 3}, (192, 192)),
        ("gm_type", {"lam": [1, 0], "n": 3}, (6, 12)),
        ("fnr_type", {"lam": [1], "m": 3, "n": 3}, (1332, 2682)),
    ]:
        obj = run_case(identity, params, builder=perturbed_builder).to_json_obj()
        assert obj["verdict"] == "fail"
        assert (obj["lhs_terms"], obj["rhs_terms"]) == counts


# -- verdicts on the uncleared sides -------------------------------------------


def _block_symmetrized(universe, p, k):
    """Sum of p over the permutations of x_1..x_k and of x_{k+1}..x_n."""
    n = universe.n_x
    maps = [
        (1, head + tail)
        for head in permutations(range(1, k + 1))
        for tail in permutations(range(k + 1, n + 1))
    ]
    return relabel_x_sum(universe, p, maps)


def test_push_forward_is_the_cleared_subset_sum():
    # V * d_v F == sum_S sign(S) cofactor(S) sigma_S(F) for block-symmetric F
    rng = random.Random(7)
    for n in range(1, 5):
        U = VariableUniverse(n, 1)
        V = U.vandermonde(range(1, n + 1))
        for k in range(n + 1):
            for _ in range(3):
                p = random_polynomial(U, rng, max_terms=3, nonzero=True)
                F = _block_symmetrized(U, p, k)
                cleared = U.zero()
                for S in combinations(range(1, n + 1), k):
                    sign, cof = clear_denominator_gm(S, n, k, U)
                    rest = tuple(j for j in range(1, n + 1) if j not in S)
                    cleared = cleared + sign * cof * relabel_x_sum(U, F, [(1, S + rest)])
                assert V * identities._push_forward(F, n, k) == cleared, (n, k)


_BUILDER_CASES = _SUBSET_SUM_CASES + [
    case for case in grid_corollaries() if case[0] != "e_beta_recurrence"
]


@pytest.mark.parametrize("builder", [g_tableau, perturbed_builder])
def test_reported_counts_are_those_of_the_cleared_sides(builder):
    for identity, params in _BUILDER_CASES:
        rep = run_case(identity, params, builder=builder)
        assert rep.denominator is not None, (identity, params)
        assert (rep.lhs_terms, rep.rhs_terms) == (rep.lhs.num_terms, rep.rhs.num_terms), (
            identity,
            params,
        )


def test_non_symmetric_builder_is_rejected():
    # the side whose builder output is not symmetric; with k = 1 the check on
    # G_lam has nothing to swap, and only G_mu is caught, on its failing verdict
    for identity, params, side in [
        ("gm_type", {"lam": [2, 1], "n": 3}, "G_lam for lam=[2, 1] is not symmetric in x_1..x_2"),
        ("gm_type", {"lam": [1], "n": 2}, "G_mu for gm_type is not symmetric in x_1..x_2"),
        ("gm_type", {"lam": [1, 1], "n": 2}, "G_lam for lam=[1, 1] is not symmetric in x_1..x_2"),
        ("gm_type", {"lam": [2, 1, 0], "n": 3}, "G_lam for lam=[2, 1, 0] is not symmetric"),
        ("fnr_type", {"lam": [1], "m": 3, "n": 3}, "G_mu for fnr_type is not symmetric in x_1..x_3"),
        ("fnr_type", {"lam": [1, 0], "m": 3, "n": 3}, "G_lam for lam=[1, 0] is not symmetric"),
        ("good_k_general", {"n": 3, "k": 2}, "G_lam for lam=[0, 0] is not symmetric"),
        ("classical_gm", {"lam": [2, 1], "n": 3}, "G_lam for lam=[2, 1] is not symmetric"),
    ]:
        with pytest.raises(PreconditionViolatedError) as exc:
            run_case(identity, params, builder=skewed_builder, fast_trials=5, seed=3)
        assert str(exc.value).startswith("the builder's " + side), (identity, params)


def test_k_equal_n_builds_g_once():
    calls = []

    def recording(shape, n, *, universe=None):
        calls.append((tuple(shape), n))
        return g_tableau(shape, n, universe=universe)

    for verify, args, builds in [
        (verify_gm_type, ((3, 2, 1), 3), [((3, 2, 1), 3)]),
        (verify_fnr_type, ((1, 0), 3, 2), [((1,), 2)]),
        # below k = n the left side G_mu is a second build
        (verify_gm_type, ((2, 1), 3), [((2, 1), 2), ((1, 0), 3)]),
    ]:
        calls.clear()
        assert verify(*args, builder=recording).passed
        assert calls == builds, verify.__name__


# -- Gustafson-Milne family ---------------------------------------------------


def test_gm_single_row_hand_case():
    # lam=(1), n=2: cleared numerator collapses to the Vandermonde itself
    rep = verify_gm_type((1,), 2)
    U = rep.lhs.universe
    V = U.vandermonde([1, 2])
    assert rep.passed
    assert rep.lhs == V  # LHS is G_(0) * V = V
    assert rep.rhs == V


def test_gm_full_grid_case():
    assert verify_gm_type((2, 1), 3).passed
    assert verify_gm_type((3, 2, 1), 3).passed


def test_gm_builders_agree():
    a = verify_gm_type((2, 1), 3)
    b = verify_gm_type((2, 1), 3, builder=g_determinant)
    assert a.lhs == b.lhs and a.rhs == b.rhs


def test_gm_zero_case_convention_and_defect():
    # lam_k - n + k < 0: the left side is the determinant quotient of the
    # zero-padded mu = (-1, 0), G_mu = -b, and the cleared right side is -b*V.
    rep = verify_gm_type((0,), 2)
    U = rep.lhs.universe
    V = U.vandermonde([1, 2])
    assert rep.lhs == -U.beta() * V
    assert rep.rhs == -U.beta() * V
    assert rep.verdict == "pass"
    # the beta = 0 specialization of both sides vanishes
    assert rep.lhs.substitute({"b": 0}).is_zero
    assert rep.rhs.substitute({"b": 0}).is_zero


def test_gm_zero_case_fails_only_through_beta():
    # the right side is nonzero but vanishes at b = 0, so the old rule
    # LHS := 0 failed only through beta; the determinant left side does too
    for lam, n in [((0,), 2), ((1,), 3), ((1, 0), 3)]:
        rep = verify_gm_type(lam, n)
        assert rep.verdict == "pass"
        assert not rep.rhs.is_zero
        assert rep.rhs.substitute({"b": 0}).is_zero
        assert rep.lhs.substitute({"b": 0}).is_zero


def test_gm_zero_case_extension_vanishes_at_beta_zero():
    cases = [p for _, p in grid_gm_type(ns=(2, 3)) if p["lam"][-1] - p["n"] + len(p["lam"]) < 0]
    assert cases
    for params in cases:
        lam, n = params["lam"], params["n"]
        k = len(lam)
        mu = tuple(part - n + k for part in lam)
        assert g_determinant(mu, n).substitute({"b": 0}).is_zero, params


def test_gm_zero_case_universe_and_builders():
    # lam=(0), n=3: mu = (-2, 0, 0) has exponents (0, 1, 0), so n_y = n-k-1 = 1
    rep = verify_gm_type((0,), 3)
    assert rep.passed
    assert rep.lhs.universe.n_y == 1
    # the zero-case left side does not depend on the builder
    for builder in (g_determinant, g_divided_difference):
        other = verify_gm_type((1, 0), 3, builder=builder)
        assert other.passed
        assert other.lhs == verify_gm_type((1, 0), 3).lhs


def test_gm_rejects_bad_parameters():
    with pytest.raises(PreconditionViolatedError):
        verify_gm_type((1, 2), 3)  # not weakly decreasing
    with pytest.raises(PreconditionViolatedError):
        verify_gm_type((1,) * 4, 3)  # k > n


def test_good_general():
    for n in (1, 2, 4):
        assert verify_good_general(n).passed
    # n = 2 shares the Lemma's 2x2 expansion
    rep = verify_good_general(2)
    assert rep.rhs == rep.lhs.universe.vandermonde([1, 2])


def test_louck_general():
    assert verify_louck_general(2, 2).passed
    assert verify_louck_general(3, 2).passed
    # m = n-1 degenerates to the Good case: identical cleared sides
    a = verify_louck_general(1, 2)
    b = verify_good_general(2)
    assert a.passed and a.lhs == b.lhs and a.rhs == b.rhs
    with pytest.raises(PreconditionViolatedError):
        verify_louck_general(1, 3)


# -- Feher-Nemethi-Rimanyi family ---------------------------------------------


def test_fnr_hand_case():
    rep = verify_fnr_type((0,), 1, 2)
    assert rep.passed
    assert rep.lhs == rep.lhs.universe.vandermonde([1, 2])


def test_fnr_grid_cases():
    assert verify_fnr_type((1,), 3, 3).passed
    assert verify_fnr_type((1, 1), 3, 3).passed
    assert verify_fnr_type((2,), 4, 4).passed


def test_fnr_builders_agree():
    a = verify_fnr_type((1,), 3, 2)
    b = verify_fnr_type((1,), 3, 2, builder=g_determinant)
    assert a.lhs == b.lhs and a.rhs == b.rhs


def test_fnr_zero_shape_reduces_to_good_k():
    a = verify_fnr_type((0, 0), 2, 3)
    b = verify_good_k_general(3, 2)
    assert a.passed and b.passed
    assert a.lhs == b.lhs and a.rhs == b.rhs


def test_fnr_precondition_gate():
    with pytest.raises(PreconditionViolatedError):
        verify_fnr_type((2,), 1, 2)  # lam_1 > m-k
    with pytest.raises(PreconditionViolatedError):
        verify_fnr_type((1,), 0, 2)  # m < k


def test_good_k_general():
    for n in (1, 3):
        for k in range(n + 1):
            assert verify_good_k_general(n, k).passed
    # k = n: the only subset is [n] and the cleared right side is V itself
    rep = verify_good_k_general(3, 3)
    assert rep.rhs == rep.lhs.universe.vandermonde([1, 2, 3])
    # k = n-1 specializes to the Good identity (same cleared sides)
    a = verify_good_k_general(3, 2)
    # both parameter maps give the universe n_y = n-1
    b = verify_good_general(3)
    assert a.lhs == b.lhs and a.rhs == b.rhs


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: verify_good_k_general(3, -1), "need 0 <= k <= n, got k=-1, n=3"),
        (lambda: verify_good_k_general(3, 4), "need 0 <= k <= n, got k=4, n=3"),
        (lambda: verify_good_general(0), "n must be positive"),
        (lambda: verify_louck_general(1, 3), "need m >= n-1 >= 0, got m=1, n=3"),
    ],
)
def test_corollary_maps_check_their_own_preconditions(call, message):
    # a value outside a corollary's range must not reach the family it maps into
    with pytest.raises(PreconditionViolatedError) as exc:
        call()
    assert str(exc.value) == message


def test_corollaries_honor_builder():
    for verify, args in ((verify_good_general, (3,)), (verify_good_k_general, (4, 2))):
        calls = []

        def recording_determinant(shape, n, *, universe=None):
            calls.append((tuple(shape), n))
            return g_determinant(shape, n, universe=universe)

        a = verify(*args)
        b = verify(*args, builder=recording_determinant)
        assert calls, verify.__name__
        assert a.passed and b.passed
        assert a.lhs == b.lhs and a.rhs == b.rhs


# -- determinant lemma and deformed elementary symmetric functions -------------


def test_vandermonde_lemma():
    for n in (1, 2, 4):
        rep = verify_vandermonde_lemma(n)
        assert rep.passed
    rep = verify_vandermonde_lemma(2)
    U = rep.lhs.universe
    assert rep.lhs == U.x(1) - U.x(2)


def test_e_beta_values():
    U = VariableUniverse(0, 2)
    assert e_beta(0, 2, U) == (1 + U.beta() * U.y(1)) * (1 + U.beta() * U.y(2))
    assert e_beta(1, 2, U) == U.y(1) + U.y(2) + 2 * U.beta() * U.y(1) * U.y(2)
    assert e_beta(-1, 2, U).is_zero
    assert e_beta(3, 2, U).is_zero


def test_e_beta_specializes_to_elementary_symmetric():
    for n in range(1, 5):
        U = VariableUniverse(0, n)
        for k in range(n + 1):
            got = e_beta(k, n, U).substitute({"b": 0})
            assert got == elementary_symmetric_oracle(k, n, U)


def test_e_beta_recurrence():
    assert verify_e_beta_recurrence(1, 2).passed
    assert verify_e_beta_recurrence(0, 3).passed  # k-1 term vanishes
    assert verify_e_beta_recurrence(3, 3).passed
    for n in range(1, 5):
        for k in range(n + 1):
            assert verify_e_beta_recurrence(k, n).passed


# -- classical specializations ---------------------------------------------------


def test_classical_gm():
    assert verify_classical("classical_gm", {"lam": [2, 1], "n": 3}).passed
    # classical zero cases hold (duplicate-column collapse at beta=0)
    assert verify_classical("classical_gm", {"lam": [0], "n": 2}).passed
    assert verify_classical("classical_gm", {"lam": [1, 0], "n": 3}).passed


def test_classical_fnr():
    assert verify_classical("classical_fnr", {"lam": [1], "m": 2, "n": 2}).passed
    assert verify_classical("classical_fnr", {"lam": [1], "m": 3, "n": 3}).passed


def test_classical_louck_value():
    rep = verify_classical("classical_louck", {"m": 3, "n": 2})
    assert rep.passed
    # h_2(x1,x2) * V against an explicit complete-homogeneous oracle
    U = rep.lhs.universe
    h2 = U.x(1) ** 2 + U.x(1) * U.x(2) + U.x(2) ** 2
    assert rep.lhs == h2 * U.vandermonde([1, 2])


def test_classical_good_reciprocal_spot_value():
    # 1 = 1/(1 - x1/x2) + 1/(1 - x2/x1) at (2, 5): the terms are 5/3 and -2/3
    x1, x2 = Fraction(2), Fraction(5)
    total = 1 / (1 - x1 / x2) + 1 / (1 - x2 / x1)
    assert total == 1
    assert 1 / (1 - x1 / x2) == Fraction(5, 3)
    assert 1 / (1 - x2 / x1) == Fraction(-2, 3)
    rep = verify_classical("classical_good", {"n": 2, "trials": 100, "seed": 7})
    assert rep.passed


def test_specialization_coherence_gm_termwise():
    # every cleared subset term specializes to its classical counterpart
    lam, n = (2, 1), 3
    k = len(lam)
    U = VariableUniverse(n, lam[0] + k - 1)
    kill = {"b": 0, **{f"y{j}": 0 for j in range(1, U.n_y + 1)}}
    for S in combinations(range(1, n + 1), k):
        general = gm_cleared_term(lam, n, S, U).substitute(kill)
        sign, cof = clear_denominator_gm(S, n, k, U)
        local = VariableUniverse(k, U.n_y)
        s_lam = schur_oracle(lam, k, local).substitute(
            {f"x{r}": U.x(S[r - 1]) for r in range(1, k + 1)}, universe=U
        )
        assert general == s_lam * cof * sign


def test_specialization_coherence_fnr_termwise():
    lam, m, n = (1,), 3, 3
    k = len(lam)
    U = VariableUniverse(n, m + n - k - 1)
    kill = {"b": 0, **{f"y{j}": 0 for j in range(1, U.n_y + 1)}}
    for S in combinations(range(1, n + 1), k):
        general = fnr_cleared_term(lam, m, n, S, U).substitute(kill)
        sign, cof = clear_denominator_fnr(S, n, k, U)
        local = VariableUniverse(k, U.n_y)
        s_lam = schur_oracle(lam, k, local).substitute(
            {f"x{r}": U.x(S[r - 1]) for r in range(1, k + 1)}, universe=U
        )
        xs_m = U.one()
        for j in range(1, n + 1):
            if j not in S:
                xs_m = xs_m * U.x(j) ** m
        assert general == s_lam * xs_m * cof * sign


# -- witness search ------------------------------------------------------------


def test_fast_check_equal_sides_never_witness():
    U = VariableUniverse(2, 1)
    p = U.circle_plus(1, 1) * U.circle_plus(2, 1)
    assert fast_check(p, p, U, trials=25, seed=3) is None


def test_fast_check_finds_perturbation():
    U = VariableUniverse(2, 1)
    p = U.circle_plus(1, 1)
    w = fast_check(p, p + U.x(1), U, trials=10, seed=3)
    assert w is not None
    assert (p + U.x(1)).eval_rational(w) != p.eval_rational(w)


def test_fast_check_deterministic():
    U = VariableUniverse(2, 1)
    p = U.circle_plus(1, 1)
    w1 = fast_check(p, p + U.x(1), U, trials=10, seed=42)
    w2 = fast_check(p, p + U.x(1), U, trials=10, seed=42)
    assert w1 == w2


def test_fast_path_inside_verifier():
    # a genuinely false statement: the right side built from G + b
    wrong = verify_gm_type((0,), 2, builder=perturbed_builder, fast_trials=0)
    assert wrong.verdict == "fail" and wrong.witness is None
    rep = verify_gm_type((0,), 2, builder=perturbed_builder, fast_trials=10, seed=1)
    assert rep.verdict == "fail"
    assert rep.witness is not None
    assert rep.lhs.eval_rational(rep.witness) != rep.rhs.eval_rational(rep.witness)


def test_passing_verdict_evaluates_no_point(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("fast_check ran although the sides are equal")

    monkeypatch.setattr(identities, "fast_check", no_sampling)
    rep = verify_gm_type((2, 1), 3, fast_trials=20, seed=1)
    assert rep.passed and rep.witness is None
    for identity, params in [("fnr_type", {"lam": [1], "m": 2, "n": 2}),
                             ("classical_good", {"n": 3})]:
        assert run_case(identity, params, fast_trials=20, seed=1).passed


# -- report plumbing ---------------------------------------------------------------


def test_report_json_schema():
    rep = verify_vandermonde_lemma(2)
    obj = rep.to_json_obj()
    assert set(obj) == {
        "identity",
        "params",
        "verdict",
        "elapsed_ms",
        "lhs_terms",
        "rhs_terms",
        "witness",
    }
    assert obj["identity"] == "vandermonde_lemma"
    assert obj["verdict"] == "pass"
    assert obj["witness"] is None
    assert isinstance(obj["elapsed_ms"], int)


def test_run_case_dispatch():
    assert run_case("good_general", {"n": 2}).passed
    with pytest.raises(PreconditionViolatedError):
        run_case("no_such_identity", {})
    smallest = {
        "gm_type": {"lam": [0], "n": 1},
        "fnr_type": {"lam": [0], "m": 1, "n": 1},
        "vandermonde_lemma": {"n": 1},
        "e_beta_recurrence": {"k": 0, "n": 1},
        "good_general": {"n": 1},
        "louck_general": {"m": 0, "n": 1},
        "good_k_general": {"n": 1, "k": 0},
        "classical_gm": {"lam": [0], "n": 1},
        "classical_good": {"n": 1},
        "classical_louck": {"m": 0, "n": 1},
        "classical_fnr": {"lam": [0], "m": 1, "n": 1},
    }
    assert set(smallest) == set(IDENTITY_TAGS)
    for identity, params in smallest.items():
        report = run_case(identity, params)
        assert report.identity == identity and report.passed
        # every parameter is required; a missing one is a precondition error
        for name in params:
            partial = {k: v for k, v in params.items() if k != name}
            with pytest.raises(PreconditionViolatedError, match=f"^{identity} needs "):
                run_case(identity, partial)


def test_run_case_rejects_parameters_it_does_not_take():
    with pytest.raises(PreconditionViolatedError, match="^gm_type does not take --k, --m$"):
        run_case("gm_type", {"lam": [1], "n": 2, "k": 3, "m": 7})
    with pytest.raises(PreconditionViolatedError, match="^classical_gm does not take --trials$"):
        verify_classical("classical_gm", {"lam": [1], "n": 2, "trials": 5})
    # the reciprocal form of classical_good takes trials and seed besides n
    assert run_case("classical_good", {"n": 2, "trials": 5, "seed": 1}).passed
