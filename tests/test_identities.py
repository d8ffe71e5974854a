"""Identity verifiers: clearing algebra, each family, classical limits, fast path."""

import random
from dataclasses import fields
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

import pytest

from grothpoly import (
    IDENTITY_TAGS,
    Polynomial,
    PreconditionViolatedError,
    VariableUniverse,
    clear_denominator_fnr,
    clear_denominator_gm,
    e_beta,
    fast_check,
    g_determinant,
    g_divided_difference,
    run_case,
    verify_e_beta_recurrence,
    verify_fnr_type,
    verify_gm_type,
    verify_good_general,
    verify_good_k_general,
    verify_louck_general,
    verify_vandermonde_lemma,
)
from grothpoly import alternant_coords, g_tableau, identities, poly_prod, poly_sum
from grothpoly import grothendieck as grothendieck_module
from grothpoly import poly as poly_module
from grothpoly.identities import grid_corollaries, grid_fnr_type, grid_gm_type
from grothpoly.poly import NotSymmetricError
from cleared_reference import cross_product, fnr_cleared_term, gm_cleared_term, push_forward
from helpers import (
    block_factor,
    case_sides,
    cleared_sides,
    decreasing_terms,
    elementary_symmetric_oracle,
    perturbed_builder,
    random_polynomial,
    relabel,
    schur_oracle,
    side_value,
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


# -- the push-forward d_v F, times V, against the per-subset reference --------

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
def test_push_forward_equals_per_subset_terms(builder):
    for identity, params in _SUBSET_SUM_CASES:
        rep = run_case(identity, params, builder=builder)
        _, rhs = cleared_sides(identity, params, builder)
        assert rhs == _per_subset_rhs(identity, params, rhs.universe, builder), (identity, params)
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


# -- verdicts on the alternant coordinates -------------------------------------


def _block_symmetrized(universe, p, k):
    """Sum of p over the permutations of x_1..x_k and of x_{k+1}..x_n."""
    n = universe.n_x
    targets = [
        head + tail
        for head in permutations(range(1, k + 1))
        for tail in permutations(range(k + 1, n + 1))
    ]
    return poly_sum(universe, (relabel(universe, p, w) for w in targets))


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
                    cleared = cleared + sign * cof * relabel(U, F, S + rest)
                assert V * push_forward(F, n, k) == cleared, (n, k)


def test_alternant_coords_of_block_factors():
    # the coordinates read from A's and B's block coordinates are the strictly
    # decreasing terms of V * d_v(A*B), with A*B formed and pushed forward
    rng = random.Random(7)
    for n in range(5):
        U = VariableUniverse(n, 1)
        V = U.vandermonde(range(1, n + 1))
        for k in range(n + 1):
            for _ in range(4):
                a = block_factor(U, rng, 1, k)
                b = block_factor(U, rng, k + 1, n)
                want = decreasing_terms(V * push_forward(a * b, n, k), n)
                assert alternant_coords((a, b), (k, n - k)) == want, (n, k)


@pytest.mark.parametrize("builder", [g_tableau, perturbed_builder])
def test_alternant_coords_of_both_sides_on_the_grid(builder):
    # what _finish compares, against the reference push-forward of each side's
    # factors (A and F's columns, G_mu, or a zero case's columns) times V
    for identity, params in _SUBSET_SUM_CASES:
        _, U, lhs, rhs = identities._case(identity, params, builder)
        n = U.n_x
        V = U.vandermonde(range(1, n + 1))
        for side in lhs, rhs:
            want = decreasing_terms(V * side_value(U, side), n)
            assert alternant_coords(*side) == want, (identity, params)


def test_subset_sum_sides_are_one_block_or_one_x_columns():
    # G_mu in one block (a zero case's columns in blocks of one x), F as A in
    # a block of k x's and n - k one-x columns: no product over j > k is formed;
    # at k = n one side, G_mu in one block, is both
    cases = grid_gm_type() + grid_fnr_type() + [
        case for case in grid_corollaries() if case[0] != "e_beta_recurrence"
    ]
    for identity, params in cases:
        # the block sizes do not depend on what the builder builds
        _, U, lhs, rhs = identities._case(identity, params, lambda *_, universe: universe.one())
        n = U.n_x
        k = len(params["lam"]) if "lam" in params else params.get("k", 1)
        if k == n:
            assert lhs is rhs and rhs[1] == (n,), (identity, params)
            continue
        assert lhs[1] in ((n,), (1,) * n), (identity, params)
        assert rhs[1] == (k,) + (1,) * (n - k), (identity, params)


_BUILDER_CASES = _SUBSET_SUM_CASES + [
    case for case in grid_corollaries() if case[0] != "e_beta_recurrence"
]


@pytest.mark.parametrize("builder", [g_tableau, perturbed_builder])
def test_reported_counts_are_those_of_the_cleared_sides(builder):
    for identity, params in _BUILDER_CASES:
        rep = run_case(identity, params, builder=builder)
        lhs, rhs = cleared_sides(identity, params, builder)
        assert (rep.lhs_terms, rep.rhs_terms) == (lhs.num_terms, rhs.num_terms), (identity, params)


def test_non_symmetric_builder_is_rejected():
    # the side whose builder output is not symmetric, F's factor G_lam read
    # first; with k = 1 G_lam has one x, and only G_mu is caught, as on every
    # k < n verdict
    for identity, params, side in [
        ("gm_type", {"lam": [2, 1], "n": 3}, "G_lam for gm_type is not symmetric in x_1..x_2"),
        ("gm_type", {"lam": [1], "n": 2}, "G_mu for gm_type is not symmetric in x_1..x_2"),
        ("gm_type", {"lam": [1, 1], "n": 2}, "G_lam for gm_type is not symmetric in x_1..x_2"),
        ("gm_type", {"lam": [2, 1, 0], "n": 3}, "G_lam for gm_type is not symmetric in x_1..x_3"),
        ("fnr_type", {"lam": [1], "m": 3, "n": 3}, "G_mu for fnr_type is not symmetric in x_1..x_3"),
        ("fnr_type", {"lam": [1, 0], "m": 3, "n": 3}, "G_lam for fnr_type is not symmetric in x_1..x_2"),
        ("good_k_general", {"n": 3, "k": 2}, "G_lam for good_k_general is not symmetric in x_1..x_2"),
    ]:
        with pytest.raises(PreconditionViolatedError) as exc:
            run_case(identity, params, builder=skewed_builder, fast_trials=5, seed=3)
        assert str(exc.value) == "the builder's " + side, (identity, params)


def _square_xn_builder(shape, n, *, universe=None):
    """G + b*x_n^2 from n >= 2 on: G_lam stays symmetric at k = 1, and V*x_n^2
    has no strictly decreasing exponent, so the coordinates cannot see it."""
    g = g_tableau(shape, n, universe=universe)
    return g + g.universe.beta() * g.universe.x(n) ** 2 if n >= 2 else g


def test_g_mu_symmetry_is_checked_on_passing_coordinates():
    # without the check the coordinates of both sides agree and both would pass
    for identity, params in [
        ("gm_type", {"lam": [1], "n": 2}),
        ("fnr_type", {"lam": [1], "m": 3, "n": 3}),
    ]:
        _, U, ((g_mu,), _), rhs = identities._case(identity, params, _square_xn_builder)
        n = U.n_x
        V = U.vandermonde(range(1, n + 1))
        assert decreasing_terms(V * g_mu, n) == alternant_coords(*rhs), identity
        with pytest.raises(PreconditionViolatedError) as exc:
            run_case(identity, params, builder=_square_xn_builder)
        message = f"the builder's G_mu for {identity} is not symmetric"
        assert str(exc.value).startswith(message), identity


def test_classical_tags_check_symmetry_on_the_specialized_sides():
    # G + b*x_1: at b = 0 the G_lam and the G_mu that gm_type and fnr_type
    # reject above are G itself
    for identity, params in [
        ("classical_gm", {"lam": [1], "n": 2}),
        ("classical_gm", {"lam": [2, 1], "n": 3}),
        ("classical_fnr", {"lam": [1], "m": 3, "n": 3}),
    ]:
        assert run_case(identity, params, builder=skewed_builder).passed, identity


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


def test_verdicts_below_k_equal_n_never_form_f(monkeypatch):
    # F = A*B has 89,268 terms at fnr_type lam=(1) m=4 n=4, and so has the
    # product of A and F's columns x_j^{n-j} [x_j|y]^m, which differs from F
    # by the monomial x^(staircase); the verdict reads its coordinates from A
    # and the columns, and no product it takes comes near F
    params = {"lam": [1], "m": 4, "n": 4}
    _, U, _, (factors, _) = identities._case("fnr_type", params, g_tableau)
    assert poly_prod(U, factors).num_terms == 89268
    sizes = []
    poly_dot = poly_module.poly_dot

    def recording(universe, pairs):
        out = poly_dot(universe, pairs)
        sizes.append(out.num_terms)
        return out

    # __mul__ and __pow__ multiply through poly.poly_dot, builders through their own binding
    for module in (poly_module, grothendieck_module):
        monkeypatch.setattr(module, "poly_dot", recording)
    assert run_case("fnr_type", params).passed
    assert sizes and max(sizes) < 89268


def test_symmetry_guard_rejects_a_g_mu_failing_only_the_last_swap():
    # symmetric in x_1..x_{n-1}, not under s_{n-1}: the kernel reads the block
    # x_1..x_{n-1} and rejects the block x_1..x_n
    for n in range(2, 5):
        U = VariableUniverse(n, 1)
        p = poly_prod(U, (U.circle_plus(i, 1) for i in range(1, n)))
        alternant_coords((p,), (n - 1,))
        with pytest.raises(NotSymmetricError, match=f"in x1..x{n}$"):
            alternant_coords((p,), (n,))
        assert all(p.swap_x(i, i + 1) == p for i in range(1, n - 1))


# -- Gustafson-Milne family ---------------------------------------------------


def test_gm_single_row_hand_case():
    # lam=(1), n=2: cleared numerator collapses to the Vandermonde itself
    rep = verify_gm_type((1,), 2)
    lhs, rhs = cleared_sides("gm_type", {"lam": [1], "n": 2})
    V = lhs.universe.vandermonde([1, 2])
    assert rep.passed
    assert lhs == V  # LHS is G_(0) * V = V
    assert rhs == V


def test_gm_full_grid_case():
    assert verify_gm_type((2, 1), 3).passed
    assert verify_gm_type((3, 2, 1), 3).passed


def test_gm_builders_agree():
    params = {"lam": [2, 1], "n": 3}
    assert case_sides("gm_type", params) == case_sides("gm_type", params, g_determinant)


def test_gm_zero_case_convention_and_defect():
    # lam_k - n + k < 0: the left side is the determinant quotient of the
    # zero-padded mu = (-1, 0), G_mu = -b, and the cleared right side is -b*V.
    rep = verify_gm_type((0,), 2)
    lhs, rhs = cleared_sides("gm_type", {"lam": [0], "n": 2})
    U = lhs.universe
    V = U.vandermonde([1, 2])
    assert lhs == -U.beta() * V
    assert rhs == -U.beta() * V
    assert rep.verdict == "pass"
    # the beta = 0 specialization of both sides vanishes
    assert lhs.substitute({"b": 0}).is_zero
    assert rhs.substitute({"b": 0}).is_zero


def test_gm_zero_case_fails_only_through_beta():
    # the right side is nonzero but vanishes at b = 0, so the old rule
    # LHS := 0 failed only through beta; the determinant left side does too
    for lam, n in [((0,), 2), ((1,), 3), ((1, 0), 3)]:
        rep = verify_gm_type(lam, n)
        lhs, rhs = cleared_sides("gm_type", {"lam": lam, "n": n})
        assert rep.verdict == "pass"
        assert not rhs.is_zero
        assert rhs.substitute({"b": 0}).is_zero
        assert lhs.substitute({"b": 0}).is_zero


def test_gm_zero_case_extension_vanishes_at_beta_zero():
    cases = [p for _, p in grid_gm_type(ns=(2, 3)) if p["lam"][-1] - p["n"] + len(p["lam"]) < 0]
    assert cases
    for params in cases:
        # G_mu, pushed forward from its determinant columns by the reference
        g_mu, _ = case_sides("gm_type", params)
        assert not g_mu.is_zero and g_mu.substitute({"b": 0}).is_zero, params


# the 7 GM zero cases at n <= 3, among them mu = (-1, 0), (1, -1) and (2, -1),
# and two at n = 4: mu = (0, 0, -1) and (-3, 0, 0, 0)
_ZERO_CASES = [
    params for _, params in grid_gm_type(ns=(1, 2, 3))
    if params["lam"][-1] - params["n"] + len(params["lam"]) < 0
] + [{"lam": [1, 1, 0], "n": 4}, {"lam": [0], "n": 4}]


def test_gm_zero_case_coordinates_against_sympy_numerator():
    # an oracle that shares no code with the package: the numerator
    # det([x_i|y]^{mu_j+n-j} (1+b x_i)^{j-1}) is expanded (Leibniz) in sympy's
    # sparse polynomial ring, and its strictly decreasing terms are the
    # coordinates the zero case's left side must give
    sympy = pytest.importorskip("sympy")
    for params in _ZERO_CASES:
        lam, n = params["lam"], params["n"]
        k = len(lam)
        mu = [p - n + k for p in lam] + [0] * (n - k)
        e = [p + n - 1 - j for j, p in enumerate(mu)]
        _, U, lhs, _ = identities._case("gm_type", params, g_tableau)
        names = ["b"] + [f"x{i}" for i in range(1, n + 1)] + [f"y{t}" for t in range(1, U.n_y + 1)]
        R, b, *rest = sympy.ring(",".join(names), sympy.ZZ)
        xs, ys = rest[:n], rest[n:]

        def entry(i, j):
            out = (1 + b * xs[i]) ** j
            for t in range(e[j]):
                out *= xs[i] + ys[t] + b * xs[i] * ys[t]
            return out

        det = R.zero
        for perm in permutations(range(n)):
            inversions = sum(perm[a] > perm[c] for a in range(n) for c in range(a + 1, n))
            term = R((-1) ** inversions)
            for i in range(n):
                term *= entry(i, perm[i])
            det += term
        decreasing = lambda exps: all(u > v for u, v in zip(exps[1:n], exps[2 : n + 1]))
        want = {exps: c for exps, c in det.terms() if decreasing(exps)}
        coords = alternant_coords(*lhs)
        assert lhs[1] == (1,) * n and coords.universe.names() == tuple(names), params
        got = {tuple(exps.get(v, 0) for v in names): c for exps, c in coords.terms_sorted()}
        assert got == want, params
        if params == {"lam": [0], "n": 2}:  # G_mu = -b: V*G_mu = -b x1 + b x2, in (b, x1, x2)
            assert got == {(1, 1, 0): -1}


def test_gm_zero_case_universe_and_builders():
    # lam=(0), n=3: mu = (-2, 0, 0) has exponents (0, 1, 0), so n_y = n-k-1 = 1
    rep = verify_gm_type((0,), 3)
    assert rep.passed
    assert case_sides("gm_type", {"lam": [0], "n": 3})[0].universe.n_y == 1
    # the zero-case left side does not depend on the builder
    params = {"lam": [1, 0], "n": 3}
    for builder in (g_determinant, g_divided_difference):
        assert verify_gm_type((1, 0), 3, builder=builder).passed
        assert case_sides("gm_type", params, builder)[0] == case_sides("gm_type", params)[0]


def test_gm_rejects_bad_parameters():
    with pytest.raises(PreconditionViolatedError):
        verify_gm_type((1, 2), 3)  # not weakly decreasing
    with pytest.raises(PreconditionViolatedError):
        verify_gm_type((1,) * 4, 3)  # k > n


def test_good_general():
    for n in (1, 2, 4):
        assert verify_good_general(n).passed
    # n = 2 shares the Lemma's 2x2 expansion
    lhs, rhs = cleared_sides("good_general", {"n": 2})
    assert rhs == lhs.universe.vandermonde([1, 2])


def test_louck_general():
    assert verify_louck_general(2, 2).passed
    assert verify_louck_general(3, 2).passed
    # m = n-1 degenerates to the Good case: identical sides
    assert verify_louck_general(1, 2).passed
    assert case_sides("louck_general", {"m": 1, "n": 2}) == case_sides("good_general", {"n": 2})
    with pytest.raises(PreconditionViolatedError):
        verify_louck_general(1, 3)


# -- Feher-Nemethi-Rimanyi family ---------------------------------------------


def test_fnr_hand_case():
    assert verify_fnr_type((0,), 1, 2).passed
    lhs, _ = cleared_sides("fnr_type", {"lam": [0], "m": 1, "n": 2})
    assert lhs == lhs.universe.vandermonde([1, 2])


def test_fnr_grid_cases():
    assert verify_fnr_type((1,), 3, 3).passed
    assert verify_fnr_type((1, 1), 3, 3).passed
    assert verify_fnr_type((2,), 4, 4).passed


def test_fnr_builders_agree():
    params = {"lam": [1], "m": 3, "n": 2}
    assert case_sides("fnr_type", params) == case_sides("fnr_type", params, g_determinant)


def test_fnr_zero_shape_reduces_to_good_k():
    assert verify_fnr_type((0, 0), 2, 3).passed and verify_good_k_general(3, 2).passed
    a = case_sides("fnr_type", {"lam": [0, 0], "m": 2, "n": 3})
    assert a == case_sides("good_k_general", {"n": 3, "k": 2})


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
    lhs, rhs = cleared_sides("good_k_general", {"n": 3, "k": 3})
    assert rhs == lhs.universe.vandermonde([1, 2, 3])
    # k = n-1 specializes to the Good identity (same sides)
    # both parameter maps give the universe n_y = n-1
    assert case_sides("good_k_general", {"n": 3, "k": 2}) == case_sides("good_general", {"n": 3})


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
    for verify, args, identity, params in (
        (verify_good_general, (3,), "good_general", {"n": 3}),
        (verify_good_k_general, (4, 2), "good_k_general", {"n": 4, "k": 2}),
    ):
        calls = []

        def recording_determinant(shape, n, *, universe=None):
            calls.append((tuple(shape), n))
            return g_determinant(shape, n, universe=universe)

        assert verify(*args).passed
        assert verify(*args, builder=recording_determinant).passed
        assert calls, verify.__name__
        assert case_sides(identity, params) == case_sides(identity, params, g_determinant)


# -- determinant lemma and deformed elementary symmetric functions -------------


def test_vandermonde_lemma():
    # both sides count n! terms, those of det = V: one alternant coordinate each
    for n in range(1, 6):
        rep = verify_vandermonde_lemma(n)
        assert rep.passed
        assert (rep.lhs_terms, rep.rhs_terms) == (factorial(n), factorial(n)), n
    lhs, _ = cleared_sides("vandermonde_lemma", {"n": 2})
    assert lhs == lhs.universe.x(1) - lhs.universe.x(2)


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
    assert run_case("classical_gm", {"lam": [2, 1], "n": 3}).passed
    # classical zero cases hold (duplicate-column collapse at beta=0)
    assert run_case("classical_gm", {"lam": [0], "n": 2}).passed
    assert run_case("classical_gm", {"lam": [1, 0], "n": 3}).passed


def test_classical_fnr():
    assert run_case("classical_fnr", {"lam": [1], "m": 2, "n": 2}).passed
    assert run_case("classical_fnr", {"lam": [1], "m": 3, "n": 3}).passed


def test_classical_tags_count_only_specialized_sides(monkeypatch):
    # a classical report specializes before it counts: no side it counts
    # keeps b or a y, and no beta-deformed report is built on the way
    counted = []

    def recording(factors, sizes):
        counted.extend(factors)
        return alternant_coords(factors, sizes)

    monkeypatch.setattr(identities, "alternant_coords", recording)
    for identity, params in [
        ("classical_gm", {"lam": [2, 1], "n": 3}),
        ("classical_gm", {"lam": [1, 0], "n": 3}),
        ("classical_fnr", {"lam": [1], "m": 3, "n": 3}),
        ("classical_good", {"n": 3}),
        ("classical_louck", {"m": 3, "n": 2}),
    ]:
        counted.clear()
        assert run_case(identity, params).passed, identity
        assert counted, identity
        for p in counted:
            names = ["b"] + [f"y{j}" for j in range(1, p.universe.n_y + 1)]
            assert all(p.degree_in(name) <= 0 for name in names), (identity, params)


def test_classical_k_equal_n_specializes_once(monkeypatch):
    # at k = n the two sides are one polynomial, F's one factor: one
    # specialization, one set of coordinates
    images, counted = [], []
    classical_image = identities.classical_image

    def recording_image(p):
        images.append(p)
        return classical_image(p)

    def recording_coords(factors, sizes):
        counted.append(factors)
        return alternant_coords(factors, sizes)

    monkeypatch.setattr(identities, "classical_image", recording_image)
    monkeypatch.setattr(identities, "alternant_coords", recording_coords)
    assert run_case("classical_gm", {"lam": [2, 1, 0], "n": 3}).passed
    assert len(images) == 1 and len(counted) == 1
    images.clear()
    assert run_case("classical_fnr", {"lam": [1], "m": 3, "n": 3}).passed
    assert len(images) == 4  # below k = n, G_mu, A and F's n - k = 2 columns


def test_classical_louck_value():
    rep = run_case("classical_louck", {"m": 3, "n": 2})
    assert rep.passed
    # h_2(x1,x2) * V against an explicit complete-homogeneous oracle
    lhs, _ = cleared_sides("classical_louck", {"m": 3, "n": 2})
    U = lhs.universe
    h2 = U.x(1) ** 2 + U.x(1) * U.x(2) + U.x(2) ** 2
    assert lhs == h2 * U.vandermonde([1, 2])


def test_classical_good_reciprocal_spot_value():
    # 1 = 1/(1 - x1/x2) + 1/(1 - x2/x1) at (2, 5): the terms are 5/3 and -2/3
    x1, x2 = Fraction(2), Fraction(5)
    total = 1 / (1 - x1 / x2) + 1 / (1 - x2 / x1)
    assert total == 1
    assert 1 / (1 - x1 / x2) == Fraction(5, 3)
    assert 1 / (1 - x2 / x1) == Fraction(-2, 3)
    rep = run_case("classical_good", {"n": 2, "trials": 100, "seed": 7})
    assert rep.passed
    # its sides are the classical FNR case lam = (0), m = 1: d_v of 1 * (-x2)
    # in blocks (1, 1), whose two terms are -x2/(x1 - x2) and -x1/(x2 - x1)
    _, U, lhs, rhs = identities._case("classical_fnr", {"lam": [0], "m": 1, "n": 2}, g_tableau)
    assert lhs == ((U.one(),), (2,)) and rhs == ((U.one(), -U.x(2)), (1, 1))


def test_classical_good_reciprocal_form_runs_through_the_builder():
    # a builder that doubles G_empty in one variable breaks only the
    # reciprocal form's A = G_(0)(x_i), not the good_general image
    def doubled_empty(shape, n, *, universe=None):
        g = g_tableau(shape, n, universe=universe)
        return g + g if n == 1 and not any(shape) else g

    assert run_case("good_general", {"n": 3}, builder=doubled_empty).passed
    params = {"n": 3, "trials": 5, "seed": 1}
    rep = run_case("classical_good", params, builder=doubled_empty)
    assert rep.verdict == "fail" and rep.params == params
    passing = run_case("classical_good", params)
    assert (rep.lhs_terms, rep.rhs_terms) == (passing.lhs_terms, passing.rhs_terms)
    # the witness lies in the FNR universe and separates the reciprocal sides
    w = rep.witness
    assert w is not None and (len(w.xs), len(w.ys)) == (3, 2)
    assert run_case("classical_good", params, builder=doubled_empty).witness == w
    lhs, rhs = cleared_sides("classical_fnr", {"lam": [0], "m": 1, "n": 3}, doubled_empty)
    assert lhs.eval_rational(w) != rhs.eval_rational(w)
    rep = run_case("classical_good", {**params, "trials": 0}, builder=doubled_empty)
    assert rep.verdict == "fail" and rep.witness is None


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
    assert fast_check(p.eval_rational, p.eval_rational, U, trials=25, seed=3) is None


def test_fast_check_finds_perturbation():
    U = VariableUniverse(2, 1)
    p = U.circle_plus(1, 1)
    w = fast_check(p.eval_rational, (p + U.x(1)).eval_rational, U, trials=10, seed=3)
    assert w is not None
    assert (p + U.x(1)).eval_rational(w) != p.eval_rational(w)


def test_fast_check_deterministic():
    U = VariableUniverse(2, 1)
    p = U.circle_plus(1, 1)
    q = p + U.x(1)
    w1 = fast_check(p.eval_rational, q.eval_rational, U, trials=10, seed=42)
    w2 = fast_check(p.eval_rational, q.eval_rational, U, trials=10, seed=42)
    assert w1 == w2


def test_fast_path_inside_verifier():
    # a genuinely false statement: the right side built from G + b
    wrong = verify_gm_type((0,), 2, builder=perturbed_builder, fast_trials=0)
    assert wrong.verdict == "fail" and wrong.witness is None
    rep = verify_gm_type((0,), 2, builder=perturbed_builder, fast_trials=10, seed=1)
    assert rep.verdict == "fail"
    assert rep.witness is not None
    lhs, rhs = cleared_sides("gm_type", {"lam": [0], "n": 2}, perturbed_builder)
    assert lhs.eval_rational(rep.witness) != rhs.eval_rational(rep.witness)


def test_passing_verdict_evaluates_no_point(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("a point was drawn or evaluated although the sides are equal")

    for name in ("fast_check", "random_rational_point", "_subset_sum_at"):
        monkeypatch.setattr(identities, name, no_sampling)
    rep = verify_gm_type((2, 1), 3, fast_trials=20, seed=1)
    assert rep.passed and rep.witness is None
    cases = [("fnr_type", {"lam": [1], "m": 2, "n": 2}), *_SMALLEST.items()]
    cases += [("classical_good", {"n": n, "trials": 100, "seed": 0}) for n in (2, 3, 4)]
    for identity, params in cases:
        assert run_case(identity, params, fast_trials=20, seed=1).passed, identity


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


_SMALLEST = {
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


def test_reports_hold_no_polynomial():
    def polynomials(value):
        if isinstance(value, Polynomial):
            yield value
        elif isinstance(value, (tuple, list, dict)):
            for item in value.values() if isinstance(value, dict) else value:
                yield from polynomials(item)

    reports = [run_case(identity, params) for identity, params in _SMALLEST.items()]
    reports.append(run_case("gm_type", {"lam": [2, 1], "n": 3}))
    reports.append(
        run_case("gm_type", {"lam": [0], "n": 2}, builder=perturbed_builder, fast_trials=5)
    )
    assert reports[-1].witness is not None
    for rep in reports:
        held = [f.name for f in fields(rep) if any(polynomials(getattr(rep, f.name)))]
        assert held == [], rep.identity


def test_run_case_dispatch():
    assert run_case("good_general", {"n": 2}).passed
    with pytest.raises(PreconditionViolatedError):
        run_case("no_such_identity", {})
    assert set(_SMALLEST) == set(IDENTITY_TAGS)
    for identity, params in _SMALLEST.items():
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
        run_case("classical_gm", {"lam": [1], "n": 2, "trials": 5})
    # the reciprocal form of classical_good takes trials and seed besides n
    assert run_case("classical_good", {"n": 2, "trials": 5, "seed": 1}).passed
