"""Polynomial ring: arithmetic, division, determinants, substitution, wire formats."""

import json
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from grothpoly import (
    DegreeOverflowError,
    NotDivisibleError,
    Polynomial,
    RationalPoint,
    UniverseMismatchError,
    VariableUniverse,
    determinant,
    exact_div,
    from_json_obj,
    poly_dot,
    poly_prod,
    poly_sum,
    random_rational_point,
    relabel_x_sum,
)
from helpers import random_polynomial

U = VariableUniverse(3, 4)


def rng_polys(seed, count, universe=U, **kw):
    rng = random.Random(seed)
    return [random_polynomial(universe, rng, **kw) for _ in range(count)]


# -- constructors and canonical form ----------------------------------------


def test_additive_inverse():
    assert U.x(1) + (-U.x(1)) == 0
    assert (U.x(1) - U.x(1)).is_zero


def test_disjoint_supports_concatenate():
    s = (U.x(1) + U.y(1)) + U.beta() * U.x(1) * U.y(1)
    assert s.num_terms == 3
    assert s == U.circle_plus(1, 1)


def test_add_zero_identity():
    for p in rng_polys(1, 20):
        assert p + U.zero() == p
        assert p * U.one() == p


def test_difference_of_squares():
    assert (U.x(1) - U.x(2)) * (U.x(1) + U.x(2)) == U.x(1) ** 2 - U.x(2) ** 2


def test_mul_hand_expansion():
    got = U.circle_plus(1, 1) * (1 + U.beta() * U.x(2))
    expect = (
        U.x(1)
        + U.beta() * U.x(1) * U.x(2)
        + U.y(1)
        + U.beta() * U.x(2) * U.y(1)
        + U.beta() * U.x(1) * U.y(1)
        + U.beta() ** 2 * U.x(1) * U.x(2) * U.y(1)
    )
    assert got == expect
    assert got.num_terms == 6


def test_circle_plus():
    assert U.circle_plus(1, 1) == U.x(1) + U.y(1) + U.beta() * U.x(1) * U.y(1)
    assert U.circle_plus(1, 1).substitute({"b": 0}) == U.x(1) + U.y(1)
    assert U.circle_plus(1, 1).substitute({"b": 0, "y1": 0}) == U.x(1)
    with pytest.raises(UniverseMismatchError):
        U.circle_plus(4, 1)
    with pytest.raises(UniverseMismatchError):
        U.circle_plus(1, 5)


def test_bracket_pow():
    assert U.bracket_pow(1, 0) == 1
    assert U.bracket_pow(1, 2) == U.circle_plus(1, 1) * U.circle_plus(1, 2)
    assert U.bracket_pow(2, 1, p=1) == U.x(2) + U.y(2) + U.beta() * U.x(2) * U.y(2)
    with pytest.raises(UniverseMismatchError):
        U.bracket_pow(1, 5)


def test_vandermonde():
    assert U.vandermonde([1]) == 1
    assert U.vandermonde([]) == 1
    assert U.vandermonde([1, 2]) == U.x(1) - U.x(2)
    expect = (U.x(1) - U.x(2)) * (U.x(1) - U.x(3)) * (U.x(2) - U.x(3))
    assert U.vandermonde([1, 2, 3]) == expect


def test_universe_mismatch_rejected():
    other = VariableUniverse(2, 4)
    with pytest.raises(UniverseMismatchError):
        U.x(1) + other.x(1)
    with pytest.raises(UniverseMismatchError):
        U.x(1) * other.x(1)


def test_no_zero_coefficients_stored():
    p = U.x(1) * U.x(2) - U.x(2) * U.x(1) + U.y(3)
    assert p == U.y(3)
    assert p.num_terms == 1


def test_canonical_idempotence():
    # rebuilding any output from its own terms is a no-op
    for p in rng_polys(2, 20):
        rebuilt = poly_sum(U, [U.monomial(c, e) for e, c in p.terms_sorted()])
        assert rebuilt == p


def test_degree_overflow_guarded():
    with pytest.raises(DegreeOverflowError):
        U.x(1) ** 256
    p = U.x(1) ** 255  # at capacity is fine
    assert p.degree_in("x1") == 255


# -- substitution and evaluation ---------------------------------------------


def test_substitute_collapses_deformed_expansion_to_schur():
    # the three-summand (2,1) expansion at b=0, y=0 collapses to s_(2,1)(x1,x2)
    W = VariableUniverse(2, 3)
    w1 = W.circle_plus(1, 1) * W.circle_plus(1, 2) * W.circle_plus(2, 1)
    w2 = W.circle_plus(1, 1) * W.circle_plus(2, 3) * W.circle_plus(2, 1)
    w3 = W.beta() * W.circle_plus(1, 1) * W.circle_plus(1, 2) * W.circle_plus(2, 3) * W.circle_plus(2, 1)
    g = w1 + w2 + w3
    zeroed = g.substitute({"b": 0, "y1": 0, "y2": 0, "y3": 0})
    assert zeroed == W.x(1) ** 2 * W.x(2) + W.x(1) * W.x(2) ** 2


def test_substitute_relabel_across_universes():
    small = VariableUniverse(1, 2)
    p = small.circle_plus(1, 1)
    big = VariableUniverse(3, 2)
    q = p.substitute({"x1": big.x(3)}, universe=big)
    assert q == big.circle_plus(3, 1)


def test_substitute_missing_target_variable():
    small = VariableUniverse(2, 0)
    big = VariableUniverse(1, 0)
    with pytest.raises(UniverseMismatchError):
        (small.x(2)).substitute({}, universe=big)


def test_substitute_polynomial_value():
    p = U.x(1) ** 2
    q = p.substitute({"x1": U.x(2) + U.y(1)})
    assert q == (U.x(2) + U.y(1)) ** 2


def test_eval_rational():
    p = U.x(1) - U.x(2)
    pt = RationalPoint(Fraction(0), (Fraction(3), Fraction(3), Fraction(0)), (Fraction(0),) * 4)
    assert p.eval_rational(pt) == 0
    cp = U.circle_plus(1, 1)
    pt = RationalPoint(Fraction(1), (Fraction(1), Fraction(0), Fraction(0)), (Fraction(1), 0, 0, 0))
    assert cp.eval_rational(pt) == 3


def test_eval_is_ring_homomorphism():
    rng = random.Random(3)
    for _ in range(100):
        p = random_polynomial(U, rng)
        q = random_polynomial(U, rng)
        pt = random_rational_point(U, rng, distinct_x=False)
        assert (p * q).eval_rational(pt) == p.eval_rational(pt) * q.eval_rational(pt)
        assert (p + q).eval_rational(pt) == p.eval_rational(pt) + q.eval_rational(pt)


# -- ring axioms ----------------------------------------------------------------


def test_ring_axioms_random_triples():
    rng = random.Random(4)
    for _ in range(100):
        p, q, r = (random_polynomial(U, rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**62), st.integers(0, 2**62))
def test_ring_axioms_hypothesis(seed_a, seed_b):
    ra, rb = random.Random(seed_a), random.Random(seed_b)
    p = random_polynomial(U, ra)
    q = random_polynomial(U, rb)
    assert p + q == q + p
    assert p * q == q * p


# -- exact division ---------------------------------------------------------------


def test_exact_div_basic():
    q = exact_div(U.x(1) ** 2 - U.x(2) ** 2, U.x(1) - U.x(2))
    assert q == U.x(1) + U.x(2)


def test_exact_div_round_trip():
    rng = random.Random(5)
    done = 0
    while done < 50:
        p = random_polynomial(U, rng)
        d = random_polynomial(U, rng, nonzero=True)
        assert exact_div(p * d, d) == p
        done += 1


def test_exact_div_errors():
    with pytest.raises(NotDivisibleError):
        exact_div(U.x(1) + 1, U.x(2))
    with pytest.raises(NotDivisibleError):
        exact_div(U.x(1), U.const(2) * U.x(1))  # 1/2 is not an integer
    with pytest.raises(ZeroDivisionError):
        exact_div(U.x(1), U.zero())


def test_exact_div_determinant_numerator():
    # the 2x2 numerator of the (2,1) determinant formula divided by x1-x2
    W = VariableUniverse(2, 3)
    rows = [
        [W.bracket_pow(1, 3), W.bracket_pow(1, 1) * (1 + W.beta() * W.x(1))],
        [W.bracket_pow(2, 3), W.bracket_pow(2, 1) * (1 + W.beta() * W.x(2))],
    ]
    num = determinant(rows)
    got = exact_div(num, W.x(1) - W.x(2))
    w1 = W.circle_plus(1, 1) * W.circle_plus(1, 2) * W.circle_plus(2, 1)
    w2 = W.circle_plus(1, 1) * W.circle_plus(2, 3) * W.circle_plus(2, 1)
    w3 = W.beta() * w1 * W.circle_plus(2, 3)
    assert got == w1 + w2 + w3


def test_exact_div_by_x_difference_matches_long_division():
    # x_i - x_j is divided out synthetically; 2(x_i - x_j) goes through the
    # long division, which serves as the reference
    W = VariableUniverse(4, 3)
    rng = random.Random(11)
    for i in range(1, 5):
        for j in range(1, 5):
            if i == j:
                continue
            d = W.x(i) - W.x(j)
            for _ in range(5):
                p = random_polynomial(W, rng)
                q = exact_div(p * d, d)
                assert q == p
                assert q == exact_div(2 * p * d, 2 * d)
            for bad in (W.x(i), W.x(i) + W.x(j), W.y(1), p * d + W.y(1)):
                with pytest.raises(NotDivisibleError):
                    exact_div(bad, d)
    for d in (W.y(1) - W.y(2), W.beta() - W.x(1), W.x(1) + W.x(2)):
        p = random_polynomial(W, rng, nonzero=True)
        assert exact_div(p * d, d) == p


# -- determinants ------------------------------------------------------------------


def _exponent_dict(p):
    names = p.universe.names()
    return {tuple(e.get(v, 0) for v in names): c for e, c in p.terms_sorted()}


def _leibniz(rows):
    """det as the Leibniz sum over permutations, on plain exponent-tuple dicts."""
    n = len(rows)
    entries = [[_exponent_dict(p) for p in row] for row in rows]
    one = (0,) * len(rows[0][0].universe.names())
    total = {}
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a, b in combinations(range(n), 2))
        term = {one: (-1) ** inversions}
        for r, c in enumerate(perm):
            prod = {}
            for m1, c1 in term.items():
                for m2, c2 in entries[r][c].items():
                    m = tuple(a + b for a, b in zip(m1, m2))
                    prod[m] = prod.get(m, 0) + c1 * c2
            term = prod
        for m, c in term.items():
            total[m] = total.get(m, 0) + c
    return {m: c for m, c in total.items() if c}


def test_determinant_matches_leibniz_oracle():
    rng = random.Random(13)
    for _ in range(10):
        m = [[random_polynomial(U, rng, max_terms=3, max_exp=2) for _ in range(4)] for _ in range(4)]
        assert _exponent_dict(determinant(m)) == _leibniz(m)


def test_determinant_1x1():
    p = U.circle_plus(1, 2)
    assert determinant([[p]]) == p


def test_determinant_hand_2x2():
    m = [
        [U.circle_plus(1, 1), 1 + U.beta() * U.x(1)],
        [U.circle_plus(2, 1), 1 + U.beta() * U.x(2)],
    ]
    assert determinant(m) == U.x(1) - U.x(2)


def test_determinant_repeated_row_is_zero():
    row = [U.x(1), U.y(2) + 1]
    assert determinant([row, list(row)]).is_zero


def test_determinant_alternating_random():
    rng = random.Random(6)
    for _ in range(100):
        m = [[random_polynomial(U, rng, max_terms=3, max_exp=2) for _ in range(3)] for _ in range(3)]
        d = determinant(m)
        a, b = rng.sample(range(3), 2)
        swapped = list(m)
        swapped[a], swapped[b] = m[b], m[a]
        assert determinant(swapped) == -d
        dup = [m[0], m[0], m[2]]
        assert determinant(dup).is_zero


def test_determinant_multilinear_in_a_row():
    rng = random.Random(7)
    for _ in range(25):
        m = [[random_polynomial(U, rng, max_terms=2, max_exp=2) for _ in range(3)] for _ in range(3)]
        extra = [random_polynomial(U, rng, max_terms=2, max_exp=2) for _ in range(3)]
        m_sum = [list(m[0]), [a + b for a, b in zip(m[1], extra)], list(m[2])]
        m_extra = [list(m[0]), extra, list(m[2])]
        assert determinant(m_sum) == determinant(m) + determinant(m_extra)


def test_determinant_non_square_rejected():
    with pytest.raises(ValueError):
        determinant([[U.x(1), U.x(2)]])


# -- helpers, rendering, wire formats -------------------------------------------------


def test_poly_sum_prod():
    ps = rng_polys(8, 10)
    assert poly_sum(U, ps) == sum(ps, U.zero())
    assert poly_prod(U, [U.x(1), U.x(2), U.zero(), U.x(3)]).is_zero


def test_poly_dot_is_sum_of_products():
    rng = random.Random(12)
    for _ in range(20):
        polys = rng_polys(rng.randrange(2**32), 2 * rng.randint(1, 4))
        pairs = list(zip(polys[::2], polys[1::2])) + [(U.zero(), polys[0])]
        assert poly_dot(U, pairs) == poly_sum(U, [a * b for a, b in pairs])
    assert poly_dot(U, []) == U.zero()
    assert poly_dot(U, [(U.x(1), U.x(2)), (-U.x(2), U.x(1))]).is_zero
    with pytest.raises(UniverseMismatchError):
        poly_dot(U, [(U.x(1), VariableUniverse(2, 2).x(1))])
    big = U.x(1) ** 200
    assert poly_dot(U, [(big, U.x(2) ** 55)]) == big * U.x(2) ** 55
    with pytest.raises(DegreeOverflowError):
        poly_dot(U, [(U.x(1), U.x(2)), (big, U.x(2) ** 56)])


def _relabel_oracle(universe, p, maps):
    """The same sum through substitute: every x of p bound to its target."""
    out = universe.zero()
    for sign, targets in maps:
        bindings = {f"x{r}": universe.x(t) for r, t in enumerate(targets, 1)}
        out = out + sign * p.substitute(bindings, universe=universe)
    return out


def test_relabel_x_sum_matches_substitute():
    rng = random.Random(31)
    # (source n_x, target n_x): into a larger universe, and within one
    for k, n in [(1, 3), (2, 4), (3, 5), (2, 2), (4, 4)]:
        small, big = VariableUniverse(k, 3), VariableUniverse(n, 3)
        for _ in range(6):
            p = random_polynomial(small, rng, max_terms=12)
            maps = [
                (rng.choice((1, -1)), rng.sample(range(1, n + 1), k))
                for _ in range(rng.randint(1, 5))
            ]
            assert relabel_x_sum(big, p, maps) == _relabel_oracle(big, p, maps)
    # k = 0: a polynomial in b and the y's moves into the new universe as is
    const_u, big = VariableUniverse(0, 3), VariableUniverse(4, 3)
    for p in rng_polys(32, 5, const_u, max_terms=8):
        assert relabel_x_sum(big, p, [(1, ())]) == p.substitute({}, universe=big)
        assert relabel_x_sum(big, p, [(1, ()), (1, ())]) == 2 * p.substitute({}, universe=big)


def test_relabel_x_sum_cancels_to_zero():
    small, big = VariableUniverse(2, 2), VariableUniverse(3, 2)
    p = rng_polys(33, 1, small, max_terms=10, nonzero=True)[0]
    assert relabel_x_sum(big, p, [(1, (3, 1)), (-1, (3, 1))]).num_terms == 0
    # sym is symmetric in x1, x2, so the swapped relabel cancels it term by term
    sym = small.x(1) + small.x(2) + small.y(1) * small.x(1) * small.x(2)
    zero = relabel_x_sum(big, sym, [(1, (1, 3)), (-1, (3, 1))])
    assert zero == big.zero() and zero.num_terms == 0
    assert relabel_x_sum(big, p, []) == big.zero()


def test_relabel_x_sum_rejects_bad_maps():
    small, big = VariableUniverse(2, 2), VariableUniverse(3, 2)
    p = small.circle_plus(1, 2) * small.x(2)
    for universe, maps in [
        (VariableUniverse(3, 1), [(1, (1, 2))]),  # n_y differs
        (VariableUniverse(3, 3), [(1, (1, 2))]),
        (big, [(1, (2, 2))]),  # a repeated target
        (big, [(1, (1, 2)), (-1, (3, 3))]),
        (big, [(1, (0, 2))]),  # out of range
        (big, [(1, (1, 4))]),
        (big, [(1, (1,))]),  # wrong length
        (big, [(1, (1, 2, 3))]),
        (VariableUniverse(1, 2), [(1, (1, 1))]),
    ]:
        with pytest.raises(UniverseMismatchError):
            relabel_x_sum(universe, p, maps)
    with pytest.raises(ValueError, match="1 or -1"):
        relabel_x_sum(big, p, [(2, (1, 2))])


def test_str_rendering():
    assert str(U.zero()) == "0"
    assert str(U.one()) == "1"
    assert str(-U.one()) == "-1"
    p = U.beta() * U.x(1) * U.y(1) + U.x(1) + U.y(1)
    assert str(p) == "b*x1*y1 + x1 + y1"
    assert str(U.x(2) - U.x(1) ** 2) == "-x1^2 + x2"


def test_latex_rendering():
    p = U.beta() ** 2 * U.x(1) - 2 * U.y(3)
    assert p.to_latex() == r"\beta^{2} x_{1} - 2 y_{3}"


def test_json_round_trip_and_order():
    p = U.circle_plus(1, 1) * U.circle_plus(2, 2) - 7
    obj = p.to_json_obj()
    # canonical order: strictly decreasing in (degree, lex) reading
    keys = [U.pack(t["exps"]) for t in obj["terms"]]
    assert keys == sorted(keys, reverse=True)
    assert all(isinstance(t["coeff"], str) for t in obj["terms"])
    assert from_json_obj(json.loads(json.dumps(obj))) == p


def test_json_universe_embedded():
    obj = U.x(1).to_json_obj()
    assert obj["universe"] == {"n_x": 3, "n_y": 4}


def test_swap_and_divided_difference():
    p = U.x(1) ** 2 * U.y(1)
    assert p.swap_x(1, 2) == U.x(2) ** 2 * U.y(1)
    # (x1^2 - x2^2)/(x1 - x2) termwise
    f = U.x(1) ** 2
    assert f.divided_difference(1) == U.x(1) + U.x(2)
    # dual route: termwise result equals the exact division by x1 - x2
    rng = random.Random(9)
    for _ in range(25):
        g = random_polynomial(U, rng)
        anti = g - g.swap_x(1, 2)
        assert g.divided_difference(1) == exact_div(anti, U.x(1) - U.x(2))


def test_rational_point_distinct_x():
    rng = random.Random(10)
    for _ in range(50):
        pt = random_rational_point(U, rng)
        assert len(set(pt.xs)) == len(pt.xs)
