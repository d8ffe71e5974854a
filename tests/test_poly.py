"""Polynomial ring: arithmetic, division, determinants, substitution, wire formats."""

import json
import random
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from grothpoly import (
    DegreeOverflowError,
    NotDivisibleError,
    Polynomial,
    RationalPoint,
    UniverseMismatchError,
    VariableUniverse,
    alternant_coords,
    determinant,
    exact_div,
    from_json_obj,
    poly_dot,
    poly_prod,
    poly_sum,
    random_rational_point,
)
from grothpoly.poly import NotSymmetricError
from helpers import block_factor, decreasing_terms, random_polynomial, relabel

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
    # x_i - x_j, whose leading coefficient is 1, against the round trip and
    # against 2(x_i - x_j), whose leading coefficient is not
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


def _symmetrized(universe, p, n):
    """Sum of p over all permutations of x_1..x_n (p's universe has n x's)."""
    perms = permutations(range(1, n + 1))
    return poly_sum(universe, (relabel(universe, p, w) for w in perms))


def test_alternant_coords_hand_cases():
    two = VariableUniverse(2, 1)
    assert alternant_coords((two.one(),), (2,)) == two.x(1)  # x1 - x2
    assert alternant_coords((two.x(1) + two.x(2),), (2,)) == two.x(1) ** 2  # x1^2 - x2^2
    # k = 1, F = a(x1) b(x2): d_1 x1 = 1 and d_1 1 = 0; d_1 x1^2 = x1 + x2 and
    # d_1 x2^2 = -(x1 + x2)
    one2 = two.one()
    assert alternant_coords((two.x(1), one2), (1, 1)) == two.x(1)
    assert alternant_coords((two.one(), one2), (1, 1)).is_zero
    assert alternant_coords((two.x(1) ** 2, one2), (1, 1)) == two.x(1) ** 2
    assert alternant_coords((two.one(), two.x(2) ** 2), (1, 1)) == -two.x(1) ** 2
    # d_1(x1 x2) = 0 (the pair (1, 1) repeats); d_1(x1^2 x2) = x1 x2, and
    # d_1(x1 x2^2) = -x1 x2 (the pair (1, 2) sorts with a sign)
    assert alternant_coords((two.x(1), two.x(2)), (1, 1)).is_zero
    assert alternant_coords((two.x(1) ** 2, two.x(2)), (1, 1)) == two.x(1) ** 2 * two.x(2)
    assert alternant_coords((two.x(1), two.x(2) ** 2), (1, 1)) == -two.x(1) ** 2 * two.x(2)
    # b's coefficients multiply a's: d_1((1 + b x1) y1) = b y1
    a = two.one() + two.beta() * two.x(1)
    assert alternant_coords((a, two.y(1)), (1, 1)) == two.beta() * two.x(1) * two.y(1)
    # n = 1 and n = 0: the Vandermonde product is 1 and d_v the identity
    one = VariableUniverse(1, 2)
    p = one.circle_plus(1, 2) * one.circle_plus(1, 1)
    assert alternant_coords((p, one.one()), (1, 0)) == p
    assert alternant_coords((one.one(), p), (0, 1)) == p
    assert alternant_coords((p, one.one()), (0, 0)) == p  # x1 lies outside both blocks
    assert alternant_coords((VariableUniverse(0, 2).y(1),), (0,)) == VariableUniverse(0, 2).y(1)
    for universe, n in [(two, 2), (one, 1), (U, 3), (U, 0)]:
        for k in range(n + 1):
            assert alternant_coords((universe.zero(), universe.one()), (k, n - k)).is_zero
            assert alternant_coords((universe.one(), universe.zero()), (k, n - k)).is_zero


def test_alternant_coords_equal_the_product_counts():
    # the coordinates are the strictly decreasing terms of p * V, n! per term of it
    rng = random.Random(41)
    for n in range(1, 5):
        universe = VariableUniverse(n, 2)
        V = universe.vandermonde(range(1, n + 1))
        for _ in range(6):
            p = _symmetrized(universe, random_polynomial(universe, rng, max_terms=4), n)
            coords = alternant_coords((p,), (n,))
            assert coords == decreasing_terms(p * V, n)
            assert factorial(n) * coords.num_terms == (p * V).num_terms
    # a cancelling case: e_1 * V has fewer terms than the pairs of factors
    U3 = VariableUniverse(3, 1)
    e1 = U3.x(1) + U3.x(2) + U3.x(3)
    V3 = U3.vandermonde([1, 2, 3])
    assert 6 * alternant_coords((e1,), (3,)).num_terms == (e1 * V3).num_terms
    assert (e1 * V3).num_terms < e1.num_terms * V3.num_terms
    # symmetric in x_1..x_n only, inside a universe with more x's
    big = VariableUniverse(4, 1)
    for n in range(0, 4):
        small = VariableUniverse(n, 1)
        for _ in range(4):
            sym = _symmetrized(small, random_polynomial(small, rng, max_terms=4), n)
            p = relabel(big, sym, range(1, n + 1)) * (big.x(4) + big.beta())
            product = p * big.vandermonde(range(1, n + 1))
            assert alternant_coords((p,), (n,)) == decreasing_terms(product, n)


def _sign(w):
    return -1 if sum(a > b for i, a in enumerate(w) for b in w[i + 1 :]) % 2 else 1


def _column(rng):
    """A polynomial in x1, b and y1 with four distinct x1 exponents out of 0..5."""
    one = VariableUniverse(1, 1)
    exps = (
        {"x1": e, "b": rng.randint(0, 1), "y1": rng.randint(0, 1)}
        for e in rng.sample(range(6), 4)
    )
    return poly_sum(one, (one.monomial(rng.choice([-3, -2, -1, 1, 2, 3]), e) for e in exps))


def test_alternant_coords_of_one_x_blocks_are_the_determinant():
    # columns f_j(x_j), each a random polynomial in one x, b and y1: the
    # coordinates are the strictly decreasing terms of det(f_j(x_i))
    rng = random.Random(23)
    for n in range(1, 5):
        universe = VariableUniverse(n, 1)
        for _ in range(3):
            bases = [_column(rng) for _ in range(n)]
            columns = [relabel(universe, f, [j]) for j, f in enumerate(bases, 1)]
            rows = [[relabel(universe, f, [i]) for f in bases] for i in range(1, n + 1)]
            want = decreasing_terms(determinant(rows), n)
            assert alternant_coords(columns, (1,) * n) == want, n


def test_alternant_coords_of_mixed_blocks_against_antisymmetrization():
    # V * d_v F is the antisymmetrization sum_w sign(w) w(F x^delta) over S_n,
    # delta the staircase (m-1, ..., 0) inside each block of m x's
    rng = random.Random(29)
    for sizes in [(1, 2), (2, 1), (2, 1, 1), (0, 2), (1, 0, 2)]:
        n = sum(sizes)
        universe = VariableUniverse(n, 1)
        stair, lo = universe.one(), 1
        for m in sizes:
            for i in range(m):
                stair = stair * universe.x(lo + i) ** (m - 1 - i)
            lo += m
        for _ in range(3):
            factors, lo = [], 1
            for m in sizes:
                factors.append(block_factor(universe, rng, lo, lo + m - 1, max_terms=6))
                lo += m
            F = poly_prod(universe, factors) * stair
            antisymmetrized = poly_sum(
                universe,
                (_sign(w) * relabel(universe, F, w) for w in permutations(range(1, n + 1))),
            )
            want = decreasing_terms(antisymmetrized, n)
            assert alternant_coords(factors, sizes) == want, sizes


def test_alternant_coords_rejects_bad_counts_and_overflow():
    for sizes in [(-1,), (4,), (3, -1), (-1, 3)]:
        with pytest.raises(UniverseMismatchError):
            alternant_coords((U.x(1),) + (U.one(),) * (len(sizes) - 1), sizes)
    two = VariableUniverse(2, 0)
    with pytest.raises(UniverseMismatchError):
        alternant_coords((U.one(), two.x(2)), (1, 1))
    # one block size per factor
    for factors, sizes in [((), ()), ((two.one(),), (1, 1)), ((two.one(), two.one()), (2,))]:
        with pytest.raises(ValueError, match="one block size per factor"):
            alternant_coords(factors, sizes)
    # each factor lives in its own block of x_1..x_n
    for a, b in [(two.x(2), two.one()), (two.one(), two.x(1)), (two.x(1) * two.x(2), two.one())]:
        with pytest.raises(ValueError, match="holds another x"):
            alternant_coords((a, b), (1, 1))
    p = two.x(1) ** 255 + two.x(2) ** 255
    with pytest.raises(DegreeOverflowError):
        p * two.vandermonde([1, 2])
    with pytest.raises(DegreeOverflowError):
        alternant_coords((p,), (2,))
    # in blocks of one x the block Vandermonde products are 1: nothing overflows
    assert alternant_coords((two.x(1) ** 255, two.one()), (1, 1)) == two.x(1) ** 255
    assert alternant_coords((two.one(), two.x(2) ** 255), (1, 1)) == -two.x(1) ** 255
    # the factors' degrees add: each fits, their product does not
    with pytest.raises(DegreeOverflowError):
        alternant_coords((two.x(1) ** 200, two.x(2) ** 100), (1, 1))
    # a third block adds its own staircase degree, 1 for a block of two x's
    three = VariableUniverse(3, 0)
    with pytest.raises(DegreeOverflowError):
        alternant_coords((three.x(1) ** 255, three.one()), (1, 2))


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


def test_json_tolerates_unsorted_input():
    # duplicated terms are summed, terms that cancel vanish, order is free
    p = 3 * U.x(1) ** 2 * U.y(2) - U.beta() + 7
    terms = p.to_json_obj()["terms"]
    extra = [
        {"coeff": "5", "exps": {"x2": 1, "y1": 3}},
        {"coeff": "-5", "exps": {"y1": 3, "x2": 1}},
        {"coeff": "-1", "exps": {"x1": 2, "y2": 1}},
        {"coeff": "1", "exps": {"x1": 2, "y2": 1}},
        {"coeff": "2", "exps": {"b": 1}},
    ]
    rng = random.Random(12)
    for _ in range(5):
        shuffled = terms + extra
        rng.shuffle(shuffled)
        q = from_json_obj({"universe": {"n_x": 3, "n_y": 4}, "terms": shuffled})
        assert q == 3 * U.x(1) ** 2 * U.y(2) + U.beta() + 7
        assert q.num_terms == 3


def test_json_universe_embedded():
    obj = U.x(1).to_json_obj()
    assert obj["universe"] == {"n_x": 3, "n_y": 4}


def test_swap_and_divided_difference():
    p = U.x(1) ** 2 * U.y(1)
    assert p.swap_x(1, 2) == U.x(2) ** 2 * U.y(1)
    assert p.swap_x(2, 2) is p
    # (x1^2 - x2^2)/(x1 - x2) termwise
    f = U.x(1) ** 2
    assert f.divided_difference(1) == U.x(1) + U.x(2)
    # dual route: termwise result equals the exact division by x1 - x2
    rng = random.Random(9)
    for _ in range(25):
        g = random_polynomial(U, rng)
        anti = g - g.swap_x(1, 2)
        assert g.divided_difference(1) == exact_div(anti, U.x(1) - U.x(2))


def _swap_symmetric(p, lo, hi):
    """Whether every adjacent swap of x_lo..x_hi leaves p unchanged."""
    return all(p.swap_x(i, i + 1) == p for i in range(lo, hi))


def _broken_orbit(universe, p, rng, how, lo, hi):
    """p with the orbit of one random term broken: its coefficient changed,
    every term of its x_lo..x_hi exponents dropped, or the term times b or y1."""
    terms = p.terms_sorted()
    exps, c = rng.choice(terms)
    if how == "coefficient":
        return p + universe.monomial(rng.choice([-2, -1, 1, 2]), exps)
    if how == "missing":
        head = [exps.get(f"x{i}", 0) for i in range(lo, hi + 1)]
        kept = (e for e in terms if [e[0].get(f"x{i}", 0) for i in range(lo, hi + 1)] != head)
        return poly_sum(universe, (universe.monomial(d, e) for e, d in kept))
    term = universe.monomial(c, exps)
    return p - term + term * rng.choice([universe.beta(), universe.y(1)])


def test_alternant_coords_rejects_exactly_the_non_symmetric_factors():
    # one factor of a symmetrized pair loses the symmetry of one orbit; the kernel
    # raises exactly when adjacent swaps say so, and names the factor's block
    rng = random.Random(12)
    raised = dict.fromkeys(("coefficient", "missing", "beta or y"), 0)
    for n in range(1, 5):
        universe = VariableUniverse(n, 1)
        for k in range(n + 1):
            for how in raised:
                for _ in range(4):
                    a = block_factor(universe, rng, 1, k)
                    b = block_factor(universe, rng, k + 1, n)
                    lo, hi = rng.choice([(1, k), (k + 1, n)] if 0 < k < n else [(1, n)])
                    if (lo, hi) == (1, k):
                        a = _broken_orbit(universe, a, rng, how, lo, hi)
                    else:
                        b = _broken_orbit(universe, b, rng, how, lo, hi)
                    if _swap_symmetric(a, 1, k) and _swap_symmetric(b, k + 1, n):
                        alternant_coords((a, b), (k, n - k))
                        continue
                    with pytest.raises(NotSymmetricError, match=f"in x{lo}..x{hi}$"):
                        alternant_coords((a, b), (k, n - k))
                    raised[how] += 1
    assert all(raised.values()), raised
    # equal groups alone would accept x1^2 without x2^2: the orbit must be complete
    two = VariableUniverse(2, 1)
    for p in (two.x(1) ** 2, two.x(1) ** 2 + two.x(2) ** 2 + two.x(1) ** 2 * two.x(2)):
        with pytest.raises(NotSymmetricError, match="in x1..x2$"):
            alternant_coords((p,), (2,))
    p = two.x(1) ** 2 + two.x(2) ** 2
    assert alternant_coords((p,), (2,)) == two.x(1) ** 3 - two.x(1) ** 2 * two.x(2)


def test_rational_point_distinct_x():
    rng = random.Random(10)
    for _ in range(50):
        pt = random_rational_point(U, rng)
        assert len(set(pt.xs)) == len(pt.xs)
