"""The three constructions, Grassmannian machinery, specializations."""

import random
from itertools import permutations

import pytest

from grothpoly import (
    EmbeddingError,
    GrassmannianPermutation,
    InvalidPartitionError,
    InvalidShapeError,
    Partition,
    UniverseMismatchError,
    VariableUniverse,
    default_universe,
    exact_div,
    factorial_schur,
    g_determinant,
    g_divided_difference,
    g_tableau,
    grassmannian_from_partition,
    partitions_in_box,
    pi_operator,
    restrict,
    schur,
)
from helpers import random_polynomial, relabel, schur_oracle, tableau_stream_sum


def three_term_expansion(U):
    w1 = U.circle_plus(1, 1) * U.circle_plus(1, 2) * U.circle_plus(2, 1)
    w2 = U.circle_plus(1, 1) * U.circle_plus(2, 3) * U.circle_plus(2, 1)
    w3 = U.beta() * w1 * U.circle_plus(2, 3)
    return w1 + w2 + w3


def test_g_tableau_two_one_expansion():
    g = g_tableau((2, 1), 2)
    assert g == three_term_expansion(g.universe)


def test_g_tableau_zero_and_empty():
    assert g_tableau((1, 1, 1), 2).is_zero
    assert g_tableau((2, 2, 1), 2).is_zero
    assert g_tableau((), 3) == 1
    assert g_tableau((), 1) == 1


def test_g_tableau_matches_stream_sum():
    # the transfer-matrix sum against the weights of the enumerated tableaux,
    # in the default universe and in wider ones such as restrict and the
    # GM/FNR cases pass
    for lam in partitions_in_box(3, 3):
        lam1 = lam.parts[0] if lam.parts else 0
        for n in (1, 2, 3, 4):
            if n == 4 and lam.size > 5:
                continue
            universes = [default_universe(lam, n)]
            if n < 4:
                universes.append(VariableUniverse(n + 1, n + lam1 + 2))
            for U in universes:
                assert g_tableau(lam, n, universe=U) == tableau_stream_sum(lam, n, U), (lam, n, U)


def test_g_tableau_errors():
    # every builder rejects n < 1 alike, before it builds a universe
    for builder in (g_tableau, g_determinant, g_divided_difference):
        for lam, n in [((1,), 0), ((), 0), ((), -1), ((2, 1), -1)]:
            with pytest.raises(ValueError, match="n must be a positive integer"):
                builder(lam, n)
    # a universe without some x_t or y_{t+c} a tableau needs
    for lam, n, U in [((2, 1), 3, VariableUniverse(2, 4)), ((2, 1), 2, VariableUniverse(2, 1))]:
        with pytest.raises(UniverseMismatchError, match="weight needs x"):
            g_tableau(lam, n, universe=U)
        with pytest.raises(UniverseMismatchError, match="weight needs x"):
            tableau_stream_sum(lam, n, U)


def test_g_tableau_does_not_enumerate(monkeypatch):
    import grothpoly.grothendieck as gr
    import grothpoly.tableaux as tab

    def refuse(*args, **kwargs):
        raise AssertionError("g_tableau must not expand tableaux one by one")

    for module in (tab, gr):
        for name in ("enumerate_tableaux", "weight"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    U = default_universe((2, 1), 3)
    g = g_tableau((2, 1), 3)
    monkeypatch.undo()
    assert g == tableau_stream_sum((2, 1), 3, U)


def test_g_tableau_matches_determinant_at_four_variables():
    # beta-deformed builder-to-builder check where the profile is cut at
    # the end of more than one row; divided differences through S_7 are
    # left out for their cost
    for lam in partitions_in_box(3, 3):
        assert g_tableau(lam, 4) == g_determinant(lam, 4), lam


def test_g_tableau_matches_determinant_at_five_variables():
    # the north star's n, on shapes whose n = 5 builds stay small
    for lam in [(1,), (1, 1), (2,), (2, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1, 1)]:
        assert g_tableau(lam, 5) == g_determinant(lam, 5), lam


def test_g_determinant_matches_tableau():
    assert g_determinant((2, 1), 2) == g_tableau((2, 1), 2)
    assert g_determinant((2, 1), 3) == g_tableau((2, 1), 3)
    assert g_determinant((0, 0, 0), 3) == 1


def test_g_determinant_overflow_shape_rejected():
    with pytest.raises(InvalidShapeError):
        g_determinant((1, 1, 1), 2)


def test_g_determinant_rejects_non_partition_index():
    # g_determinant takes partitions only; a GM zero case reads its
    # non-partition mu from the determinant's columns instead (its value,
    # -b at mu = (-1, 0), is checked in test_identities)
    for bad in [(-1,), (-1, 0), (-2,), (0, -1), (-1, 0, 0)]:
        with pytest.raises(InvalidPartitionError):
            g_determinant(bad, 2)


def test_g_determinant_against_sympy_quotient():
    # an oracle that shares no code with the package: the numerator is built
    # and expanded (Leibniz) in sympy's sparse polynomial ring, then cancelled
    # against the Vandermonde product there
    sympy = pytest.importorskip("sympy")
    box = [(), (1,), (2,), (1, 1), (2, 1), (2, 2)]
    cases = [(lam, n) for n in (1, 2, 3) for lam in box if len(lam) <= n]
    cases += [((1,), 4), ((1, 1, 1), 4)]
    for index, n in cases:
        e = [p + n - 1 - j for j, p in enumerate(tuple(index) + (0,) * (n - len(index)))]
        names = ["b"] + [f"x{i}" for i in range(1, n + 1)]
        names += [f"y{t}" for t in range(1, max(e, default=0) + 1)]
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
        V = R.one
        for i in range(n):
            for j in range(i + 1, n):
                V *= xs[i] - xs[j]
        quotient, denominator = det.cancel(V)
        assert denominator == R.one, (index, n)
        g = g_determinant(index, n)
        assert set(g.universe.names()) <= set(names)
        mine = R.from_dict(
            {tuple(exps.get(v, 0) for v in names): c for exps, c in g.terms_sorted()}
        )
        assert quotient == mine, (index, n)


def test_grassmannian_from_partition():
    w = grassmannian_from_partition((2, 1), 2, 4)
    assert w.word == (2, 4, 1, 3)
    assert w.descent == 2
    assert w.shape(2) == Partition((2, 1))
    assert w.length() == 3  # |lambda|

    ident = grassmannian_from_partition((), 2, 3)
    assert ident.word == (1, 2, 3)
    assert ident.descent is None


def test_grassmannian_round_trip():
    for lam in partitions_in_box(3, 3):
        for n in (1, 2, 3):
            if len(lam) > n:
                continue
            lam1 = lam.parts[0] if lam.parts else 0
            for p in (n + lam1, n + lam1 + 1):
                w = grassmannian_from_partition(lam, n, p)
                assert w.shape(n) == lam
                assert w.length() == lam.size


def test_grassmannian_validation():
    with pytest.raises(EmbeddingError):
        grassmannian_from_partition((2,), 1, 2)  # needs p >= 3
    with pytest.raises(ValueError):
        GrassmannianPermutation((2, 1, 4, 3))  # two descents
    with pytest.raises(ValueError):
        GrassmannianPermutation((1, 1))


def test_pi_operator_base_cases():
    U = VariableUniverse(2, 0)
    assert pi_operator(U.x(1), 1) == 1
    assert pi_operator(U.one(), 1) == -U.beta()


def test_pi_operator_matches_long_division():
    U = VariableUniverse(3, 2)
    rng = random.Random(11)
    for _ in range(20):
        f = random_polynomial(U, rng)
        for i in (1, 2):
            num = (1 + U.beta() * U.x(i + 1)) * f - (1 + U.beta() * U.x(i)) * f.swap_x(i, i + 1)
            assert pi_operator(f, i) == exact_div(num, U.x(i) - U.x(i + 1))


def test_pi_operator_idempotent_up_to_scalar():
    U = VariableUniverse(3, 2)
    rng = random.Random(12)
    for _ in range(10):
        f = random_polynomial(U, rng)
        once = pi_operator(f, 1)
        assert pi_operator(once, 1) == -U.beta() * once


def test_pi_operator_bad_index():
    U = VariableUniverse(2, 0)
    with pytest.raises(UniverseMismatchError):
        pi_operator(U.x(1), 2)


def test_g_divided_difference_examples():
    assert g_divided_difference((2, 1), 2, p=4) == g_tableau((2, 1), 2)
    g = g_divided_difference((1,), 1, p=2)
    assert g == g.universe.circle_plus(1, 1)
    # identity permutation: the full pi chain collapses the seed to 1
    for n in (1, 2, 3):
        assert g_divided_difference((), n, p=n) == 1


def test_g_divided_difference_embedding_independent():
    for lam in partitions_in_box(2, 2):
        for n in (1, 2):
            if len(lam) > n:
                continue
            lam1 = lam.parts[0] if lam.parts else 0
            p = n + lam1
            assert g_divided_difference(lam, n, p=p) == g_divided_difference(lam, n, p=p + 1)


def test_g_divided_difference_cache_shared():
    cache = {}
    a = g_divided_difference((2, 1), 2, cache=cache)
    assert cache  # populated
    b = g_divided_difference((2, 1), 2, cache=cache)
    assert a == b == g_divided_difference((2, 1), 2)


def test_cross_method_small_grid():
    for lam in partitions_in_box(2, 2):
        for n in (1, 2):
            if len(lam) > n:
                assert g_tableau(lam, n).is_zero
                continue
            gt = g_tableau(lam, n)
            assert g_determinant(lam, n) == gt
            assert g_divided_difference(lam, n) == gt


def test_restrict():
    U = VariableUniverse(2, 1)
    assert restrict(g_tableau, (1,), [2], U) == U.circle_plus(2, 1)
    # S = [n] is the unrestricted polynomial
    lam = (2, 1)
    U2 = default_universe(lam, 2)
    assert restrict(g_tableau, lam, [1, 2], U2) == g_tableau(lam, 2)
    # structural relabeling: x2 -> x3
    U3 = VariableUniverse(3, 4)
    got = restrict(g_tableau, lam, [1, 3], U3)
    expect = g_tableau(lam, 2, universe=VariableUniverse(2, 4)).substitute(
        {"x1": U3.x(1), "x2": U3.x(3)}, universe=U3
    )
    assert got == expect
    # any builder, any increasing subset: G built in x_1..x_k of the target
    # universe, moved onto x_S, equals the builder's own G_k relabelled
    U4 = VariableUniverse(4, 4)
    for builder in (g_tableau, g_determinant, g_divided_difference):
        for S in ([2], [1, 3], [2, 3], [1, 2, 3]):
            shape = lam[: len(S)]
            own = builder(shape, len(S))
            assert restrict(builder, shape, S, U4) == relabel(U4, own, S), (builder, S)


def test_restrict_rejects_bad_subset():
    U = VariableUniverse(2, 1)
    with pytest.raises(UniverseMismatchError):
        restrict(g_tableau, (1,), [3], U)
    with pytest.raises(ValueError):
        restrict(g_tableau, (1,), [1, 1], U)


def test_factorial_schur():
    U = VariableUniverse(2, 2)
    fs = factorial_schur((1,), 2, universe=U)
    # the two singleton tableaux survive beta=0: (x1+y1) + (x2+y2)
    assert fs == U.x(1) + U.x(2) + U.y(1) + U.y(2)
    assert fs == g_tableau((1,), 2, universe=U).substitute({"b": 0})


def test_schur_examples():
    s = schur((2, 1), 2)
    U = s.universe
    assert s == U.x(1) ** 2 * U.x(2) + U.x(1) * U.x(2) ** 2
    for n in (1, 2, 3):
        sn = schur((1,), n)
        Un = sn.universe
        assert sn == sum((Un.x(i) for i in range(1, n + 1)), Un.zero())


def test_schur_against_brute_force_oracle():
    for shape in [(2, 1), (2, 2), (3, 1)]:
        for n in (2, 3):
            s = schur(shape, n)
            assert s == schur_oracle(shape, n, s.universe)


def test_determinant_quotient_symmetry():
    # numerator is antisymmetric under row swaps; the quotient is symmetric
    lam = (2, 1)
    n = 3
    g = g_determinant(lam, n)
    for i in (1, 2):
        assert g.swap_x(i, i + 1) == g


def test_methods_agree_at_random_points():
    # both constructions evaluated independently at random rational points
    from grothpoly import random_rational_point

    gt = g_tableau((2, 1), 2)
    gd = g_determinant((2, 1), 2)
    rng = random.Random(13)
    for _ in range(10):
        pt = random_rational_point(gt.universe, rng)
        assert gt.eval_rational(pt) == gd.eval_rational(pt)


def test_g_builders_accept_explicit_universe():
    U = VariableUniverse(3, 6)
    a = g_tableau((2, 1), 2, universe=U)
    b = g_determinant((2, 1), 2, universe=U)
    c = g_divided_difference((2, 1), 2, universe=U)
    assert a == b == c
    assert a.universe == U
