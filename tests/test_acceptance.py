"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every exactness check is structural polynomial equality; every
randomized check runs under the fixed seed below.

Criterion 4 note: its zero-case clause (shifted shapes with a negative
part must verify) is asserted as stated.  There the left side is the
determinant quotient of the zero-padded shifted index, read from its
diagonal columns (see the verify_gm_type docstring), a multiple of beta in
general (-b at lam=(0), n=2, k=1) that matches the subset sum; the
classical beta=0 instances of the same zero cases, where that quotient
vanishes, are criterion 7.
"""

import random
import time

from grothpoly import (
    InvalidShapeError,
    VariableUniverse,
    count_tableaux,
    determinant,
    exact_div,
    g_determinant,
    g_divided_difference,
    g_tableau,
    partitions_in_box,
    random_rational_point,
    run_case,
    schur,
    verify_e_beta_recurrence,
    verify_good_general,
    verify_good_k_general,
    verify_louck_general,
    verify_vandermonde_lemma,
)
from grothpoly.identities import grid_fnr_type, grid_gm_type
from helpers import random_polynomial, schur_oracle

SEED = 20260808  # fixed seed for every randomized acceptance check


def announce(num: int, ok: bool, detail: str, elapsed: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"\ncriterion {num}: {verdict} ({detail}) [{elapsed:.1f}s]")


def test_criterion_1_two_one_shape_expansion():
    t0 = time.perf_counter()
    assert count_tableaux((2, 1), 2) == 3
    g = g_tableau((2, 1), 2)
    U = g.universe
    w1 = U.circle_plus(1, 1) * U.circle_plus(1, 2) * U.circle_plus(2, 1)
    w2 = U.circle_plus(1, 1) * U.circle_plus(2, 3) * U.circle_plus(2, 1)
    w3 = U.beta() * U.circle_plus(1, 1) * U.circle_plus(1, 2) * U.circle_plus(2, 3) * U.circle_plus(2, 1)
    expected = w1 + w2 + w3
    ok = g == expected and g.terms_sorted() == expected.terms_sorted()
    elapsed = time.perf_counter() - t0
    announce(1, ok and elapsed < 1.0, "three-summand expansion, 3 tableaux", elapsed)
    assert ok
    assert elapsed < 1.0


def test_criterion_2_cross_method_agreement():
    t0 = time.perf_counter()
    checked = rejected = 0
    for lam in partitions_in_box(3, 3):
        # n = 4 for lam_1 <= 2, with (3, 2) as the one lam_1 = 3 spot check
        four = (4,) if lam.parts[:1] < (3,) or lam.parts == (3, 2) else ()
        for n in (1, 2, 3) + four:
            if len(lam) > n:
                # more rows than variables: tableau sum is 0, the n-variable
                # determinant and permutation constructions do not exist
                assert g_tableau(lam, n).is_zero
                try:
                    g_determinant(lam, n)
                    raise AssertionError("expected InvalidShapeError (determinant)")
                except InvalidShapeError:
                    pass
                try:
                    g_divided_difference(lam, n)
                    raise AssertionError("expected InvalidShapeError (divided difference)")
                except InvalidShapeError:
                    pass
                rejected += 1
                continue
            gt = g_tableau(lam, n)
            assert g_determinant(lam, n) == gt, (lam, n)
            assert g_divided_difference(lam, n) == gt, (lam, n)
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120
    announce(2, ok, f"{checked} triples agree, {rejected} overflow shapes rejected", elapsed)
    assert ok


def test_criterion_3_vandermonde_lemma():
    t0 = time.perf_counter()
    for n in range(1, 6):
        rep = verify_vandermonde_lemma(n)
        assert rep.passed, n
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30
    announce(3, ok, "n in 1..5 exact", elapsed)
    assert ok


def test_criterion_4_gm_type_grid():
    t0 = time.perf_counter()
    failures = []
    zero_cases = 0
    for identity, params in grid_gm_type(ns=(2, 3, 4), max_part=3):
        lam, n, k = params["lam"], params["n"], len(params["lam"])
        is_zero_case = lam[-1] - n + k < 0
        zero_cases += is_zero_case
        rep = run_case(identity, params)
        if not rep.passed:
            failures.append((tuple(lam), n, "zero-case" if is_zero_case else "MAIN"))
    elapsed = time.perf_counter() - t0
    assert zero_cases >= 3  # the grid hits the required zero-case sets
    main_failures = [f for f in failures if f[2] == "MAIN"]
    ok = not failures and elapsed < 300
    announce(
        4,
        ok,
        f"main grid failures: {len(main_failures)}; zero-case failures: "
        f"{len(failures) - len(main_failures)} of {zero_cases} "
        "(zero cases read G_mu from its determinant columns, see verify_gm_type docstring)",
        elapsed,
    )
    assert elapsed < 300
    assert not main_failures, f"non-zero-case grid points failed: {main_failures}"
    assert not failures, (
        "zero-case grid points failed: their left side det(f_j(x_i)) = V * G_mu "
        "should equal the cleared subset sum "
        f"(failing points: {failures[:5]}... total {len(failures)})"
    )


def test_criterion_4_zero_cases_at_n_5():
    # The GM grid at n = 5 (max part 3) has 125 cases.  Its 49 zero cases run
    # here, each read from its determinant columns.  Of the other 76, lam =
    # (3,3,2,1) runs in the spot checks below and the other 19 with k < n in
    # test_criteria_4_and_5_k_below_n_at_n_5.  The 56 with k = n (about 170 s
    # in all, almost all of it the g_tableau build of G_lam) run in no test
    # and stay out of Tier-1 (ROADMAP item 4); grothpoly suite stops at n = 4.
    zero_cases = [
        params for _, params in grid_gm_type(ns=(5,), max_part=3)
        if params["lam"][-1] - 5 + len(params["lam"]) < 0
    ]
    assert len(zero_cases) == 49
    for params in zero_cases:
        assert run_case("gm_type", params).passed, params


_N5_SPOT_CHECKS = [
    ("gm_type", {"lam": [3, 3, 2, 1], "n": 5}),
    ("fnr_type", {"lam": [2, 1], "m": 4, "n": 5}),
]


def test_criteria_4_and_5_k_below_n_at_n_5():
    # The n = 5 GM cases with k < n and a partition mu (19) and the n = 5 FNR
    # grid (25; every case has k < n), less the two spot checks below.
    gm = [
        case for case in grid_gm_type(ns=(5,), max_part=3)
        if len(case[1]["lam"]) < 5 and case[1]["lam"][-1] - 5 + len(case[1]["lam"]) >= 0
    ]
    fnr = grid_fnr_type(ns=(5,), max_m=4)
    cases = [case for case in gm + fnr if case not in _N5_SPOT_CHECKS]
    assert len(cases) == 19 + 25
    for identity, params in cases:
        assert run_case(identity, params).passed, (identity, params)


def test_criterion_5_fnr_type_grid():
    t0 = time.perf_counter()
    failures = []
    for identity, params in grid_fnr_type(ns=(2, 3, 4), max_m=4):
        rep = run_case(identity, params)
        if not rep.passed:
            failures.append(params)
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300
    announce(5, ok, f"{len(list(grid_fnr_type()))} parameter sets exact", elapsed)
    assert not failures, failures
    assert elapsed < 300


def test_criteria_4_and_5_spot_checks_at_n_5():
    # two heavy n = 5 cases, with the cleared-side counts measured before the
    # right side was read from F's factors
    for (identity, params), terms in zip(_N5_SPOT_CHECKS, (1145040, 184800)):
        rep = run_case(identity, params)
        assert rep.passed, (identity, params)
        assert (rep.lhs_terms, rep.rhs_terms) == (terms, terms), (identity, params)


def test_criterion_6_corollaries():
    t0 = time.perf_counter()
    for n in range(1, 6):
        assert verify_good_general(n).passed, ("good", n)
    for n in range(1, 5):
        for m in range(max(n - 1, 0), 6):
            assert verify_louck_general(m, n).passed, ("louck", m, n)
    for n in range(1, 6):
        for k in range(n + 1):
            assert verify_good_k_general(n, k).passed, ("good_k", n, k)
    for n in range(1, 7):
        for k in range(n + 1):
            assert verify_e_beta_recurrence(k, n).passed, ("e_beta", k, n)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120
    announce(6, ok, "good/louck/good_k/e_beta grids exact", elapsed)
    assert ok


def test_criterion_7_classical_specializations():
    t0 = time.perf_counter()
    for _, params in grid_gm_type(ns=(2, 3, 4), max_part=3):
        rep = run_case("classical_gm", params)
        assert rep.passed, ("classical_gm", params)
    for _, params in grid_fnr_type(ns=(2, 3, 4), max_m=4):
        rep = run_case("classical_fnr", params)
        assert rep.passed, ("classical_fnr", params)
    for n in (2, 3, 4):
        rep = run_case("classical_good", {"n": n, "trials": 100, "seed": SEED})
        assert rep.passed, ("classical_good", n)
    rep = run_case("classical_louck", {"m": 3, "n": 2})
    assert rep.passed
    elapsed = time.perf_counter() - t0
    announce(7, True, "beta=0 (and y=0) grids, Good reciprocal as FNR lam=(0) m=1, Louck (3,2)", elapsed)


def test_criterion_8_schur_oracle():
    t0 = time.perf_counter()
    for lam in partitions_in_box(3, 3):
        for n in range(1, 5):
            s = schur(lam, n)
            assert s == schur_oracle(lam.parts, n, s.universe), (lam, n)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60
    announce(8, ok, "all shapes in the 3x3 box, n <= 4, vs brute-force SSYT sums", elapsed)
    assert ok


def test_criterion_9_ring_property_suite():
    t0 = time.perf_counter()
    U = VariableUniverse(3, 3)
    rng = random.Random(SEED)

    for _ in range(100):  # associativity, commutativity, distributivity
        p, q, r = (random_polynomial(U, rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    for _ in range(100):  # exact division round trip
        p = random_polynomial(U, rng)
        d = random_polynomial(U, rng, nonzero=True)
        assert exact_div(p * d, d) == p

    for _ in range(100):  # determinant alternation on 3x3 matrices
        m = [[random_polynomial(U, rng, max_terms=3, max_exp=2) for _ in range(3)] for _ in range(3)]
        a, b = rng.sample(range(3), 2)
        swapped = list(m)
        swapped[a], swapped[b] = m[b], m[a]
        assert determinant(swapped) == -determinant(m)
        dup = [m[0], m[0], m[2]]
        assert determinant(dup).is_zero

    for _ in range(100):  # evaluation is a ring homomorphism
        p, q = (random_polynomial(U, rng) for _ in range(2))
        pt = random_rational_point(U, rng, distinct_x=False)
        assert (p * q).eval_rational(pt) == p.eval_rational(pt) * q.eval_rational(pt)
        assert (p + q).eval_rational(pt) == p.eval_rational(pt) + q.eval_rational(pt)

    elapsed = time.perf_counter() - t0
    announce(9, True, f"4 x 100 randomized checks, seed {SEED}", elapsed)
