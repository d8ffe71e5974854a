"""Exact verification of the subset-sum identity family.

Every identity here relates a factorial Grothendieck polynomial G_mu to a
sum over k-subsets S of [n], with one-x factors h, q and a sign e,

    G_mu = sum_S e G_lam(x_S|y) prod_{i in S} h(x_i) prod_{j notin S} q(x_j)
           / prod_{i in S, j notin S}(x_i - x_j):
    GM:  mu = (lam_i - n + k),     h = 1,             q = (1+b x)^k, e = 1
    FNR: mu = (m-k,...,m-k, lam),  h = (1+b x)^{n-k}, q = [x|y]^m,   e = (-1)^{k(n-k)}

(e turns the FNR cross product (x_j - x_i) into (x_i - x_j)).  The summand
is sigma_S(F), F = A(x_1..x_k) B(x_{k+1}..x_n), A = G_lam prod_{i<=k}
h(x_i), B = e prod_{j>k} q(x_j), with sigma_S moving x_1..x_k onto x_S and
x_{k+1}..x_n onto the complement, both in increasing order.  So the sum is
the divided difference d_v F, v the longest minimal coset representative of
S_n/(S_k x S_{n-k}): the Gysin formula of a Grassmannian bundle
(Fulton-Pragacz, Schubert Varieties and Degeneracy Loci, LNM 1689).  V*d_v F,
V = prod_{i<j}(x_i - x_j), is alternating, and a verdict compares its
alternant coordinates (Macdonald, Symmetric Functions, I.3) with V*G_mu's.

Every side is (factors, block sizes): d_v of the factors' product, factor i
in the i-th run of consecutive x's.  G_mu's side is ((G_mu,), (n,)), one
object with F's at k = n.  Below k = n, F's side is ((A, c_{k+1}, ..., c_n),
(k, 1, ..., 1)), with the columns c_j = x_j^{n-j} q(x_j) and e on c_{k+1}:
as V_B B = e det(x_i^{n-k-j} q(x_i)), V_B = prod_{k<i<j}(x_i - x_j) (the
Vandermonde lemma), they push forward as B does: B is never formed.  A mu
with a negative part (a GM zero case) has no tableaux; its side is its
determinant quotient's diagonal columns f_j(x_j) in n blocks of one x, as
V*d_{w0} of their product is det(f_j(x_i)) = V*G_mu.  The Vandermonde lemma
compares those columns at lam = empty with ((1,), (n,)); the e_beta
recurrence compares two sides in no x, (p,) in (0,).  alternant_coords reads
every side, folding its blocks' coordinates: no side is multiplied out, and
no divided difference, determinant expansion or subset sum is taken.

A builder is called as builder(shape, n, universe=U) and must build G in
x_1..x_n of any U with U.n_x >= n; G_lam is built so, in the n-variable
universe of G_mu.  G_lam(x|y) is symmetric in x, and the equality rests on
it: the coordinates determine only a symmetric polynomial.  alternant_coords
checks each factor's symmetry in its block in the same pass that reads its
coordinates (each term's group against that of its sorted x-exponents, and
every orbit complete), and a verdict whose A, or G_mu, is not symmetric
raises PreconditionViolatedError naming G_lam, or G_mu, and its block.

Reports count n! terms per alternant coordinate: the terms of the cleared
sides (det(f_j(x_i)) and V for the lemma, the sides themselves for e_beta).

The corollaries are parameter maps into the two families: Good's identity
is the GM-type identity at lam = (n-1,), Louck's at lam = (m,), and Good's
k-subset identity the FNR-type identity at lam = 0^k, m = k.  One table
maps each tag to its case (each classical tag to the general one it
specializes); run_case dispatches through it to one comparison.

When the compared sides differ and fast_trials > 0, both (each a subset sum
as such) are evaluated at up to fast_trials seeded random rational points
with distinct x's and the first disagreement is reported as a witness; V
vanishes at none of them, so the witness is that of the cleared sides.
Sampling never changes a verdict.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from itertools import combinations, combinations_with_replacement, permutations
from math import factorial, prod
from typing import Callable, Sequence

from .grothendieck import classical_image, determinant_columns, g_tableau, restrict
from .poly import (
    NotSymmetricError,
    Polynomial,
    RationalPoint,
    VariableUniverse,
    alternant_coords,
    poly_prod,
    poly_sum,
    random_rational_point,
)
from .tableaux import Partition


class PreconditionViolatedError(ValueError):
    """Parameters outside the asserted range of the identity."""


# --------------------------------------------------------------------------
# subset bookkeeping and denominator clearing


def _complement(S: Sequence[int], n: int) -> tuple[int, ...]:
    s = set(S)
    return tuple(j for j in range(1, n + 1) if j not in s)


def _gm_sign(S: Sequence[int], n: int, k: int) -> int:
    return -1 if (k * (k + 1) // 2 + sum(S)) % 2 else 1


def _fnr_sign(S: Sequence[int], n: int, k: int) -> int:
    return -1 if (n * k + k * (k - 1) // 2 + sum(S)) % 2 else 1


def _clear_denominator(
    S: Sequence[int], n: int, k: int, universe: VariableUniverse, sign_of
) -> tuple[int, Polynomial]:
    S = tuple(sorted(S))
    if len(S) != k:
        raise ValueError("|S| must equal k")
    cof = universe.vandermonde(S) * universe.vandermonde(_complement(S, n))
    return sign_of(S, n, k), cof


# No verifier calls these two; they stay here only because perfbench/tracing.py
# binds them by name.  tests/cleared_reference.py builds its cleared terms on them.
def clear_denominator_gm(
    S: Sequence[int], n: int, k: int, universe: VariableUniverse
) -> tuple[int, Polynomial]:
    """Sign and cofactor with V = sign * cofactor * prod_{i in S, j notin S}(x_i - x_j).

    The sign is (-1)^{binom(k+1,2) + sum(S)} (a negated exponent has the
    same parity).
    """
    return _clear_denominator(S, n, k, universe, _gm_sign)


def clear_denominator_fnr(
    S: Sequence[int], n: int, k: int, universe: VariableUniverse
) -> tuple[int, Polynomial]:
    """Sign and cofactor with V = sign * cofactor * prod_{i in S, j notin S}(x_j - x_i);
    the sign is (-1)^{n k - binom(k,2) + sum(S)}."""
    return _clear_denominator(S, n, k, universe, _fnr_sign)


# --------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class IdentityReport:
    """One verdict and the term counts of the two sides it compared.

    lhs_terms and rhs_terms count n! terms per alternant coordinate: those
    of the cleared sides, V*G_mu and V*d_v F for the GM and FNR families
    (and their corollaries and classical images), det(f_j(x_i)) and V for
    the Vandermonde lemma, the sides themselves for e_beta (no x).  A
    report holds no polynomial: the sides are freed once it is built.
    """

    identity: str
    params: dict
    verdict: str
    witness: RationalPoint | None
    elapsed: float
    lhs_terms: int
    rhs_terms: int

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_obj(self) -> dict:
        return {
            "identity": self.identity,
            "params": self.params,
            "verdict": self.verdict,
            "elapsed_ms": int(self.elapsed * 1000),
            "lhs_terms": self.lhs_terms,
            "rhs_terms": self.rhs_terms,
            "witness": self.witness.to_json_obj() if self.witness else None,
        }


def fast_check(
    lhs_at: Callable[[RationalPoint], Fraction],
    rhs_at: Callable[[RationalPoint], Fraction],
    universe: VariableUniverse,
    trials: int,
    seed: int = 0,
) -> RationalPoint | None:
    """Evaluate both sides, functions of a point, at seeded random rational
    points with distinct x coordinates; return the first witness of
    disagreement, else None.  Verifiers call it only after a failed verdict."""
    rng = random.Random(seed)
    for _ in range(trials):
        pt = random_rational_point(universe, rng, distinct_x=True)
        if lhs_at(pt) != rhs_at(pt):
            return pt
    return None


def _subset_sum_at(factors, sizes, point: RationalPoint) -> Fraction:
    """d_v of the factors' product at a point, factor i in the i-th block of
    sizes[i] x's: the sum over ordered set partitions (S_1, ..., S_t) of [n]
    into blocks of those sizes, each read increasing, of prod_i f_i(x_{S_i})
    over prod (x_a - x_b), a in S_i and b in S_j for i < j, each factor
    evaluated on its own.  One block gives the factor's value; n blocks of
    one x give det(f_j(x_i)) / V."""
    n = sum(sizes)
    xs, total = point.xs, Fraction(0)
    block = [i for i, m in enumerate(sizes) for _ in range(m)]
    for order in permutations(range(n)):
        if any(block[r] == block[r + 1] and order[r] > order[r + 1] for r in range(n - 1)):
            continue
        moved = tuple(xs[j] for j in order)
        value = prod(f.eval_rational(replace(point, xs=moved + xs[n:])) for f in factors)
        total += value / prod(
            moved[r] - moved[s] for r in range(n) for s in range(r + 1, n) if block[r] < block[s]
        )
    return total


def _finish(identity, params, universe, lhs, rhs, started, opts) -> IdentityReport:
    """Compare the two sides, each (factors, block sizes), by the alternant
    coordinates of V*d_v of the factors' product, read by alternant_coords
    without forming it: F's side first, and once when lhs is rhs (k = n).
    The kernel checks each factor's symmetry as it reads it; a side's first
    factor is the one a builder makes, and a failure raises
    PreconditionViolatedError naming the side and that factor's block.
    A witness evaluates each side's sum itself, each factor at each point."""
    side, (factors, sizes) = "G_lam", rhs
    try:
        rhs_coords = alternant_coords(factors, sizes)
        side, (factors, sizes) = "G_mu", lhs
        lhs_coords = rhs_coords if lhs is rhs else alternant_coords(factors, sizes)
    except NotSymmetricError:
        raise PreconditionViolatedError(
            f"the builder's {side} for {identity} is not symmetric in x_1..x_{sizes[0]}"
        ) from None
    passed = lhs_coords == rhs_coords
    witness = None
    if not passed and opts.get("fast_trials", 0) > 0:
        lhs_at, rhs_at = partial(_subset_sum_at, *lhs), partial(_subset_sum_at, *rhs)
        witness = fast_check(lhs_at, rhs_at, universe, opts["fast_trials"], opts.get("seed", 0))
    scale = factorial(universe.n_x)
    return IdentityReport(
        identity=identity,
        params=params,
        verdict="pass" if passed else "fail",
        witness=witness,
        elapsed=time.perf_counter() - started,
        lhs_terms=scale * lhs_coords.num_terms,
        rhs_terms=scale * rhs_coords.num_terms,
    )


def _as_lam(lam) -> tuple[int, ...]:
    lam = tuple(int(v) for v in lam)
    if any(a < b for a, b in zip(lam, lam[1:])) or (lam and lam[-1] < 0):
        raise PreconditionViolatedError(
            f"{lam} is not a weakly decreasing nonnegative sequence"
        )
    return lam


def _one_plus_bx(universe: VariableUniverse, i: int) -> Polynomial:
    return universe.one() + universe.beta() * universe.x(i)


def _subset_sum_sides(U, lam, mu, builder, q, h=None, sign=1):
    """(U, G_mu's side, F's side) of the module docstring's identity in U."""
    n, k = U.n_x, len(lam)
    a = restrict(builder, Partition(lam), range(1, k + 1), U)
    if k == n:  # v is the identity and mu = lam: one build, and F is G_mu
        side = ((a,), (n,))
        return U, side, side
    if mu and mu[-1] < 0:  # no tableaux: V*G_mu is det(f_j(x_i))
        lhs = (determinant_columns(mu, n, U), (1,) * n)
    else:
        lhs = ((builder(mu, n, universe=U),), (n,))
    if h is not None:
        a = a * poly_prod(U, (h(i) for i in range(1, k + 1)))
    signs = (sign,) + (1,) * (n - k - 1)
    columns = [U.monomial(e, {f"x{j}": n - j}) * q(j) for j, e in enumerate(signs, k + 1)]
    return U, lhs, ((a, *columns), (k,) + (1,) * (n - k))


# --------------------------------------------------------------------------
# Gustafson-Milne family


def _gm_sides(lam, n, builder):
    """The GM-type sides: mu = (lam_i - n + k), h = 1, q = (1+b x)^k."""
    k = len(lam)
    if not 0 <= k <= n or n < 1:
        raise PreconditionViolatedError(f"need 0 <= k <= n, got k={k}, n={n}")
    mu = tuple(part - n + k for part in lam)
    # a negative mu's zero-padded columns reach [x|y]^(n-k-1)
    n_y = max(lam[0] + k - 1 if lam else 0, n - k - 1 if mu and mu[-1] < 0 else 0)
    U = VariableUniverse(n, n_y)
    return _subset_sum_sides(U, lam, mu, builder, q=lambda j: _one_plus_bx(U, j) ** k)


def _gm_case(lam, n, builder):
    lam = _as_lam(lam)
    return {"lam": list(lam), "n": n, "k": len(lam)}, *_gm_sides(lam, n, builder)


def verify_gm_type(lam: Sequence[int], n: int, *, builder=g_tableau, **opts) -> IdentityReport:
    """G_{(lam_i - n + k)}(x|y) = sum_S G_lam(x_S|y) prod_{j notin S}(1+b x_j)^k / cross(S).

    When lam_k - n + k < 0, mu has no tableaux, and whatever the builder
    G_mu := det(f_j(x_i)) / V, f_j(x) = [x|y]^{mu_j+n-j} (1+b x)^{j-1}, the
    determinant quotient of the zero-padded mu: a multiple of beta (-b at
    lam=(0), n=2, k=1) that vanishes at beta = 0, where the numerator has two
    equal columns (the classical convention of the classical_gm tag).
    """
    return run_case("gm_type", {"lam": lam, "n": n}, builder=builder, **opts)


def _good_case(n, builder):
    if n < 1:
        raise PreconditionViolatedError("n must be positive")
    return {"n": n}, *_gm_sides((n - 1,), n, builder)


def verify_good_general(n: int, *, builder=g_tableau, **opts) -> IdentityReport:
    """1 = sum_i [x_i|y]^{n-1} prod_{j != i} (1+b x_j)/(x_i - x_j), cleared by V:
    the GM-type identity at lam = (n-1,)."""
    return run_case("good_general", {"n": n}, builder=builder, **opts)


def _louck_case(m, n, builder):
    if n < 1 or m < n - 1:
        raise PreconditionViolatedError(f"need m >= n-1 >= 0, got m={m}, n={n}")
    return {"m": m, "n": n}, *_gm_sides((m,), n, builder)


def verify_louck_general(m: int, n: int, *, builder=g_tableau, **opts) -> IdentityReport:
    """h_{m-n+1}(x|y) = sum_i [x_i|y]^m prod_{j != i} (1+b x_j)/(x_i - x_j):
    the GM-type identity at lam = (m,).

    The complete-homogeneous left side is realized as the single-row
    polynomial G_{(m-n+1)}(x|y); requires m >= n-1.
    """
    return run_case("louck_general", {"m": m, "n": n}, builder=builder, **opts)


# --------------------------------------------------------------------------
# Feher-Nemethi-Rimanyi family


def _fnr_sides(lam, m, n, builder):
    """The FNR-type sides: mu = (m-k,...,m-k, lam), h = (1+b x)^{n-k},
    q = [x|y]^m, sign (-1)^{k(n-k)}."""
    k = len(lam)
    if not 0 <= k <= n or n < 1:
        raise PreconditionViolatedError(f"need 0 <= k <= n, got k={k}, n={n}")
    if m < k:
        raise PreconditionViolatedError(f"need m >= k, got m={m}, k={k}")
    if lam and lam[0] > m - k:
        raise PreconditionViolatedError(
            f"identity asserted only for lam_1 <= m-k (got lam_1={lam[0]}, m-k={m - k})"
        )
    U = VariableUniverse(n, max(m + n - k - 1, 0))
    h, q = lambda i: _one_plus_bx(U, i) ** (n - k), lambda j: U.bracket_pow(j, m)
    mu = (m - k,) * (n - k) + lam
    return _subset_sum_sides(U, lam, mu, builder, q, h, (-1) ** (k * (n - k)))


def _fnr_case(lam, m, n, builder):
    lam = _as_lam(lam)
    return {"lam": list(lam), "m": m, "n": n, "k": len(lam)}, *_fnr_sides(lam, m, n, builder)


def verify_fnr_type(
    lam: Sequence[int], m: int, n: int, *, builder=g_tableau, **opts
) -> IdentityReport:
    """G_mu(x|y) = sum_S G_lam(x_S|y) prod_{i in S}(1+b x_i)^{n-k}
    prod_{j notin S}[x_j|y]^m / prod(x_j - x_i), with
    mu = (m-k,...,m-k, lam_1..lam_k) and lam_1 <= m-k required."""
    return run_case("fnr_type", {"lam": lam, "m": m, "n": n}, builder=builder, **opts)


def _good_k_case(n, k, builder):
    if not 0 <= k <= n or n < 1:
        raise PreconditionViolatedError(f"need 0 <= k <= n, got k={k}, n={n}")
    return {"n": n, "k": k}, *_fnr_sides((0,) * k, k, n, builder)


def verify_good_k_general(n: int, k: int, *, builder=g_tableau, **opts) -> IdentityReport:
    """1 = sum_S prod_{i in S}(1+b x_i)^{n-k} prod_{j notin S}[x_j|y]^k / prod(x_j - x_i):
    the FNR-type identity at lam = 0^k, m = k."""
    return run_case("good_k_general", {"n": n, "k": k}, builder=builder, **opts)


# --------------------------------------------------------------------------
# determinant lemma and the deformed elementary symmetric recurrence


def _vandermonde_case(n, builder):
    if n < 1:
        raise PreconditionViolatedError("n must be positive")
    U = VariableUniverse(n, max(n - 1, 0))
    return {"n": n}, U, (determinant_columns((), n, U), (1,) * n), ((U.one(),), (n,))


def verify_vandermonde_lemma(n: int, **opts) -> IdentityReport:
    """det([x_r|y]^{n-c} (1+b x_r)^{c-1})_{r,c} = prod_{i<j}(x_i - x_j).

    The left side is read from the numerator's diagonal columns f_c(x_c) at
    lam = empty, in n blocks of one x (the Leibniz formula), and the right
    side V from ((1,), (n,)); no determinant is expanded.  Each counts n! terms.
    """
    return run_case("vandermonde_lemma", {"n": n}, **opts)


def e_beta(k: int, n: int, universe: VariableUniverse | None = None) -> Polynomial:
    """Deformed elementary symmetric polynomial
    sum over k-subsets S of [n] of y_S * prod_{j notin S}(1 + b y_j);
    zero unless 0 <= k <= n, and e_k(y) at beta = 0."""
    U = universe if universe is not None else VariableUniverse(0, n)
    if n > U.n_y:
        raise ValueError(f"need n_y >= {n}")
    if k < 0 or k > n:
        return U.zero()
    terms = []
    for S in combinations(range(1, n + 1), k):
        inside = poly_prod(U, (U.y(j) for j in S))
        outside = poly_prod(
            U, (U.one() + U.beta() * U.y(j) for j in _complement(S, n))
        )
        terms.append(inside * outside)
    return poly_sum(U, terms)


def _e_beta_case(k, n, builder):
    if n < 1:
        raise PreconditionViolatedError("n must be positive")
    U = VariableUniverse(0, n)
    rhs = (U.one() + U.beta() * U.y(n)) * e_beta(k, n - 1, U) + U.y(n) * e_beta(k - 1, n - 1, U)
    return {"k": k, "n": n}, U, ((e_beta(k, n, U),), (0,)), ((rhs,), (0,))


def verify_e_beta_recurrence(k: int, n: int, **opts) -> IdentityReport:
    """E_k(Y_n) = (1 + b y_n) E_k(Y_{n-1}) + y_n E_{k-1}(Y_{n-1})."""
    return run_case("e_beta_recurrence", {"k": k, "n": n}, **opts)


def _good_reciprocal_witness(n: int, trials: int, seed: int) -> RationalPoint | None:
    """Check 1 = sum_i prod_{j != i} 1/(1 - x_i/x_j), the subset sum at k = 1 of
    F = (-1)^{n-1} x_2...x_n, at random rational points with distinct nonzero x."""
    rng = random.Random(seed)
    U = VariableUniverse(n, 0)
    F = poly_prod(U, (-U.x(j) for j in range(2, n + 1)))
    for _ in range(trials):
        while True:
            pt = random_rational_point(U, rng, distinct_x=True)
            if all(pt.xs):
                break
        if _subset_sum_at((U.one(), F), (1, n - 1), pt) != 1:
            return pt
    return None


# --------------------------------------------------------------------------
# the default verification grid


def _weakly_decreasing(k: int, maxpart: int):
    return combinations_with_replacement(range(maxpart, -1, -1), k)


def grid_vandermonde(max_n: int = 5):
    return [("vandermonde_lemma", {"n": n}) for n in range(1, max_n + 1)]


def grid_gm_type(ns=(2, 3, 4), max_part: int = 3):
    cases = []
    for n in ns:
        for k in range(1, n + 1):
            for lam in _weakly_decreasing(k, max_part):
                cases.append(("gm_type", {"lam": list(lam), "n": n}))
    return cases


def grid_fnr_type(ns=(2, 3, 4), max_m: int = 4):
    cases = []
    for n in ns:
        for k in range(1, n + 1):
            for m in range(k, max_m + 1):
                for lam in _weakly_decreasing(k, m - k):
                    cases.append(("fnr_type", {"lam": list(lam), "m": m, "n": n}))
    return cases


def grid_corollaries():
    cases = []
    cases += [("good_general", {"n": n}) for n in range(1, 6)]
    cases += [
        ("louck_general", {"m": m, "n": n})
        for n in range(1, 5)
        for m in range(max(n - 1, 0), 6)
    ]
    cases += [
        ("good_k_general", {"n": n, "k": k}) for n in range(1, 6) for k in range(n + 1)
    ]
    cases += [
        ("e_beta_recurrence", {"k": k, "n": n})
        for n in range(1, 7)
        for k in range(n + 1)
    ]
    return cases


def grid_classical(seed: int = 0):
    cases = []
    for _, params in grid_gm_type():
        cases.append(("classical_gm", params))
    for _, params in grid_fnr_type():
        cases.append(("classical_fnr", params))
    cases += [
        ("classical_good", {"n": n, "trials": 100, "seed": seed}) for n in (2, 3, 4)
    ]
    cases.append(("classical_louck", {"m": 3, "n": 2}))
    return cases


def suite_cases(seed: int = 0):
    """The full default grid, in suite order."""
    return (
        grid_vandermonde()
        + grid_gm_type()
        + grid_fnr_type()
        + grid_corollaries()
        + grid_classical(seed)
    )


# --------------------------------------------------------------------------
# the identity table

# tag -> (case, parameter names in positional order); a classical tag maps to
# the general tag whose sides it specializes.  A case checks its parameters and
# returns the report params, the universe and the two sides, each
# (factors, block sizes).
_IDENTITIES = {
    "gm_type": (_gm_case, ("lam", "n")),
    "fnr_type": (_fnr_case, ("lam", "m", "n")),
    "vandermonde_lemma": (_vandermonde_case, ("n",)),
    "e_beta_recurrence": (_e_beta_case, ("k", "n")),
    "good_general": (_good_case, ("n",)),
    "louck_general": (_louck_case, ("m", "n")),
    "good_k_general": (_good_k_case, ("n", "k")),
    "classical_gm": "gm_type",
    "classical_good": "good_general",
    "classical_louck": "louck_general",
    "classical_fnr": "fnr_type",
}

IDENTITY_TAGS = tuple(_IDENTITIES)


def _case(identity: str, params: dict, builder):
    """(report params, universe, lhs, rhs) of a tag's case, each side
    (factors, block sizes), one object for both at k = n; params must name
    exactly the tag's parameters (and for classical_good, optionally the
    trials and seed of its reciprocal form)."""
    entry = _IDENTITIES.get(identity)
    if entry is None:
        raise PreconditionViolatedError(f"unknown identity {identity!r}")
    case, names = _IDENTITIES[entry] if isinstance(entry, str) else entry
    missing = [name for name in names if name not in params]
    taken = names + (("trials", "seed") if identity == "classical_good" else ())
    extra = [name for name in params if name not in taken]
    for wrong, problem in ((missing, "needs"), (extra, "does not take")):
        if wrong:
            flags = ", ".join("--" + name.replace("lam", "shape") for name in wrong)
            raise PreconditionViolatedError(f"{identity} {problem} {flags}")
    out, U, lhs, rhs = case(*(params[name] for name in names), builder)
    if isinstance(entry, str):  # specialize each factor once; at k = n lhs is rhs
        same = lhs is rhs
        rhs = (tuple(classical_image(f) for f in rhs[0]), rhs[1])
        lhs = rhs if same else (tuple(classical_image(f) for f in lhs[0]), lhs[1])
    return out, U, lhs, rhs


def run_case(identity: str, params: dict, *, builder=g_tableau, **opts) -> IdentityReport:
    """Verify one case of a tag in IDENTITY_TAGS, with params as in the grids.

    A classical tag is the beta = 0, y = 0 image of its general case: each
    factor of each side is specialized before the sides are compared and
    counted; d_v and V hold neither beta nor y, so the counts are those of
    the specialized cleared sides.  classical_good also checks the
    reciprocal form 1 = sum_i prod_{j != i} (1 - x_i/x_j)^{-1} at seeded
    random rational points with distinct nonzero coordinates.
    """
    started = time.perf_counter()
    out, *sides = _case(identity, params, builder)
    if identity != "classical_good":
        return _finish(identity, out, *sides, started, opts)
    n, trials = params["n"], params.get("trials", 100)
    seed = params.get("seed", opts.get("seed", 0))
    report = _finish(identity, {"n": n, "trials": trials, "seed": seed}, *sides, started, opts)
    witness = _good_reciprocal_witness(n, trials, seed)
    if witness is not None and report.passed:
        elapsed = time.perf_counter() - started
        report = replace(report, verdict="fail", witness=witness, elapsed=elapsed)
    return report


def run_suite(*, seed: int = 0, fast_trials: int = 0):
    """Run the whole default grid; returns the reports in grid order."""
    return [
        run_case(identity, params, seed=seed, fast_trials=fast_trials)
        for identity, params in suite_cases(seed)
    ]
