"""Exact verification of the subset-sum identity family.

Every identity here relates a factorial Grothendieck polynomial G_mu to a
sum over k-subsets S of [n] of sigma_S(F) / prod_{i in S, j notin S}(x_i - x_j),
where sigma_S relabels x_1..x_k onto x_S and x_{k+1}..x_n onto the
complement of S, both in increasing order, and F is G_lam(x_1..x_k|y) times
a product symmetric in x_1..x_k and in x_{k+1}..x_n:

    GM:  F = G_lam(x_1..x_k|y) * prod_{j>k}(1+b x_j)^k
    FNR: F = (-1)^{k(n-k)} G_lam(x_1..x_k|y) * prod_{i<=k}(1+b x_i)^{n-k}
             * prod_{j>k}[x_j|y]^m

(the sign turns the FNR cross product (x_j - x_i) into (x_i - x_j)).  For
such an F the subset sum is the divided difference d_v F, with v the
longest minimal coset representative of S_n/(S_k x S_{n-k}): the Gysin
formula of a Grassmannian bundle (Fulton-Pragacz, Schubert Varieties and
Degeneracy Loci, LNM 1689).  d_v is k(n-k) Newton divided differences,
d_r, d_{r+1}, ..., d_{r+n-k-1} for r = k, k-1, ..., 1, in that order, and
each is computed termwise, so a verdict is the structural comparison
G_mu == d_v F in the polynomial ring: no rational-function arithmetic, no
Vandermonde product and no sum over subsets.

G_lam(x|y) is symmetric in x, and the equality rests on it: a builder whose
G_lam(x_1..x_k) fails k-1 adjacent swaps raises PreconditionViolatedError.
d_v F is symmetric, so a G_mu that is not symmetric always fails; only a
failing verdict checks G_mu, and raises the same error.

Reports count the terms of the cleared sides V*G_mu and V*d_v F, with
V = prod_{i<j}(x_i - x_j).  Both products are alternating, so
alternant_terms reads their counts from the uncleared sides without forming
them (Macdonald, Symmetric Functions, I.3).

The corollaries are parameter maps into the two families: Good's identity
is the GM-type identity at lam = (n-1,), Louck's at lam = (m,), and Good's
k-subset identity the FNR-type identity at lam = 0^k, m = k.  One table
maps each identity tag to its verifier and parameter names (each classical
tag to the general tag it specializes); run_case dispatches through it.

When the compared sides differ and fast_trials > 0, both are evaluated at
up to fast_trials seeded random rational points with distinct x's and the
first disagreement is reported as a witness; V vanishes at none of them, so
the witness is that of the cleared sides.  Sampling never changes a verdict.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import combinations, combinations_with_replacement
from typing import Sequence

from .grothendieck import determinant_numerator, g_determinant, g_tableau, restrict
from .poly import (
    Polynomial,
    RationalPoint,
    VariableUniverse,
    alternant_terms,
    determinant,
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
    """One verdict, decided by comparing the two sides held in ``sides``.

    For the GM and FNR families (and their corollaries and classical
    images) those are G_mu and d_v F, and ``denominator`` is the Vandermonde
    product V they were freed of; otherwise ``denominator`` is None and
    ``sides`` are the sides as stated.  lhs_terms and rhs_terms count the
    terms of the cleared sides.  ``lhs`` and ``rhs`` are the cleared sides
    themselves, multiplied out only when read.
    """

    identity: str
    params: dict
    verdict: str
    witness: RationalPoint | None
    elapsed: float
    lhs_terms: int
    rhs_terms: int
    sides: tuple[Polynomial, Polynomial]
    denominator: Polynomial | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def _cleared(self, side: Polynomial) -> Polynomial:
        return side if self.denominator is None else side * self.denominator

    @cached_property
    def lhs(self) -> Polynomial:
        return self._cleared(self.sides[0])

    @cached_property
    def rhs(self) -> Polynomial:
        return self._cleared(self.sides[1])

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
    lhs: Polynomial,
    rhs: Polynomial,
    universe: VariableUniverse,
    trials: int,
    seed: int = 0,
) -> RationalPoint | None:
    """Evaluate both sides at seeded random rational points with distinct x
    coordinates; return the first witness of disagreement, else None.  The
    verifiers call it only to explain a failed exact comparison."""
    rng = random.Random(seed)
    for _ in range(trials):
        pt = random_rational_point(universe, rng, distinct_x=True)
        if lhs.eval_rational(pt) != rhs.eval_rational(pt):
            return pt
    return None


def _is_symmetric(p: Polynomial, k: int) -> bool:
    """Whether p is symmetric in x_1..x_k (k - 1 adjacent swaps)."""
    return all(p.swap_x(i, i + 1) == p for i in range(1, k))


def _symmetric_g(builder, lam, universe: VariableUniverse) -> Polynomial:
    """G_lam(x_1..x_k|y) from the builder, which must be symmetric in x_1..x_k."""
    k = len(lam)
    g = restrict(builder, Partition(lam), range(1, k + 1), universe)
    if not _is_symmetric(g, k):
        raise PreconditionViolatedError(
            f"the builder's G_lam for lam={list(lam)} is not symmetric in x_1..x_{k}"
        )
    return g


def _finish(identity, params, universe, lhs, rhs, V, started, opts) -> IdentityReport:
    """Compare the sides and report; V is the denominator the sides were
    freed of (None for sides as stated)."""
    passed = lhs == rhs
    if V is None:
        lhs_terms, rhs_terms = lhs.num_terms, rhs.num_terms
    else:
        n = universe.n_x
        # d_v F is symmetric, so only a failing verdict can have a non-symmetric G_mu
        if not passed and not _is_symmetric(lhs, n):
            raise PreconditionViolatedError(
                f"the builder's G_mu for {identity} is not symmetric in x_1..x_{n}"
            )
        rhs_terms = alternant_terms(rhs, n)
        lhs_terms = rhs_terms if passed else alternant_terms(lhs, n)
    witness = None
    if not passed and opts.get("fast_trials", 0) > 0:
        witness = fast_check(lhs, rhs, universe, opts["fast_trials"], opts.get("seed", 0))
    return IdentityReport(
        identity=identity,
        params=params,
        verdict="pass" if passed else "fail",
        witness=witness,
        elapsed=time.perf_counter() - started,
        lhs_terms=lhs_terms,
        rhs_terms=rhs_terms,
        sides=(lhs, rhs),
        denominator=V,
    )


def _as_lam(lam) -> tuple[int, ...]:
    lam = tuple(int(v) for v in lam)
    if any(a < b for a, b in zip(lam, lam[1:])) or (lam and lam[-1] < 0):
        raise PreconditionViolatedError(
            f"{lam} is not a weakly decreasing nonnegative sequence"
        )
    return lam


# --------------------------------------------------------------------------
# Gustafson-Milne family


def _one_plus_bx(universe: VariableUniverse, i: int) -> Polynomial:
    return universe.one() + universe.beta() * universe.x(i)


def _push_forward(F: Polynomial, n: int, k: int) -> Polynomial:
    """d_v F, the sum over k-subsets S of sigma_S(F / prod_{i<=k<j}(x_i - x_j))
    for F symmetric in x_1..x_k and in x_{k+1}..x_n: d_r, d_{r+1}, ...,
    d_{r+n-k-1} for r = k, k-1, ..., 1 (the reversed order is wrong)."""
    for r in range(k, 0, -1):
        for i in range(r, r + n - k):
            F = F.divided_difference(i)
    return F


def _gm_sides(lam, n, builder):
    """(universe, G_mu, d_v F, V) with F = G_lam(x_1..x_k|y) prod_{j>k}(1+b x_j)^k."""
    k = len(lam)
    if not 0 <= k <= n or n < 1:
        raise PreconditionViolatedError(f"need 0 <= k <= n, got k={k}, n={n}")
    lam1 = lam[0] if lam else 0
    shifted = tuple(part - n + k for part in lam)
    zero_case = bool(k) and shifted[-1] < 0
    # the zero-padded columns of the determinant reach [x|y]^(n-k-1)
    U = VariableUniverse(n, max(lam1 + k - 1, n - k - 1 if zero_case else 0, 0))
    V = U.vandermonde(range(1, n + 1))
    g = _symmetric_g(builder, lam, U)
    if k == n:  # v is the identity and mu = lam: one build
        return U, g, g, V
    if zero_case:
        # no tableaux exist for a non-partition index: G is the determinant quotient
        lhs = g_determinant(shifted, n, universe=U)
    else:
        lhs = builder(shifted, n, universe=U)
    tail = poly_prod(U, (_one_plus_bx(U, j) ** k for j in range(k + 1, n + 1)))
    return U, lhs, _push_forward(g * tail, n, k), V


def verify_gm_type(lam: Sequence[int], n: int, *, builder=g_tableau, **opts) -> IdentityReport:
    """G_{(lam_i - n + k)}(x|y) = sum_S G_lam(x_S|y) prod_{j notin S}(1+b x_j)^k / cross(S).

    When lam_k - n + k < 0 the shifted index mu is not a partition and has
    no tableaux; the left side is then G_mu := g_determinant(mu, n), the
    determinant quotient of the zero-padded mu, whatever the builder.  It is
    a multiple of beta (-b at lam=(0), n=2, k=1) and vanishes at beta = 0,
    where the numerator has two equal columns: the classical convention,
    see verify_classical.
    """
    started = time.perf_counter()
    lam = _as_lam(lam)
    params = {"lam": list(lam), "n": n, "k": len(lam)}
    return _finish("gm_type", params, *_gm_sides(lam, n, builder), started, opts)


def verify_good_general(n: int, *, builder=g_tableau, **opts) -> IdentityReport:
    """1 = sum_i [x_i|y]^{n-1} prod_{j != i} (1+b x_j)/(x_i - x_j), cleared by V:
    the GM-type identity at lam = (n-1,)."""
    started = time.perf_counter()
    if n < 1:
        raise PreconditionViolatedError("n must be positive")
    return _finish("good_general", {"n": n}, *_gm_sides((n - 1,), n, builder), started, opts)


def verify_louck_general(m: int, n: int, *, builder=g_tableau, **opts) -> IdentityReport:
    """h_{m-n+1}(x|y) = sum_i [x_i|y]^m prod_{j != i} (1+b x_j)/(x_i - x_j):
    the GM-type identity at lam = (m,).

    The complete-homogeneous left side is realized as the single-row
    polynomial G_{(m-n+1)}(x|y); requires m >= n-1.
    """
    started = time.perf_counter()
    if n < 1 or m < n - 1:
        raise PreconditionViolatedError(f"need m >= n-1 >= 0, got m={m}, n={n}")
    sides = _gm_sides((m,), n, builder)
    return _finish("louck_general", {"m": m, "n": n}, *sides, started, opts)


# --------------------------------------------------------------------------
# Feher-Nemethi-Rimanyi family


def _fnr_sides(lam, m, n, builder):
    """(universe, G_mu, d_v F, V) with F = (-1)^{k(n-k)} G_lam(x_1..x_k|y)
    prod_{i<=k}(1+b x_i)^{n-k} prod_{j>k}[x_j|y]^m."""
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
    V = U.vandermonde(range(1, n + 1))
    g = _symmetric_g(builder, lam, U)
    if k == n:  # v is the identity and mu = lam: one build
        return U, g, g, V
    lhs = builder((m - k,) * (n - k) + tuple(lam), n, universe=U)
    head = poly_prod(U, (_one_plus_bx(U, i) ** (n - k) for i in range(1, k + 1)))
    tail = poly_prod(U, (U.bracket_pow(j, m) for j in range(k + 1, n + 1)))
    # the bracket product is by far the largest factor; multiply it last
    F = ((-g if k * (n - k) % 2 else g) * head) * tail
    return U, lhs, _push_forward(F, n, k), V


def verify_fnr_type(
    lam: Sequence[int], m: int, n: int, *, builder=g_tableau, **opts
) -> IdentityReport:
    """G_mu(x|y) = sum_S G_lam(x_S|y) prod_{i in S}(1+b x_i)^{n-k}
    prod_{j notin S}[x_j|y]^m / prod(x_j - x_i), with
    mu = (m-k,...,m-k, lam_1..lam_k) and lam_1 <= m-k required."""
    started = time.perf_counter()
    lam = _as_lam(lam)
    params = {"lam": list(lam), "m": m, "n": n, "k": len(lam)}
    return _finish("fnr_type", params, *_fnr_sides(lam, m, n, builder), started, opts)


def verify_good_k_general(n: int, k: int, *, builder=g_tableau, **opts) -> IdentityReport:
    """1 = sum_S prod_{i in S}(1+b x_i)^{n-k} prod_{j notin S}[x_j|y]^k / prod(x_j - x_i):
    the FNR-type identity at lam = 0^k, m = k."""
    started = time.perf_counter()
    if not 0 <= k <= n or n < 1:
        raise PreconditionViolatedError(f"need 0 <= k <= n, got k={k}, n={n}")
    sides = _fnr_sides((0,) * k, k, n, builder)
    return _finish("good_k_general", {"n": n, "k": k}, *sides, started, opts)


# --------------------------------------------------------------------------
# determinant lemma and the deformed elementary symmetric recurrence


def verify_vandermonde_lemma(n: int, **opts) -> IdentityReport:
    """det([x_r|y]^{n-c} (1+b x_r)^{c-1})_{r,c} = prod_{i<j}(x_i - x_j).

    The left side is g_determinant's numerator at lam = empty (exponents
    n - c), expanded in full.
    """
    started = time.perf_counter()
    if n < 1:
        raise PreconditionViolatedError("n must be positive")
    U = VariableUniverse(n, max(n - 1, 0))
    lhs = determinant(determinant_numerator(range(n - 1, -1, -1), U))
    rhs = U.vandermonde(range(1, n + 1))
    return _finish("vandermonde_lemma", {"n": n}, U, lhs, rhs, None, started, opts)


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


def verify_e_beta_recurrence(k: int, n: int, **opts) -> IdentityReport:
    """E_k(Y_n) = (1 + b y_n) E_k(Y_{n-1}) + y_n E_{k-1}(Y_{n-1})."""
    started = time.perf_counter()
    if n < 1:
        raise PreconditionViolatedError("n must be positive")
    U = VariableUniverse(0, n)
    lhs = e_beta(k, n, U)
    rhs = (U.one() + U.beta() * U.y(n)) * e_beta(k, n - 1, U) + U.y(n) * e_beta(
        k - 1, n - 1, U
    )
    params = {"k": k, "n": n}
    return _finish("e_beta_recurrence", params, U, lhs, rhs, None, started, opts)


# --------------------------------------------------------------------------
# classical specializations


def _classicalize(U: VariableUniverse, p: Polynomial) -> Polynomial:
    bindings = {"b": 0, **{f"y{j}": 0 for j in range(1, U.n_y + 1)}}
    return p.substitute(bindings)


def verify_classical(which: str, params: dict, *, builder=g_tableau, **opts) -> IdentityReport:
    """beta = 0 (and y = 0) instances of the four classical identities.

    Each substitutes into the compared sides of the corresponding general
    verifier, G_mu and d_v F; V holds neither beta nor y, so the verdict
    and the cleared term counts are those of the specialized cleared sides.
    classical_good additionally checks the reciprocal form
    1 = sum_i prod_{j != i} (1 - x_i/x_j)^{-1} at seeded random rational
    points with distinct nonzero coordinates.
    """
    started = time.perf_counter()
    if not isinstance(_IDENTITIES.get(which), str):
        raise PreconditionViolatedError(f"unknown classical identity {which!r}")
    verifier, args = _arguments(which, params)
    rep = verifier(*args, builder=builder)
    U, V = rep.sides[0].universe, rep.denominator
    lhs, rhs = (_classicalize(U, side) for side in rep.sides)
    if which != "classical_good":
        return _finish(which, rep.params, U, lhs, rhs, V, started, opts)
    n = params["n"]
    trials = params.get("trials", 100)
    seed = params.get("seed", opts.get("seed", 0))
    out_params = {"n": n, "trials": trials, "seed": seed}
    report = _finish(which, out_params, U, lhs, rhs, V, started, opts)
    witness = _good_reciprocal_witness(n, trials, seed)
    if witness is not None and report.verdict == "pass":
        report = replace(
            report, verdict="fail", witness=witness, elapsed=time.perf_counter() - started
        )
    return report


def _good_reciprocal_witness(n: int, trials: int, seed: int) -> RationalPoint | None:
    """Check 1 = sum_i prod_{j != i} 1/(1 - x_i/x_j) at random rational points."""
    rng = random.Random(seed)
    U = VariableUniverse(n, 0)
    for _ in range(trials):
        while True:
            pt = random_rational_point(U, rng, distinct_x=True)
            if all(v != 0 for v in pt.xs):
                break
        total = Fraction(0)
        for i in range(n):
            prod = Fraction(1)
            for j in range(n):
                if j != i:
                    prod /= 1 - Fraction(pt.xs[i], pt.xs[j])
            total += prod
        if total != 1:
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

# tag -> (verifier, parameter names in positional order); a classical tag
# maps to the general tag whose cleared sides it specializes
_IDENTITIES = {
    "gm_type": (verify_gm_type, ("lam", "n")),
    "fnr_type": (verify_fnr_type, ("lam", "m", "n")),
    "vandermonde_lemma": (verify_vandermonde_lemma, ("n",)),
    "e_beta_recurrence": (verify_e_beta_recurrence, ("k", "n")),
    "good_general": (verify_good_general, ("n",)),
    "louck_general": (verify_louck_general, ("m", "n")),
    "good_k_general": (verify_good_k_general, ("n", "k")),
    "classical_gm": "gm_type",
    "classical_good": "good_general",
    "classical_louck": "louck_general",
    "classical_fnr": "fnr_type",
}

IDENTITY_TAGS = tuple(_IDENTITIES)


def _arguments(identity: str, params: dict):
    """The general verifier behind a tag and its positional arguments from
    params, which must name exactly the tag's parameters (and for
    classical_good, optionally the trials and seed of its reciprocal form)."""
    entry = _IDENTITIES.get(identity)
    if entry is None:
        raise PreconditionViolatedError(f"unknown identity {identity!r}")
    verifier, names = _IDENTITIES[entry] if isinstance(entry, str) else entry
    missing = [name for name in names if name not in params]
    taken = names + (("trials", "seed") if identity == "classical_good" else ())
    extra = [name for name in params if name not in taken]
    for wrong, problem in ((missing, "needs"), (extra, "does not take")):
        if wrong:
            flags = ", ".join("--" + name.replace("lam", "shape") for name in wrong)
            raise PreconditionViolatedError(f"{identity} {problem} {flags}")
    return verifier, [params[name] for name in names]


def run_case(identity: str, params: dict, **opts) -> IdentityReport:
    verifier, args = _arguments(identity, params)
    if isinstance(_IDENTITIES[identity], str):
        return verify_classical(identity, params, **opts)
    return verifier(*args, **opts)


def run_suite(*, seed: int = 0, fast_trials: int = 0):
    """Run the whole default grid; returns the reports in grid order."""
    return [
        run_case(identity, params, seed=seed, fast_trials=fast_trials)
        for identity, params in suite_cases(seed)
    ]
