"""Exact verification of the subset-sum identity family.

Every identity here relates a factorial Grothendieck polynomial to a sum
over k-subsets S of [n] of restricted polynomials divided by the cross
product of (x_i - x_j) over i in S, j outside.  Verification clears all
denominators by multiplying both sides with the full Vandermonde product
V = prod_{i<j}(x_i - x_j), split per subset as

    V = sign(S) * cofactor(S) * cross(S)

with cofactor(S) the product of the two internal Vandermonde products of S
and its complement; the sign depends on the orientation of the cross
product ((x_i - x_j) for the Gustafson-Milne family, (x_j - x_i) for the
Feher-Nemethi-Rimanyi family).  Both sides then live in the polynomial
ring and are compared structurally; no rational-function arithmetic exists
anywhere in the package.

Only the cleared term of S0 = {1..k} is built.  The x-relabel sigma_S that
sends x_1..x_k onto x_S and x_{k+1}..x_n onto the complement of S, both in
increasing order, carries G_lam(x_S0|y) to G_lam(x_S|y) (restrict's own
relabel), each internal Vandermonde product of S0 and of its complement to
that of S and of its complement, and the products over S0 and over its
complement to those over S and over its complement; the y's stay put.  So
term(S) = sign(S) * sign(S0) * sigma_S(term(S0)) exactly, whatever the
builder, and relabel_x_sum adds up these relabels without multiplying.

The corollaries are parameter maps into the two families: Good's identity
is the GM-type identity at lam = (n-1,), Louck's at lam = (m,), and Good's
k-subset identity the FNR-type identity at lam = 0^k, m = k.  One table
maps each identity tag to its verifier and parameter names (each classical
tag to the general tag it specializes); run_case dispatches through it.

Every verdict is the structural comparison of the cleared sides.  When they
differ and fast_trials > 0, both are evaluated at up to fast_trials seeded
random rational points and the first disagreement is reported as a witness;
sampling never changes a verdict.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Sequence

from .grothendieck import determinant_numerator, g_determinant, g_tableau, restrict
from .poly import (
    Polynomial,
    RationalPoint,
    VariableUniverse,
    determinant,
    poly_prod,
    poly_sum,
    random_rational_point,
    relabel_x_sum,
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


def _sum_over_subsets(
    universe: VariableUniverse, term0: Polynomial, n: int, k: int, sign_of
) -> Polynomial:
    """Sum of the cleared terms over all k-subsets S of [n], from the term of
    S0 = {1..k} alone: term(S) = sign(S) * sign(S0) * sigma_S(term(S0))."""
    if k in (0, n):
        return term0
    sign0 = sign_of(range(1, k + 1), n, k)
    maps = [
        (sign_of(S, n, k) * sign0, S + _complement(S, n))
        for S in combinations(range(1, n + 1), k)
    ]
    return relabel_x_sum(universe, term0, maps)


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


def cross_product(
    S: Sequence[int], n: int, universe: VariableUniverse, *, reversed_sign: bool = False
) -> Polynomial:
    """prod over i in S, j in complement of (x_i - x_j), or (x_j - x_i) when reversed."""
    out = universe.one()
    for i in sorted(S):
        for j in _complement(S, n):
            d = universe.x(i) - universe.x(j)
            out = out * (-d if reversed_sign else d)
    return out


# --------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    params: dict
    lhs: Polynomial
    rhs: Polynomial
    verdict: str
    witness: RationalPoint | None
    elapsed: float

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_obj(self) -> dict:
        return {
            "identity": self.identity,
            "params": self.params,
            "verdict": self.verdict,
            "elapsed_ms": int(self.elapsed * 1000),
            "lhs_terms": self.lhs.num_terms,
            "rhs_terms": self.rhs.num_terms,
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


def _finish(identity, params, universe, lhs, rhs, started, opts) -> IdentityReport:
    passed = lhs == rhs
    witness = None
    if not passed and opts.get("fast_trials", 0) > 0:
        witness = fast_check(lhs, rhs, universe, opts["fast_trials"], opts.get("seed", 0))
    return IdentityReport(
        identity=identity,
        params=params,
        lhs=lhs,
        rhs=rhs,
        verdict="pass" if passed else "fail",
        witness=witness,
        elapsed=time.perf_counter() - started,
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


def gm_cleared_term(
    lam: Sequence[int],
    n: int,
    S: Sequence[int],
    universe: VariableUniverse,
    builder=g_tableau,
) -> Polynomial:
    """sign(S) * cofactor(S) * G_lam(x_S|y) * prod_{j notin S}(1+b x_j)^k."""
    k = len(lam)
    sign, cof = clear_denominator_gm(S, n, k, universe)
    g_s = restrict(builder, Partition(lam), S, universe)
    tail = poly_prod(
        universe, (_one_plus_bx(universe, j) ** k for j in _complement(S, n))
    )
    return g_s * tail * (cof if sign > 0 else -cof)


def _gm_sides(lam, n, builder):
    k = len(lam)
    if not 0 <= k <= n or n < 1:
        raise PreconditionViolatedError(f"need 0 <= k <= n, got k={k}, n={n}")
    lam1 = lam[0] if lam else 0
    shifted = tuple(part - n + k for part in lam)
    zero_case = bool(k) and shifted[-1] < 0
    # the zero-padded columns of the determinant reach [x|y]^(n-k-1)
    U = VariableUniverse(n, max(lam1 + k - 1, n - k - 1 if zero_case else 0, 0))
    V = U.vandermonde(range(1, n + 1))
    if zero_case:
        # no tableaux exist for a non-partition index: G is the determinant quotient
        lhs = g_determinant(shifted, n, universe=U) * V
    else:
        lhs = builder(shifted, n, universe=U) * V
    term0 = gm_cleared_term(lam, n, range(1, k + 1), U, builder)
    rhs = _sum_over_subsets(U, term0, n, k, _gm_sign)
    return U, lhs, rhs


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
    U, lhs, rhs = _gm_sides(lam, n, builder)
    params = {"lam": list(lam), "n": n, "k": len(lam)}
    return _finish("gm_type", params, U, lhs, rhs, started, opts)


def verify_good_general(n: int, *, builder=g_tableau, **opts) -> IdentityReport:
    """1 = sum_i [x_i|y]^{n-1} prod_{j != i} (1+b x_j)/(x_i - x_j), cleared by V:
    the GM-type identity at lam = (n-1,)."""
    started = time.perf_counter()
    if n < 1:
        raise PreconditionViolatedError("n must be positive")
    U, lhs, rhs = _gm_sides((n - 1,), n, builder)
    return _finish("good_general", {"n": n}, U, lhs, rhs, started, opts)


def verify_louck_general(m: int, n: int, *, builder=g_tableau, **opts) -> IdentityReport:
    """h_{m-n+1}(x|y) = sum_i [x_i|y]^m prod_{j != i} (1+b x_j)/(x_i - x_j):
    the GM-type identity at lam = (m,).

    The complete-homogeneous left side is realized as the single-row
    polynomial G_{(m-n+1)}(x|y); requires m >= n-1.
    """
    started = time.perf_counter()
    if n < 1 or m < n - 1:
        raise PreconditionViolatedError(f"need m >= n-1 >= 0, got m={m}, n={n}")
    U, lhs, rhs = _gm_sides((m,), n, builder)
    return _finish("louck_general", {"m": m, "n": n}, U, lhs, rhs, started, opts)


# --------------------------------------------------------------------------
# Feher-Nemethi-Rimanyi family


def fnr_cleared_term(
    lam: Sequence[int],
    m: int,
    n: int,
    S: Sequence[int],
    universe: VariableUniverse,
    builder=g_tableau,
) -> Polynomial:
    """sign(S) * cofactor(S) * G_lam(x_S|y) * prod_{i in S}(1+b x_i)^{n-k}
    * prod_{j notin S}[x_j|y]^m (cross product oriented (x_j - x_i))."""
    k = len(lam)
    sign, cof = clear_denominator_fnr(S, n, k, universe)
    g_s = restrict(builder, Partition(lam), S, universe)
    head = poly_prod(universe, (_one_plus_bx(universe, i) ** (n - k) for i in S))
    tail = poly_prod(universe, (universe.bracket_pow(j, m) for j in _complement(S, n)))
    # the bracket product is by far the largest factor; multiply it last
    return (g_s * head * (cof if sign > 0 else -cof)) * tail


def _fnr_sides(lam, m, n, builder):
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
    mu = (m - k,) * (n - k) + tuple(lam)
    lhs = builder(mu, n, universe=U) * V
    term0 = fnr_cleared_term(lam, m, n, range(1, k + 1), U, builder)
    rhs = _sum_over_subsets(U, term0, n, k, _fnr_sign)
    return U, lhs, rhs


def verify_fnr_type(
    lam: Sequence[int], m: int, n: int, *, builder=g_tableau, **opts
) -> IdentityReport:
    """G_mu(x|y) = sum_S G_lam(x_S|y) prod_{i in S}(1+b x_i)^{n-k}
    prod_{j notin S}[x_j|y]^m / prod(x_j - x_i), with
    mu = (m-k,...,m-k, lam_1..lam_k) and lam_1 <= m-k required."""
    started = time.perf_counter()
    lam = _as_lam(lam)
    U, lhs, rhs = _fnr_sides(lam, m, n, builder)
    params = {"lam": list(lam), "m": m, "n": n, "k": len(lam)}
    return _finish("fnr_type", params, U, lhs, rhs, started, opts)


def verify_good_k_general(n: int, k: int, *, builder=g_tableau, **opts) -> IdentityReport:
    """1 = sum_S prod_{i in S}(1+b x_i)^{n-k} prod_{j notin S}[x_j|y]^k / prod(x_j - x_i):
    the FNR-type identity at lam = 0^k, m = k."""
    started = time.perf_counter()
    if not 0 <= k <= n or n < 1:
        raise PreconditionViolatedError(f"need 0 <= k <= n, got k={k}, n={n}")
    U, lhs, rhs = _fnr_sides((0,) * k, k, n, builder)
    return _finish("good_k_general", {"n": n, "k": k}, U, lhs, rhs, started, opts)


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
    return _finish("vandermonde_lemma", {"n": n}, U, lhs, rhs, started, opts)


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
    return _finish("e_beta_recurrence", {"k": k, "n": n}, U, lhs, rhs, started, opts)


# --------------------------------------------------------------------------
# classical specializations


def _classicalize(U: VariableUniverse, p: Polynomial) -> Polynomial:
    bindings = {"b": 0, **{f"y{j}": 0 for j in range(1, U.n_y + 1)}}
    return p.substitute(bindings)


def verify_classical(which: str, params: dict, *, builder=g_tableau, **opts) -> IdentityReport:
    """beta = 0 (and y = 0) instances of the four classical identities.

    Each substitutes into the cleared sides of the corresponding general
    verifier; classical_good additionally checks the reciprocal form
    1 = sum_i prod_{j != i} (1 - x_i/x_j)^{-1} at seeded random rational
    points with distinct nonzero coordinates.
    """
    started = time.perf_counter()
    if not isinstance(_IDENTITIES.get(which), str):
        raise PreconditionViolatedError(f"unknown classical identity {which!r}")
    verifier, args = _arguments(which, params)
    rep = verifier(*args, builder=builder)
    U = rep.lhs.universe
    lhs, rhs = _classicalize(U, rep.lhs), _classicalize(U, rep.rhs)
    if which != "classical_good":
        return _finish(which, rep.params, U, lhs, rhs, started, opts)
    n = params["n"]
    trials = params.get("trials", 100)
    seed = params.get("seed", opts.get("seed", 0))
    out_params = {"n": n, "trials": trials, "seed": seed}
    report = _finish(which, out_params, U, lhs, rhs, started, opts)
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
