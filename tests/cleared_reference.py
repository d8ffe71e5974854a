"""The subset sum two ways: the references the GM/FNR verifiers are checked
against.

Each identity's right side, cleared by V = prod_{i<j}(x_i - x_j), is the sum
over k-subsets S of [n] of sign(S) * cofactor(S) * sigma_S(F), where
V = sign(S) * cofactor(S) * cross(S) (clear_denominator_gm/_fnr).  Uncleared,
it is the push-forward d_v F, taken here as k(n-k) Newton divided
differences.  Neither shares code with alternant_coords, which the verifiers
use to read the alternant coordinates of V * d_v F off F's two factors.
"""

from __future__ import annotations

from typing import Sequence

from grothpoly import (
    Partition,
    Polynomial,
    VariableUniverse,
    clear_denominator_fnr,
    clear_denominator_gm,
    g_tableau,
    poly_prod,
    restrict,
)
from grothpoly.identities import _complement, _one_plus_bx


def push_forward(F: Polynomial, n: int, k: int) -> Polynomial:
    """d_v F, the sum over k-subsets S of sigma_S(F / prod_{i<=k<j}(x_i - x_j))
    for F symmetric in x_1..x_k and in x_{k+1}..x_n: d_r, d_{r+1}, ...,
    d_{r+n-k-1} for r = k, k-1, ..., 1 (the reversed order is wrong)."""
    for r in range(k, 0, -1):
        for i in range(r, r + n - k):
            F = F.divided_difference(i)
    return F


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
