"""Shared test utilities: independent oracles and random generators.

The oracles here deliberately avoid the library's own machinery: the SSYT
generator fills cells with plain integers by brute force, and the Schur and
elementary-symmetric oracles build monomial dicts directly.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

from grothpoly import (
    Polynomial,
    VariableUniverse,
    enumerate_tableaux,
    g_tableau,
    identities,
    poly_prod,
    poly_sum,
    weight,
)
from cleared_reference import push_forward


def brute_force_ssyt(shape: tuple[int, ...], n: int) -> list[list[list[int]]]:
    """All semistandard fillings of the shape with entries in [n].

    Rows weakly increase, columns strictly increase; plain nested-loop
    backtracking over integer entries, no subset machinery.
    """
    shape = tuple(p for p in shape if p)
    cells = [(i, j) for i, part in enumerate(shape) for j in range(part)]
    results: list[list[list[int]]] = []
    grid = [[0] * part for part in shape]

    def rec(idx: int) -> None:
        if idx == len(cells):
            results.append([row[:] for row in grid])
            return
        i, j = cells[idx]
        lo = 1
        if j > 0:
            lo = max(lo, grid[i][j - 1])
        if i > 0:
            lo = max(lo, grid[i - 1][j] + 1)
        for v in range(lo, n + 1):
            grid[i][j] = v
            rec(idx + 1)
        grid[i][j] = 0

    rec(0)
    return results


def schur_oracle(shape: tuple[int, ...], n: int, universe: VariableUniverse) -> Polynomial:
    """Schur polynomial as the monomial sum x^T over brute-force SSYT."""
    out = universe.zero()
    for filling in brute_force_ssyt(shape, n):
        term = universe.one()
        for row in filling:
            for v in row:
                term = term * universe.x(v)
        out = out + term
    return out


def tableau_stream_sum(shape, n: int, universe: VariableUniverse) -> Polynomial:
    """G_lambda as the plain sum of tableau weights over the enumerator's
    stream: every weight expanded on its own, then added."""
    return poly_sum(universe, (weight(t, universe) for t in enumerate_tableaux(shape, n)))


def perturbed_builder(shape, n: int, *, universe: VariableUniverse | None = None) -> Polynomial:
    """G_lambda + beta: a wrong builder, so every identity it enters is false."""
    g = g_tableau(shape, n, universe=universe)
    return g + g.universe.beta()


def skewed_builder(shape, n: int, *, universe: VariableUniverse | None = None) -> Polynomial:
    """G_lambda + beta*x_1: a wrong builder whose G is not symmetric."""
    g = g_tableau(shape, n, universe=universe)
    return g + g.universe.beta() * g.universe.x(1)


def block_factor(
    universe: VariableUniverse, rng: random.Random, lo: int, hi: int, max_terms: int = 3
) -> Polynomial:
    """A random polynomial in x_lo..x_hi, b and the y's, symmetrized over x_lo..x_hi."""
    m = hi - lo + 1
    p = random_polynomial(VariableUniverse(m, universe.n_y), rng, max_terms=max_terms, nonzero=True)
    targets = ([lo + v for v in w] for w in permutations(range(m)))
    return poly_sum(universe, (relabel(universe, p, w) for w in targets))


def relabel(universe: VariableUniverse, p: Polynomial, targets) -> Polynomial:
    """p with x_r -> x_{targets[r-1]}, through substitute, in the given universe."""
    bindings = {f"x{r}": universe.x(t) for r, t in enumerate(targets, 1)}
    return p.substitute(bindings, universe=universe)


def side_value(universe: VariableUniverse, side) -> Polynomial:
    """d_v of a side (factors, block sizes): the factors multiplied out and
    pushed forward by the reference, merging the blocks one at a time."""
    factors, sizes = side
    F, n = poly_prod(universe, factors), sizes[0]
    for m in sizes[1:]:
        F, n = push_forward(F, n + m, n), n + m
    return F


def case_sides(identity: str, params: dict, builder=g_tableau) -> tuple[Polynomial, Polynomial]:
    """The two sides of a case, from the lookup run_case uses, each pushed
    forward by the reference: for a subset sum, G_mu and d_v F."""
    _, U, lhs, rhs = identities._case(identity, params, builder)
    return side_value(U, lhs), side_value(U, rhs)


def cleared_sides(identity: str, params: dict, builder=g_tableau) -> tuple[Polynomial, Polynomial]:
    """The two sides of a case times V = prod_{i<j}(x_i - x_j): V*G_mu and
    V*d_v F for a subset sum."""
    lhs, rhs = case_sides(identity, params, builder)
    V = lhs.universe.vandermonde(range(1, lhs.universe.n_x + 1))
    return lhs * V, rhs * V


def decreasing_terms(p: Polynomial, n: int) -> Polynomial:
    """The terms of p whose x_1..x_n exponents strictly decrease, read off
    the packed keys (8-bit fields)."""
    U = p.universe
    shifts = [U.shift_of(f"x{i}") for i in range(1, n + 1)]
    kept = {}
    for key, c in p._terms.items():
        e = [(key >> s) & 255 for s in shifts]
        if all(u > v for u, v in zip(e, e[1:])):
            kept[key] = c
    return Polynomial._make(U, kept, p._degbound)


def elementary_symmetric_oracle(k: int, n: int, universe: VariableUniverse) -> Polynomial:
    """e_k(y_1..y_n) by direct subset sums."""
    if k < 0 or k > n:
        return universe.zero()
    out = universe.zero()
    for S in combinations(range(1, n + 1), k):
        term = universe.one()
        for j in S:
            term = term * universe.y(j)
        out = out + term
    return out


def random_polynomial(
    universe: VariableUniverse,
    rng: random.Random,
    *,
    max_terms: int = 5,
    max_exp: int = 3,
    max_coeff: int = 9,
    nonzero: bool = False,
) -> Polynomial:
    out = universe.zero()
    names = universe.names()
    for _ in range(rng.randint(1 if nonzero else 0, max_terms)):
        exps = {}
        for name in names:
            e = rng.randint(0, max_exp)
            if e and rng.random() < 0.5:
                exps[name] = e
        c = rng.randint(-max_coeff, max_coeff)
        out = out + universe.monomial(c, exps)
    if nonzero and out.is_zero:
        return universe.one()
    return out
