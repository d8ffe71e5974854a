"""Shared test utilities: independent oracles and random generators.

The oracles here deliberately avoid the library's own machinery: the SSYT
generator fills cells with plain integers by brute force, and the Schur and
elementary-symmetric oracles build monomial dicts directly.
"""

from __future__ import annotations

import random
from itertools import combinations

from grothpoly import Polynomial, VariableUniverse, g_tableau


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


def perturbed_builder(shape, n: int, *, universe: VariableUniverse | None = None) -> Polynomial:
    """G_lambda + beta: a wrong builder, so every identity it enters is false."""
    g = g_tableau(shape, n, universe=universe)
    return g + g.universe.beta()


def skewed_builder(shape, n: int, *, universe: VariableUniverse | None = None) -> Polynomial:
    """G_lambda + beta*x_1: a wrong builder whose G is not symmetric."""
    g = g_tableau(shape, n, universe=universe)
    return g + g.universe.beta() * g.universe.x(1)


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
