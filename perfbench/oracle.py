"""Independent oracle for G_lambda(x|y) at a rational point.

Nothing here imports the package's polynomial ring.  The oracle evaluates
the determinant quotient

    det([x_i|y]^(lam_j+n-j) (1+b x_i)^(j-1)) / prod_{i<j}(x_i - x_j),
    [x|y]^q = prod_{t=1..q} (x + y_t + b x y_t),

with fractions.Fraction entries and Gaussian elimination, and evaluates a
polynomial given in the package's JSON wire form at the same point.  A
construction output matches the oracle when the two values are equal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Point:
    """A rational point whose coordinates share one denominator:
    b = nb/den, x_i = nx[i]/den, y_j = ny[j]/den."""

    den: int
    nb: int
    nx: tuple[int, ...]
    ny: tuple[int, ...]

    @property
    def b(self) -> Fraction:
        return Fraction(self.nb, self.den)

    @property
    def xs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.den) for v in self.nx)

    @property
    def ys(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.den) for v in self.ny)


def seeded_point(rng: random.Random, n_x: int, n_y: int) -> Point:
    """A point with pairwise distinct x coordinates."""
    den = rng.randint(2, 9)
    nx: list[int] = []
    while len(nx) < n_x:
        v = rng.randint(-40, 40)
        if v not in nx:
            nx.append(v)
    ny = tuple(rng.randint(-40, 40) for _ in range(n_y))
    return Point(den=den, nb=rng.choice([-1, 1]) * rng.randint(1, 40), nx=tuple(nx), ny=ny)


def _det(matrix: list[list[Fraction]]) -> Fraction:
    m = [row[:] for row in matrix]
    size = len(m)
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, size):
            f = m[r][col] * inv
            if f:
                for c in range(col, size):
                    m[r][c] -= f * m[col][c]
    return det


def grothendieck_value(shape, n: int, point: Point) -> Fraction:
    """G_shape(x|y) in n variables at the point, by the determinant quotient."""
    lam = list(shape) + [0] * (n - len(shape))
    if len(lam) > n:
        raise ValueError(f"shape {tuple(shape)} has more than {n} rows")
    b, xs, ys = point.b, point.xs, point.ys
    need = (lam[0] + n - 1) if n else 0
    if need > len(ys):
        raise ValueError(f"point covers y1..y{len(ys)}, formula needs y{need}")
    matrix = []
    for i in range(n):
        x = xs[i]
        row = []
        for j in range(1, n + 1):
            entry = (1 + b * x) ** (j - 1)
            for t in range(lam[j - 1] + n - j):
                entry *= x + ys[t] + b * x * ys[t]
            row.append(entry)
        matrix.append(row)
    vandermonde = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            vandermonde *= xs[i] - xs[j]
    return _det(matrix) / vandermonde


def json_poly_value(obj: dict, point: Point) -> Fraction:
    """Value of a wire-form polynomial at the point, in integer arithmetic.

    Every coordinate is an integer over the common denominator, so a term of
    total degree d contributes coeff * prod(numerators^e) / den^d; terms are
    summed per degree and divided once.
    """
    n_x, n_y = obj["universe"]["n_x"], obj["universe"]["n_y"]
    if n_x != len(point.nx) or n_y > len(point.ny):
        raise ValueError("point does not cover the polynomial's universe")
    nums = {"b": point.nb}
    nums.update({f"x{i + 1}": v for i, v in enumerate(point.nx)})
    nums.update({f"y{j + 1}": v for j, v in enumerate(point.ny[:n_y])})
    pow_cache: dict[tuple[str, int], int] = {}
    by_degree: dict[int, int] = {}
    for term in obj["terms"]:
        value = int(term["coeff"])
        degree = 0
        for name, e in term["exps"].items():
            pw = pow_cache.get((name, e))
            if pw is None:
                pw = pow_cache[(name, e)] = nums[name] ** e
            value *= pw
            degree += e
        by_degree[degree] = by_degree.get(degree, 0) + value
    return sum(
        (Fraction(total, point.den**degree) for degree, total in by_degree.items()),
        Fraction(0),
    )
