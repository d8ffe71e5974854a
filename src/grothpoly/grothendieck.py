"""Three independent constructions of the factorial Grothendieck polynomial.

G_lambda(x|y) in n variables is built as

* ``g_tableau``            -- the weight generating function over set-valued
                              tableaux with entries in [n], summed by a
                              transfer matrix over the row-major cells;
* ``g_determinant``        -- the determinant quotient
                              det([x_i|y]^{lam_j+n-j} (1+b x_i)^{j-1}) / V(x),
                              V the Vandermonde product, computed as d_{w0}
                              of the numerator's alternant coordinates;
* ``g_divided_difference`` -- isobaric divided differences applied to the
                              staircase seed prod_{i+j<=p} (x_i (+) y_j),
                              driven down the weak order from the longest
                              permutation of S_p to the Grassmannian
                              permutation attached to lambda.

All three agree (checked exactly in the test suite).  g_determinant and
g_divided_difference share the ring's divided difference kernel; g_tableau
shares no step with g_determinant beyond ring arithmetic, and the sympy
oracle of the tests shares no code with it at all.  The default universe for
a result in n variables is (n_x=n, n_y=n+lam_1-1), the largest y index any
tableau weight or determinant entry can touch.

determinant_columns gives the numerator's diagonal columns f_j(x_j) for any
integer index whose exponents lam_j + n - j are nonnegative.  g_determinant,
which takes partitions only, reads its numerator from them, and so does the
Gustafson-Milne-type identity when the shifted index mu has a negative part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .poly import Polynomial, UniverseMismatchError, VariableUniverse, alternant_coords, poly_dot
from .poly import poly_sum  # noqa: F401 -- the benchmark's tracer test reads it here
from .tableaux import Partition, coerce_partition


class InvalidShapeError(ValueError):
    """Shape has more than n nonzero rows; the n-variable formula does not exist."""


class EmbeddingError(ValueError):
    """Symmetric group embedding too small for the requested shape."""


def default_universe(shape, n: int) -> VariableUniverse:
    shape = coerce_partition(shape)
    lam1 = shape.parts[0] if shape.parts else 0
    return VariableUniverse(n, max(n + lam1 - 1, 0))


def g_tableau(shape, n: int, *, universe: VariableUniverse | None = None) -> Polynomial:
    """Sum of tableau weights over all set-valued tableaux of the shape.

    A shape with more than n rows has no tableaux and gives 0; the empty
    shape gives 1.  No tableau is enumerated and no weight expanded on its
    own, and no step is shared with g_determinant beyond ring arithmetic.

    The sum runs as a transfer matrix over the cells in row-major order.
    The state after a cell is its profile: the largest entry of the latest
    filled cell in each column, cut to the next row's length when a row
    ends.  Cell (i, j) with content c = j - i takes the subsets A of
    [lo, n] with lo = max(left neighbour's max, 1 + max of the cell above);
    those with max A = m weigh, summed over A,
    (x_m (+) y_{m+c}) prod_{t=lo}^{m-1} (1 + b (x_t (+) y_{t+c})).
    m stops where the cells below it in column j can still be filled, so
    every state reached extends to a tableau.  The reachable profiles are
    listed forward, then the suffix sums are taken backward one cell at a
    time, with only two levels of them alive.
    """
    shape = coerce_partition(shape)
    if n < 1:
        raise ValueError("n must be a positive integer")
    U = universe if universe is not None else default_universe(shape, n)
    lam = shape.parts
    if len(lam) > n:
        return U.zero()
    cells = list(shape.cells())

    def moves(idx: int, prof: tuple[int, ...]):
        """(lo, m, next profile) for each largest entry m of cell idx."""
        i, j = cells[idx]
        lo = max(prof[j - 2] if j > 1 else 1, prof[j - 1] + 1 if i > 1 else 1)
        keep = (lam + (0,))[i] if j == lam[i - 1] else None
        top = n + i - sum(p >= j for p in lam)  # leaves room below in column j
        for m in range(lo, top + 1):
            yield lo, m, (prof[: j - 1] + (m,) + prof[j:])[:keep]

    one, beta = U.one(), U.beta()
    cell_sums: dict[tuple[int, int, int], Polynomial] = {}

    def cell_sum(c: int, lo: int, m: int) -> Polynomial:
        if (c, lo, m) not in cell_sums:
            for t in range(lo, m + 1):
                if t > U.n_x or t + c > U.n_y or t + c < 1:
                    raise UniverseMismatchError(
                        f"weight needs x{t} and y{t + c}; universe is {U!r}"
                    )
            w = U.circle_plus(m, m + c)
            for t in range(lo, m):
                w = w * (one + beta * U.circle_plus(t, t + c))
            cell_sums[c, lo, m] = w
        return cell_sums[c, lo, m]

    levels = [{()}]
    for idx in range(len(cells) - 1):
        levels.append({q for prof in levels[-1] for _, _, q in moves(idx, prof)})
    sums = {(): one}
    for idx in range(len(cells) - 1, -1, -1):
        c = cells[idx][1] - cells[idx][0]
        sums = {
            prof: poly_dot(U, [(cell_sum(c, lo, m), sums[q]) for lo, m, q in moves(idx, prof)])
            for prof in levels.pop()
        }
    return sums[()]


def determinant_columns(index: Sequence[int], n: int, U: VariableUniverse) -> list[Polynomial]:
    """The diagonal columns f_j(x_j) = [x_j|y]^{e_j} (1+b x_j)^{j-1}, j = 1..n, of
    the determinant quotient of an integer index zero-padded to n entries,
    e_j = index_j + n - j >= 0: the only code that writes its numerator.  By
    the Leibniz formula det(f_j(x_i)) is V times d_{w0} of their product, so
    alternant_coords reads the numerator's alternant coordinates from them, in
    n blocks of one x each, with no G formed."""
    padded = tuple(index) + (0,) * (n - len(index))
    return [
        U.bracket_pow(j, p + n - j) * (U.one() + U.beta() * U.x(j)) ** (j - 1)
        for j, p in enumerate(padded, 1)
    ]


def g_determinant(shape, n: int, *, universe: VariableUniverse | None = None) -> Polynomial:
    """Determinant quotient construction (zero-pads the shape to n rows).

    The quotient det(f_j(x_i)) / V, f_j(x) = [x|y]^{e_j} (1+b x)^{j-1} with
    e_j = lam_j + n - j, is G = d_{w0}(C), C the numerator's alternant
    coordinates (its terms at strictly decreasing x exponents), which
    alternant_coords reads from determinant_columns.  The numerator is the
    antisymmetrizer of C, and the antisymmetrizer over V is d_{w0} (Macdonald,
    Notes on Schubert Polynomials, (2.10)); nothing is expanded or divided.
    d_{w0} runs as d_1; d_2 d_1; d_3 d_2 d_1; ...: at (3,2,1), n = 5 no step
    outgrows G, while the other word, d_{n-1}; d_{n-2} d_{n-1}; ..., peaks at
    2.3 times G's terms and took 2.3 times the time and 2.5 times the memory.
    """
    shape = coerce_partition(shape)
    if n < 1:
        raise ValueError("n must be a positive integer")
    if len(shape) > n:
        raise InvalidShapeError(f"shape {shape!r} has more than {n} nonzero rows")
    U = universe if universe is not None else default_universe(shape, n)
    g = alternant_coords(determinant_columns(shape.parts, n, U), (1,) * n)
    for top in range(1, n):
        for i in range(top, 0, -1):
            g = g.divided_difference(i)
    return g


@dataclass(frozen=True)
class GrassmannianPermutation:
    """A permutation word with at most one descent."""

    word: tuple[int, ...]

    def __post_init__(self):
        p = len(self.word)
        if sorted(self.word) != list(range(1, p + 1)):
            raise ValueError(f"not a permutation of [{p}]: {self.word}")
        if len(self.descents()) > 1:
            raise ValueError(f"more than one descent: {self.word}")

    @property
    def p(self) -> int:
        return len(self.word)

    def descents(self) -> tuple[int, ...]:
        w = self.word
        return tuple(i for i in range(1, len(w)) if w[i - 1] > w[i])

    @property
    def descent(self) -> int | None:
        d = self.descents()
        return d[0] if d else None

    def length(self) -> int:
        w = self.word
        return sum(1 for a in range(len(w)) for b in range(a + 1, len(w)) if w[a] > w[b])

    def shape(self, n: int | None = None) -> Partition:
        """The partition with parts word[n-i] - (n-i+1)... read off below the descent."""
        if n is None:
            n = self.descent or 0
        parts = [self.word[n - i] - (n - i + 1) for i in range(1, n + 1)]
        return Partition(parts)


def grassmannian_from_partition(shape, n: int, p: int) -> GrassmannianPermutation:
    """The unique Grassmannian permutation in S_p with descent at most n whose
    attached partition is the given shape."""
    shape = coerce_partition(shape)
    if len(shape) > n:
        raise InvalidShapeError(f"shape {shape!r} has more than {n} rows")
    lam = shape.padded(n)
    lam1 = lam[0] if lam else 0
    if p < n + lam1:
        raise EmbeddingError(f"need p >= n + lam_1 = {n + lam1}, got {p}")
    word = [0] * p
    used = set()
    for m in range(1, n + 1):
        word[m - 1] = lam[n - m] + m
        used.add(word[m - 1])
    rest = sorted(set(range(1, p + 1)) - used)
    word[n:] = rest
    return GrassmannianPermutation(tuple(word))


def pi_operator(f: Polynomial, i: int) -> Polynomial:
    """Isobaric divided difference ((1+b x_{i+1}) f - (1+b x_i) s_i f) / (x_i - x_{i+1}).

    The numerator is antisymmetric in x_i, x_{i+1}, so the quotient is exact;
    it is computed termwise as the Newton divided difference of
    (1+b x_{i+1})*f, which is the same polynomial.
    """
    U = f.universe
    if not 1 <= i < U.n_x:
        raise UniverseMismatchError(f"pi_{i} needs x{i} and x{i + 1} in the universe")
    twisted = f + U.beta() * U.x(i + 1) * f
    return twisted.divided_difference(i)


def _ascent_chain(word: tuple[int, ...]) -> tuple[list[tuple[int, ...]], list[int]]:
    """Words and swap positions from `word` up to the longest permutation.

    words[t+1] = words[t] * s_{ops[t]} where ops[t] is the smallest ascent of
    words[t]; each swap raises the length by one.
    """
    words = [word]
    ops = []
    w = list(word)
    while True:
        asc = next((i for i in range(1, len(w)) if w[i - 1] < w[i]), None)
        if asc is None:
            break
        ops.append(asc)
        w[asc - 1], w[asc] = w[asc], w[asc - 1]
        words.append(tuple(w))
    return words, ops


def _staircase_seed(universe: VariableUniverse, p: int) -> Polynomial:
    out = universe.one()
    for i in range(1, p):
        out = out * universe.bracket_pow(i, p - i)
    return out


def g_divided_difference(
    shape,
    n: int,
    *,
    p: int | None = None,
    universe: VariableUniverse | None = None,
    cache: dict | None = None,
) -> Polynomial:
    """Divided-difference construction through the symmetric group S_p.

    Starting from the seed for the longest permutation, isobaric operators
    are applied along the (deterministic, smallest-ascent) chain down to the
    Grassmannian permutation of the shape; the result is returned over the
    n-variable universe.  `cache` may map intermediate words to polynomials
    and is shared across calls with equal p.
    """
    shape = coerce_partition(shape)
    if n < 1:
        raise ValueError("n must be a positive integer")
    lam1 = shape.parts[0] if shape.parts else 0
    if p is None:
        p = n + lam1
    w = grassmannian_from_partition(shape, n, p).word
    big = VariableUniverse(p, max(p - 1, 0))
    words, ops = _ascent_chain(w)

    start = None
    f = None
    if cache is not None:
        for t, word in enumerate(words):
            if word in cache:
                start, f = t, cache[word]
                break
    if f is None:
        start = len(words) - 1
        f = _staircase_seed(big, p)
        if cache is not None:
            cache[words[start]] = f
    for t in range(start - 1, -1, -1):
        f = pi_operator(f, ops[t])
        if cache is not None:
            cache[words[t]] = f

    U = universe if universe is not None else default_universe(shape, n)
    return f.substitute({}, universe=U)


def restrict(
    builder: Callable[..., Polynomial],
    shape,
    subset: Iterable[int],
    universe: VariableUniverse,
) -> Polynomial:
    """G_lambda(x_S|y): G built in x_1..x_k of the universe, k = |S|, with x_r
    moved to x_{i_r} for the increasing enumeration i_1 < ... < i_k of S.

    builder(shape, n, universe=U) must build G in x_1..x_n of any U with
    U.n_x >= n.  The moves run r = k, ..., 1, one swap_x each, so x_{i_r} is
    still free when x_r moves; i_r = r costs no copy, nor does S = {1..k}.
    """
    S = sorted(subset)
    if len(set(S)) != len(S):
        raise ValueError("subset indices must be distinct")
    if S and (S[0] < 1 or S[-1] > universe.n_x):
        raise UniverseMismatchError(f"subset {S} not inside [1,{universe.n_x}]")
    k = len(S)
    g = builder(shape, k, universe=universe) if k else universe.one()
    for r in range(k, 0, -1):
        g = g.swap_x(r, S[r - 1])
    return g


def factorial_schur(
    shape, n: int, *, universe: VariableUniverse | None = None
) -> Polynomial:
    """The beta = 0 specialization of G_lambda(x|y)."""
    return g_tableau(shape, n, universe=universe).substitute({"b": 0})


def classical_image(p: Polynomial) -> Polynomial:
    """p at beta = 0 and y = 0."""
    return p.substitute({"b": 0, **{f"y{j}": 0 for j in range(1, p.universe.n_y + 1)}})


def schur(shape, n: int, *, universe: VariableUniverse | None = None) -> Polynomial:
    """The beta = 0, y = 0 specialization: the Schur polynomial s_lambda(x)."""
    return classical_image(g_tableau(shape, n, universe=universe))
