"""Three independent constructions of the factorial Grothendieck polynomial.

G_lambda(x|y) in n variables is built as

* ``g_tableau``            -- the weight generating function over set-valued
                              tableaux with entries in [n];
* ``g_determinant``        -- the determinant quotient
                              det([x_i|y]^{lam_j+n-j} (1+b x_i)^{j-1}) / V(x),
                              V the Vandermonde product;
* ``g_divided_difference`` -- isobaric divided differences applied to the
                              staircase seed prod_{i+j<=p} (x_i (+) y_j),
                              driven down the weak order from the longest
                              permutation of S_p to the Grassmannian
                              permutation attached to lambda.

All three agree (checked exactly in the test suite).  The default universe
for a result in n variables is (n_x=n, n_y=n+lam_1-1), the largest y index
any tableau weight or determinant entry can touch.

The determinant quotient alone also makes sense for an integer sequence that
is not a partition, as long as every exponent lam_j + n - j stays
nonnegative.  This extension is the value of G_mu that the Gustafson-Milne-type
identity needs when its shifted index mu has a negative part; at beta = 0 two
columns of the numerator coincide and it vanishes, which is the classical
bialternant convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .poly import (
    Polynomial,
    UniverseMismatchError,
    VariableUniverse,
    cofactor_expansion,
    exact_div,
    poly_sum,
    relabel_x_sum,
)
from .tableaux import (
    InvalidPartitionError,
    Partition,
    coerce_partition,
    enumerate_tableaux,
    weight,
)


class InvalidShapeError(ValueError):
    """Shape has more than n nonzero rows, or an index lies outside the
    determinant quotient's domain; the n-variable formula does not exist."""


class EmbeddingError(ValueError):
    """Symmetric group embedding too small for the requested shape."""


def default_universe(shape, n: int) -> VariableUniverse:
    shape = coerce_partition(shape)
    lam1 = shape.parts[0] if shape.parts else 0
    return VariableUniverse(n, max(n + lam1 - 1, 0))


def g_tableau(shape, n: int, *, universe: VariableUniverse | None = None) -> Polynomial:
    """Sum of tableau weights over all set-valued tableaux of the shape.

    A shape with more than n rows has no tableaux and gives 0; the empty
    shape gives 1.
    """
    shape = coerce_partition(shape)
    U = universe if universe is not None else default_universe(shape, n)
    return poly_sum(U, (weight(t, U) for t in enumerate_tableaux(shape, n)))


def _determinant_index(shape, n: int) -> tuple[int, ...]:
    """The shape zero-padded to n entries, checked against the domain of the
    determinant quotient: a partition with at most n nonzero rows, or any
    other integer sequence of length <= n with lam_j + n - j >= 0 for all j."""
    try:
        shape = coerce_partition(shape)
    except InvalidPartitionError:
        parts = tuple(int(p) for p in shape)
        if len(parts) > n or any(p + n - j < 0 for j, p in enumerate(parts, 1)):
            raise InvalidShapeError(
                f"index {parts} is outside the domain for n={n}: "
                "need length <= n and lam_j + n - j >= 0"
            ) from None
        return parts + (0,) * (n - len(parts))
    if len(shape) > n:
        raise InvalidShapeError(f"shape {shape!r} has more than {n} nonzero rows")
    return shape.padded(n)


def determinant_numerator(
    exponents: Sequence[int], universe: VariableUniverse
) -> list[list[Polynomial]]:
    """The rows [x_i|y]^{e_j} (1+b x_i)^{j-1}, i, j = 1..n, for exponents e_1..e_n."""
    U = universe
    rows = []
    for i in range(1, len(exponents) + 1):
        one_plus_bx = U.one() + U.beta() * U.x(i)
        rows.append([U.bracket_pow(i, e) * one_plus_bx**j for j, e in enumerate(exponents)])
    return rows


def g_determinant(shape, n: int, *, universe: VariableUniverse | None = None) -> Polynomial:
    """Determinant quotient construction (zero-pads the shape to n rows).

    Besides partitions, the shape may be any integer sequence of length <= n
    whose exponents lam_j + n - j are all nonnegative (see the module
    docstring); a sequence outside that domain raises InvalidShapeError.
    The default universe reaches the largest exponent, max_j lam_j + n - j,
    which for a partition is the usual n + lam_1 - 1.

    The numerator goes through the shared cofactor expansion
    (poly.cofactor_expansion), which builds the minors one level at a time
    and here divides each minor over rows r..n by the Vandermonde of that
    row range, one exact_div per factor x_r - x_j (j > r), each a
    synthetic division.  The minor is alternating in those rows, so the
    division is exact (a NotDivisibleError would be an internal error) and
    the stored minors stay quotient-sized.
    """
    lam = _determinant_index(shape, n)
    exponents = [lam[j - 1] + n - j for j in range(1, n + 1)]
    U = universe if universe is not None else VariableUniverse(n, max(exponents, default=0))
    if n == 0:  # the empty determinant, which cofactor_expansion rejects
        return U.one()

    def divide_out_vandermonde(r: int, minor: Polynomial) -> Polynomial:
        for j in range(r + 2, n + 1):
            minor = exact_div(minor, U.x(r + 1) - U.x(j))
        return minor

    return cofactor_expansion(determinant_numerator(exponents, U), divide_out_vandermonde)


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
    """G_lambda(x_S|y): build G in |S| local variables, then relabel
    x_r -> x_{i_r} for the increasing enumeration i_1 < ... < i_k of S.

    The relabel moves exponent fields (relabel_x_sum) and multiplies
    nothing.
    """
    S = sorted(subset)
    if len(set(S)) != len(S):
        raise ValueError("subset indices must be distinct")
    if S and (S[0] < 1 or S[-1] > universe.n_x):
        raise UniverseMismatchError(f"subset {S} not inside [1,{universe.n_x}]")
    k = len(S)
    local = VariableUniverse(k, universe.n_y)
    g = builder(shape, k, universe=local) if k else local.one()
    return relabel_x_sum(universe, g, [(1, S)])


def factorial_schur(
    shape, n: int, *, universe: VariableUniverse | None = None
) -> Polynomial:
    """The beta = 0 specialization of G_lambda(x|y)."""
    return g_tableau(shape, n, universe=universe).substitute({"b": 0})


def schur(shape, n: int, *, universe: VariableUniverse | None = None) -> Polynomial:
    """The beta = 0, y = 0 specialization: the Schur polynomial s_lambda(x)."""
    g = g_tableau(shape, n, universe=universe)
    bindings: dict[str, int] = {"b": 0}
    bindings.update({f"y{j}": 0 for j in range(1, g.universe.n_y + 1)})
    return g.substitute(bindings)
