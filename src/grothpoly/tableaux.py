"""Partitions, set-valued tableaux and their weights.

A set-valued tableau of shape lambda assigns a nonempty subset of [n] to
every cell of the Young diagram; rows weakly increase and columns strictly
increase under the order max(A) <= min(B) (resp. <).  The weight of a
tableau is beta^{|T|-|lambda|} times the product over cells alpha and
entries t of (x_t (+) y_{t+c(alpha)}), where c(alpha) = col - row.

Enumeration order (part of the public contract): cells are visited in
row-major order and the candidate subsets of each cell in lexicographic
order on sorted tuples, so {1} < {1,2} < {1,2,3} < {1,3} < {2} < ...; the
stream is depth-first and therefore sorts tableaux lexicographically by
their row-major cell sequence.  Streams are lazy.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .poly import Polynomial, UniverseMismatchError, VariableUniverse, poly_prod


class InvalidPartitionError(ValueError):
    """Parts must be weakly decreasing nonnegative integers."""


class InvalidTableauError(ValueError):
    """A filling violates the set-valued tableau conditions."""


class Partition:
    """Weakly decreasing nonnegative integer parts; trailing zeros stripped."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(int(p) for p in parts)
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise InvalidPartitionError(f"parts not weakly decreasing: {parts}")
        if parts and parts[-1] < 0:
            raise InvalidPartitionError(f"negative part in {parts}")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @classmethod
    def from_string(cls, text: str) -> "Partition":
        text = text.strip()
        if not text:
            return cls(())
        return cls(int(p) for p in text.split(","))

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __bool__(self):
        return bool(self.parts)

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        if isinstance(other, tuple):  # exactly the stripped parts, as __hash__ hashes
            return other == self.parts
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({list(self.parts)})"

    @property
    def size(self) -> int:
        return sum(self.parts)

    def padded(self, length: int) -> tuple[int, ...]:
        if length < len(self.parts):
            raise ValueError(f"cannot pad {self!r} down to length {length}")
        return self.parts + (0,) * (length - len(self.parts))

    def cells(self) -> Iterator[tuple[int, int]]:
        """Row-major (row, col) cells, 1-based."""
        for i, part in enumerate(self.parts, start=1):
            for j in range(1, part + 1):
                yield (i, j)

    def contains(self, other: "Partition") -> bool:
        other = coerce_partition(other)
        if len(other) > len(self.parts):
            return False
        return all(o <= s for o, s in zip(other.parts, self.parts))


def coerce_partition(shape) -> Partition:
    if isinstance(shape, Partition):
        return shape
    return Partition(shape)


def partitions_in_box(rows: int, cols: int) -> Iterator[Partition]:
    """All partitions with at most `rows` parts, each at most `cols`.

    Deterministic depth-first order: larger first parts come first and every
    prefix precedes its extensions; the empty partition comes last.
    """

    def rec(prefix: tuple[int, ...], bound: int, left: int) -> Iterator[tuple[int, ...]]:
        for p in range(bound, 0, -1):
            yield prefix + (p,)
            if left > 1:
                yield from rec(prefix + (p,), p, left - 1)

    for parts in rec((), cols, rows):
        yield Partition(parts)
    yield Partition(())


class SetValuedTableau:
    """Immutable filling: rows[i][j] is the sorted entry tuple of cell (i+1, j+1)."""

    __slots__ = ("shape", "rows")

    def __init__(self, shape, rows: Sequence[Sequence[Sequence[int]]]):
        shape = coerce_partition(shape)
        rows = tuple(tuple(tuple(cell) for cell in row) for row in rows)
        if tuple(len(row) for row in rows) != shape.parts:
            raise InvalidTableauError("filling does not match the shape")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("SetValuedTableau is immutable")

    def fill(self, i: int, j: int) -> tuple[int, ...]:
        return self.rows[i - 1][j - 1]

    def cells(self) -> Iterator[tuple[int, int, tuple[int, ...]]]:
        for i, row in enumerate(self.rows, start=1):
            for j, entries in enumerate(row, start=1):
                yield i, j, entries

    @property
    def size(self) -> int:
        """|T|: total number of entries counted with multiplicity over cells."""
        return sum(len(cell) for row in self.rows for cell in row)

    def __eq__(self, other):
        return isinstance(other, SetValuedTableau) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __str__(self):
        return "/".join(
            "".join("{" + ",".join(map(str, cell)) + "}" for cell in row)
            for row in self.rows
        ) or "{}"

    def __repr__(self):
        return f"SetValuedTableau({self})"

    def to_json_obj(self) -> dict:
        return {
            "shape": list(self.shape.parts),
            "fill": [[i, j, list(entries)] for i, j, entries in self.cells()],
        }


def validate_tableau(t: SetValuedTableau, n: int) -> None:
    """Independent checker for the set-valued tableau conditions.

    Deliberately shares no logic with the enumerator: every condition is
    re-derived from the raw cell contents.
    """
    for i, j, cell in t.cells():
        if not cell:
            raise InvalidTableauError(f"empty cell at ({i},{j})")
        if list(cell) != sorted(set(cell)):
            raise InvalidTableauError(f"cell ({i},{j}) not a sorted set: {cell}")
        if cell[0] < 1 or cell[-1] > n:
            raise InvalidTableauError(f"entry outside [1,{n}] at ({i},{j})")
        if j > 1:
            left = t.fill(i, j - 1)
            if max(left) > min(cell):
                raise InvalidTableauError(f"row condition fails at ({i},{j})")
        if i > 1 and j <= len(t.rows[i - 2]):
            up = t.fill(i - 1, j)
            if max(up) >= min(cell):
                raise InvalidTableauError(f"column condition fails at ({i},{j})")


def _subsets_lex(lo: int, n: int) -> Iterator[tuple[int, ...]]:
    """Nonempty subsets of {lo..n} as sorted tuples, lexicographic order."""
    for a in range(lo, n + 1):
        head = (a,)
        yield head
        for tail in _subsets_lex(a + 1, n):
            yield head + tail


def enumerate_tableaux(shape, n: int) -> Iterator[SetValuedTableau]:
    """Lazily yield every set-valued tableau of the shape with entries in [n].

    A shape with a column taller than n is legal input and yields nothing.
    The empty shape yields exactly one empty tableau.
    """
    shape = coerce_partition(shape)
    if n < 1:
        raise ValueError("n must be a positive integer")
    cells = list(shape.cells())
    if not cells:
        yield SetValuedTableau(shape, ())
        return
    grid: dict[tuple[int, int], tuple[int, ...]] = {}

    def rec(idx: int) -> Iterator[SetValuedTableau]:
        if idx == len(cells):
            rows = tuple(
                tuple(grid[(i, j)] for j in range(1, part + 1))
                for i, part in enumerate(shape.parts, start=1)
            )
            yield SetValuedTableau(shape, rows)
            return
        i, j = cells[idx]
        lo = 1
        if j > 1:
            lo = max(lo, grid[(i, j - 1)][-1])
        if i > 1:
            lo = max(lo, grid[(i - 1, j)][-1] + 1)
        for subset in _subsets_lex(lo, n):
            grid[(i, j)] = subset
            yield from rec(idx + 1)
        grid.pop((i, j), None)

    yield from rec(0)


def count_tableaux(shape, n: int) -> int:
    return sum(1 for _ in enumerate_tableaux(shape, n))


def enumerate_ssyt(shape, n: int) -> Iterator[SetValuedTableau]:
    """The singleton-valued sub-stream of enumerate_tableaux (semistandard fillings)."""
    for t in enumerate_tableaux(shape, n):
        if all(len(cell) == 1 for _, _, cell in t.cells()):
            yield t


def weight(t: SetValuedTableau, universe: VariableUniverse) -> Polynomial:
    """beta^{|T|-|shape|} * prod over cells and entries of (x_t (+) y_{t+c})."""
    factors = []
    for i, j, cell in t.cells():
        c = j - i
        for entry in cell:
            if entry > universe.n_x or entry + c > universe.n_y or entry + c < 1:
                raise UniverseMismatchError(
                    f"weight needs x{entry} and y{entry + c}; universe is {universe!r}"
                )
            factors.append(universe.circle_plus(entry, entry + c))
    excess = t.size - t.shape.size
    return universe.beta() ** excess * poly_prod(universe, factors)
