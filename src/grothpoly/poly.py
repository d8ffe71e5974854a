"""Exact sparse multivariate polynomial ring over the integers.

The variable universe is {beta, x_1..x_{n_x}, y_1..y_{n_y}}; beta is always
present.  A polynomial is a dict mapping packed monomial keys to nonzero
Python ints, so coefficients never overflow and equality is structural.

Monomial packing: each variable gets an 8-bit exponent field inside one
integer, ordered (most significant first)

    [ total degree | beta | x_1 .. x_{n_x} | y_1 .. y_{n_y} ]

With the total degree in the top field, plain integer comparison of keys
realizes the graded lexicographic order with beta heaviest, then x_1..x_n,
then y_1..y_M.  That order is the canonical one: serialized terms are
sorted by it, descending (leading monomial first), and exact division uses
it as the division order.  Monomial multiplication is integer addition of
keys, valid as long as no 8-bit field overflows; a conservative total
degree bound (255) is enforced on mul/pow and raises DegreeOverflowError.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

_EXP_BITS = 8
_EXP_MASK = (1 << _EXP_BITS) - 1
MAX_TOTAL_DEGREE = _EXP_MASK


class UniverseMismatchError(ValueError):
    """Operands live in different universes, or a variable is out of range."""


class NotDivisibleError(ArithmeticError):
    """Division left a nonzero remainder; the quotient does not exist in Z[x,y,b]."""


class DegreeOverflowError(OverflowError):
    """Total degree would exceed the packed-exponent capacity (255)."""


class VariableUniverse:
    """The fixed variable set {beta, x_1..x_{n_x}, y_1..y_{n_y}}.

    Universes with equal (n_x, n_y) are interchangeable.  Variable names,
    used in bindings and serialization, are "b", "x1".."x{n_x}" and
    "y1".."y{n_y}".
    """

    __slots__ = ("n_x", "n_y", "nvars", "_deg_shift", "_shifts", "_names", "_index")

    def __init__(self, n_x: int, n_y: int):
        if n_x < 0 or n_y < 0:
            raise UniverseMismatchError("variable counts must be nonnegative")
        if n_x + n_y + 1 > 200:
            raise UniverseMismatchError("universe too large for packed monomials")
        self.n_x = n_x
        self.n_y = n_y
        self.nvars = 1 + n_x + n_y
        self._deg_shift = _EXP_BITS * self.nvars
        # variable v's field; v=0 is beta, 1..n_x the x's, then the y's
        self._shifts = tuple(
            _EXP_BITS * (self.nvars - 1 - v) for v in range(self.nvars)
        )
        self._names = ("b",) + tuple(f"x{i}" for i in range(1, n_x + 1)) + tuple(
            f"y{j}" for j in range(1, n_y + 1)
        )
        self._index = {name: v for v, name in enumerate(self._names)}

    def __eq__(self, other):
        return (
            isinstance(other, VariableUniverse)
            and self.n_x == other.n_x
            and self.n_y == other.n_y
        )

    def __hash__(self):
        return hash((self.n_x, self.n_y))

    def __repr__(self):
        return f"VariableUniverse(n_x={self.n_x}, n_y={self.n_y})"

    # -- variable lookups ------------------------------------------------

    def names(self) -> tuple[str, ...]:
        return self._names

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UniverseMismatchError(f"no variable {name!r} in {self!r}") from None

    def shift_of(self, name: str) -> int:
        return self._shifts[self.index_of(name)]

    def _xpos(self, i: int) -> int:
        if not 1 <= i <= self.n_x:
            raise UniverseMismatchError(f"x{i} outside universe with n_x={self.n_x}")
        return i

    def _ypos(self, j: int) -> int:
        if not 1 <= j <= self.n_y:
            raise UniverseMismatchError(f"y{j} outside universe with n_y={self.n_y}")
        return self.n_x + j

    # -- monomial packing ------------------------------------------------

    def pack(self, exps: Mapping[str, int]) -> int:
        """Pack {"b": e0, "x2": e, ...} (nonzero exponents only) into a key."""
        key = 0
        deg = 0
        for name, e in exps.items():
            if e < 0:
                raise ValueError("negative exponent")
            if e == 0:
                continue
            key += e << self._shifts[self.index_of(name)]
            deg += e
        if deg > MAX_TOTAL_DEGREE:
            raise DegreeOverflowError(f"total degree {deg} exceeds {MAX_TOTAL_DEGREE}")
        return key | (deg << self._deg_shift)

    def unpack(self, key: int) -> dict[str, int]:
        """Inverse of pack: sparse name -> exponent map (nonzero only)."""
        out = {}
        for v, name in enumerate(self._names):
            e = (key >> self._shifts[v]) & _EXP_MASK
            if e:
                out[name] = e
        return out

    def _monomial_divides(self, k_num: int, k_den: int) -> bool:
        for s in self._shifts:
            if ((k_num >> s) & _EXP_MASK) < ((k_den >> s) & _EXP_MASK):
                return False
        return True

    # -- constructors ----------------------------------------------------

    def zero(self) -> Polynomial:
        return Polynomial._make(self, {}, 0)

    def one(self) -> Polynomial:
        return Polynomial._make(self, {0: 1}, 0)

    def const(self, c: int) -> Polynomial:
        if not isinstance(c, int):
            raise TypeError("coefficients are integers")
        return Polynomial._make(self, {0: c} if c else {}, 0)

    def beta(self) -> Polynomial:
        key = (1 << self._shifts[0]) | (1 << self._deg_shift)
        return Polynomial._make(self, {key: 1}, 1)

    def x(self, i: int) -> Polynomial:
        key = (1 << self._shifts[self._xpos(i)]) | (1 << self._deg_shift)
        return Polynomial._make(self, {key: 1}, 1)

    def y(self, j: int) -> Polynomial:
        key = (1 << self._shifts[self._ypos(j)]) | (1 << self._deg_shift)
        return Polynomial._make(self, {key: 1}, 1)

    def monomial(self, coeff: int, exps: Mapping[str, int]) -> Polynomial:
        if coeff == 0:
            return self.zero()
        key = self.pack(exps)
        return Polynomial._make(self, {key: coeff}, key >> self._deg_shift)

    def circle_plus(self, i: int, j: int) -> Polynomial:
        """The deformed sum x_i + y_j + beta*x_i*y_j."""
        xi, yj = self._xpos(i), self._ypos(j)
        ds, sh = self._deg_shift, self._shifts
        kx = (1 << sh[xi]) | (1 << ds)
        ky = (1 << sh[yj]) | (1 << ds)
        kb = (1 << sh[0]) | (1 << sh[xi]) | (1 << sh[yj]) | (3 << ds)
        return Polynomial._make(self, {kx: 1, ky: 1, kb: 1}, 3)

    def bracket_pow(self, i: int, q: int, p: int = 0) -> Polynomial:
        """Product (x_i (+) y_{p+1}) * ... * (x_i (+) y_{p+q}); q=0 gives 1."""
        if q < 0 or p < 0:
            raise ValueError("bracket length and shift must be nonnegative")
        if p + q > self.n_y:
            raise UniverseMismatchError(
                f"bracket needs y up to index {p + q}, universe has n_y={self.n_y}"
            )
        out = self.one()
        for j in range(p + 1, p + q + 1):
            out = out * self.circle_plus(i, j)
        return out

    def vandermonde(self, indices: Iterable[int]) -> Polynomial:
        """Product of (x_i - x_j) over index pairs i < j from the given set."""
        idx = sorted(set(indices))
        out = self.one()
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                out = out * (self.x(idx[a]) - self.x(idx[b]))
        return out


class Polynomial:
    """Immutable canonical polynomial: no zero coefficients are stored.

    Equality is structural (same universe, identical term maps).  All
    operations return new values; instances are safe to share across
    threads.
    """

    __slots__ = ("universe", "_terms", "_degbound")

    def __init__(self, *args, **kwargs):
        raise TypeError("use VariableUniverse constructors (zero, x, circle_plus, ...)")

    @classmethod
    def _make(cls, universe, terms, degbound) -> Polynomial:
        self = object.__new__(cls)
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_degbound", degbound)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def num_terms(self) -> int:
        return len(self._terms)

    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(self._terms) >> self.universe._deg_shift

    def degree_in(self, name: str) -> int:
        s = self.universe.shift_of(name)
        return max(((k >> s) & _EXP_MASK for k in self._terms), default=0)

    def terms_sorted(self) -> list[tuple[dict[str, int], int]]:
        """Terms as (sparse exponent map, coefficient), canonical order (leading first)."""
        U = self.universe
        return [(U.unpack(k), self._terms[k]) for k in sorted(self._terms, reverse=True)]

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.universe.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.universe == other.universe and self._terms == other._terms

    __hash__ = None

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> Polynomial:
        if isinstance(other, int):
            return self.universe.const(other)
        if isinstance(other, Polynomial):
            if other.universe != self.universe:
                raise UniverseMismatchError("operands live in different universes")
            return other
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        big, small = self._terms, other._terms
        if len(big) < len(small):
            big, small = small, big
        out = dict(big)
        for k, c in small.items():
            nv = out.get(k, 0) + c
            if nv:
                out[k] = nv
            elif k in out:
                del out[k]
        return Polynomial._make(
            self.universe, out, max(self._degbound, other._degbound)
        )

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._make(
            self.universe, {k: -c for k, c in self._terms.items()}, self._degbound
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _check_degrees(self, other) -> int:
        bound = self._degbound + other._degbound
        if bound > MAX_TOTAL_DEGREE:
            # conservative bound may drift high after cancellations; refresh it
            bound = self.total_degree() + other.total_degree()
            if bound > MAX_TOTAL_DEGREE:
                raise DegreeOverflowError(
                    f"product degree {bound} exceeds capacity {MAX_TOTAL_DEGREE}"
                )
        return bound

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return poly_dot(self.universe, ((self, other),))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self.universe.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- structural operators ------------------------------------------------

    def swap_x(self, i: int, j: int) -> Polynomial:
        """Exchange the variables x_i and x_j."""
        U = self.universe
        si = U._shifts[U._xpos(i)]
        sj = U._shifts[U._xpos(j)]
        if si == sj:
            return self
        out = {}
        for k, c in self._terms.items():
            a = (k >> si) & _EXP_MASK
            b = (k >> sj) & _EXP_MASK
            out[k + ((b - a) << si) + ((a - b) << sj)] = c
        return Polynomial._make(U, out, self._degbound)

    def divided_difference(self, i: int) -> Polynomial:
        """Newton divided difference (f - s_i f) / (x_i - x_{i+1}).

        Computed termwise from the classical identity
        (u^a v^b - u^b v^a)/(u - v) = sign(a-b) * sum of u^t v^{a+b-1-t},
        so no polynomial division is performed; the result is exact.
        """
        U = self.universe
        if not 1 <= i < U.n_x:
            raise UniverseMismatchError(f"divided difference needs x{i}, x{i + 1}")
        si = U._shifts[U._xpos(i)]
        sj = U._shifts[U._xpos(i + 1)]
        ds = U._deg_shift
        out: dict[int, int] = {}
        get = out.get
        for k, c in self._terms.items():
            a = (k >> si) & _EXP_MASK
            b = (k >> sj) & _EXP_MASK
            if a == b:
                continue
            cc = c if a > b else -c
            lo, hi = (b, a) if a > b else (a, b)
            # rest of the monomial, with the pair (t, a+b-1-t) re-attached
            base = k - (a << si) - (b << sj) - (1 << ds)
            top = lo + hi - 1
            for t in range(lo, hi):
                nk = base + (t << si) + ((top - t) << sj)
                nv = get(nk, 0) + cc
                if nv:
                    out[nk] = nv
                elif nk in out:
                    del out[nk]
        return Polynomial._make(U, out, max(self._degbound - 1, 0))

    def substitute(
        self,
        bindings: Mapping[str, "Polynomial | int"],
        universe: VariableUniverse | None = None,
    ) -> Polynomial:
        """Simultaneous substitution, optionally into a different universe.

        Keys are variable names ("b", "x3", "y5"); values are ints or
        polynomials over the target universe.  Unbound variables carry over
        by name and must exist in the target, which makes relabelings like
        x_r -> x_{i_r} (bind every x) and universe extensions (empty
        bindings, larger target) both work through the same call.
        """
        U = self.universe
        U2 = universe if universe is not None else U
        bound: dict[int, Polynomial] = {}
        for name, val in bindings.items():
            v = U.index_of(name)
            if isinstance(val, int):
                val = U2.const(val)
            elif not isinstance(val, Polynomial):
                raise TypeError("bindings map to Polynomial or int")
            elif val.universe != U2:
                raise UniverseMismatchError("binding value in wrong universe")
            bound[v] = val
        carry: list[int | None] = []
        for v, name in enumerate(U.names()):
            if v in bound:
                carry.append(None)
            else:
                carry.append(U2._shifts[U2._index[name]] if name in U2._index else -1)

        out: dict[int, int] = {}
        pow_cache: dict[tuple[int, int], Polynomial] = {}
        shifts = U._shifts
        ds2 = U2._deg_shift
        for k, c in self._terms.items():
            base_key = 0
            base_deg = 0
            factor: Polynomial | None = None
            dead = False
            for v in range(U.nvars):
                e = (k >> shifts[v]) & _EXP_MASK
                if not e:
                    continue
                pv = bound.get(v)
                if pv is not None:
                    if pv.is_zero:
                        dead = True
                        break
                    pw = pow_cache.get((v, e))
                    if pw is None:
                        pw = pv**e
                        pow_cache[(v, e)] = pw
                    factor = pw if factor is None else factor * pw
                else:
                    s2 = carry[v]
                    if s2 < 0:
                        raise UniverseMismatchError(
                            f"variable {U.names()[v]} has no home in target universe"
                        )
                    base_key += e << s2
                    base_deg += e
            if dead:
                continue
            base_key |= base_deg << ds2
            if factor is None:
                nv = out.get(base_key, 0) + c
                if nv:
                    out[base_key] = nv
                elif base_key in out:
                    del out[base_key]
            else:
                for fk, fc in factor._terms.items():
                    nk = fk + base_key
                    nv = out.get(nk, 0) + c * fc
                    if nv:
                        out[nk] = nv
                    elif nk in out:
                        del out[nk]
        degbound = max((k >> ds2 for k in out), default=0)
        return Polynomial._make(U2, out, degbound)

    def eval_rational(self, point: "RationalPoint") -> Fraction:
        """Exact value at a total rational assignment."""
        U = self.universe
        vals = point._as_vector(U)
        total = Fraction(0)
        pow_cache: dict[tuple[int, int], Fraction] = {}
        shifts = U._shifts
        for k, c in self._terms.items():
            term = Fraction(c)
            for v in range(U.nvars):
                e = (k >> shifts[v]) & _EXP_MASK
                if not e:
                    continue
                pw = pow_cache.get((v, e))
                if pw is None:
                    pw = vals[v] ** e
                    pow_cache[(v, e)] = pw
                term *= pw
            total += term
        return total

    # -- rendering ---------------------------------------------------------

    def _render(self, latex: bool) -> str:
        if not self._terms:
            return "0"
        U = self.universe
        pieces = []
        for k in sorted(self._terms, reverse=True):
            c = self._terms[k]
            exps = U.unpack(k)
            factors = []
            for name, e in exps.items():
                if latex:
                    if name == "b":
                        v = r"\beta"
                    else:
                        v = f"{name[0]}_{{{name[1:]}}}"
                    factors.append(v if e == 1 else f"{v}^{{{e}}}")
                else:
                    factors.append(name if e == 1 else f"{name}^{e}")
            mono = (" " if latex else "*").join(factors)
            mag = abs(c)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}{' ' if latex else '*'}{mono}"
            else:
                body = str(mag)
            pieces.append(("-" if c < 0 else "+", body))
        sign, body = pieces[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __str__(self):
        return self._render(latex=False)

    def to_latex(self) -> str:
        return self._render(latex=True)

    def __repr__(self):
        s = str(self)
        if len(s) > 60:
            s = s[:57] + "..."
        return f"Polynomial({s})"

    def to_json_obj(self) -> dict:
        """The canonical wire form: terms sorted by the monomial order, leading first."""
        U = self.universe
        return {
            "universe": {"n_x": U.n_x, "n_y": U.n_y},
            "terms": [
                {"coeff": str(self._terms[k]), "exps": U.unpack(k)}
                for k in sorted(self._terms, reverse=True)
            ],
        }


def from_json_obj(obj: Mapping) -> Polynomial:
    """Rebuild a polynomial from its wire form (tolerates unsorted input)."""
    U = VariableUniverse(int(obj["universe"]["n_x"]), int(obj["universe"]["n_y"]))
    out = U.zero()
    for term in obj["terms"]:
        out = out + U.monomial(int(term["coeff"]), {k: int(e) for k, e in term["exps"].items()})
    return out


def poly_sum(universe: VariableUniverse, polys: Iterable[Polynomial]) -> Polynomial:
    """Sum with linear-time accumulation (avoids quadratic repeated __add__)."""
    out: dict[int, int] = {}
    bound = 0
    for p in polys:
        if p.universe != universe:
            raise UniverseMismatchError("summand in wrong universe")
        bound = max(bound, p._degbound)
        for k, c in p._terms.items():
            nv = out.get(k, 0) + c
            if nv:
                out[k] = nv
            elif k in out:
                del out[k]
    return Polynomial._make(universe, out, bound)


def poly_dot(
    universe: VariableUniverse, pairs: Iterable[tuple[Polynomial, Polynomial]]
) -> Polynomial:
    """Sum of a*b over the pairs, accumulated in one dict.

    No product is materialized, so a sum of cofactor products costs one
    output dict instead of one per product plus the copies of a running
    sum.  Each pair passes the degree-overflow guard of __mul__; zero
    coefficients are dropped once, at the end.
    """
    out: dict[int, int] = {}
    get = out.get
    bound = 0
    for a, b in pairs:
        for f in a.universe, b.universe:
            if f is not universe and f != universe:
                raise UniverseMismatchError("factor in wrong universe")
        if not a._terms or not b._terms:
            continue
        bound = max(bound, a._check_degrees(b))
        ta, tb = a._terms, b._terms
        if len(ta) < len(tb):
            ta, tb = tb, ta
        for k2, c2 in tb.items():
            for k1, c1 in ta.items():
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
    return Polynomial._make(universe, {k: c for k, c in out.items() if c}, bound)


def relabel_x_sum(
    universe: VariableUniverse,
    p: Polynomial,
    maps: Iterable[tuple[int, Sequence[int]]],
) -> Polynomial:
    """Sum of sign * p(x_r -> x_{targets[r-1]}) over the (sign, targets) maps.

    The target universe has p's n_y and at least p's n_x; each targets
    names distinct x indices of it, one per x of p, and each sign is 1 or
    -1.  A relabel moves exponent fields and multiplies nothing: the y
    fields, the low bits of every key, stay where they are, and each
    distinct [deg | b | x] head above them is re-packed once per map into a
    table of key offsets, so a term costs one lookup and one add.  Zero
    coefficients are dropped once, at the end.
    """
    U = p.universe
    if U.n_y != universe.n_y:
        raise UniverseMismatchError("a relabel keeps the y variables")
    maps = [(sign, tuple(targets)) for sign, targets in maps]
    for sign, targets in maps:
        if sign not in (1, -1):
            raise ValueError("relabel signs are 1 or -1")
        if (
            len(targets) != U.n_x
            or len(set(targets)) != U.n_x
            or not all(1 <= t <= universe.n_x for t in targets)
        ):
            raise UniverseMismatchError(
                f"targets {targets} are not {U.n_x} distinct x indices of {universe!r}"
            )
    ybits = _EXP_BITS * U.n_y
    heads = {k >> ybits for k in p._terms}
    # within a head, x_r sits at _EXP_BITS * (n_x - r), under [deg | b]
    src = [_EXP_BITS * (U.n_x - r) for r in range(1, U.n_x + 1)]
    out: dict[int, int] = {}
    get = out.get
    items = p._terms.items()
    for sign, targets in maps:
        dst = [_EXP_BITS * (universe.n_x - t) for t in targets]
        offset = {}
        for h in heads:
            nh = (h >> (_EXP_BITS * U.n_x)) << (_EXP_BITS * universe.n_x)
            for s, d in zip(src, dst):
                nh |= ((h >> s) & _EXP_MASK) << d
            offset[h] = (nh - h) << ybits
        if sign > 0:
            for k, c in items:
                nk = k + offset[k >> ybits]
                out[nk] = get(nk, 0) + c
        else:
            for k, c in items:
                nk = k + offset[k >> ybits]
                out[nk] = get(nk, 0) - c
    if len(maps) > 1:  # one relabel is injective, so only a sum can cancel
        out = {k: c for k, c in out.items() if c}
    return Polynomial._make(universe, out, p._degbound)


def poly_prod(universe: VariableUniverse, polys: Iterable[Polynomial]) -> Polynomial:
    out = universe.one()
    for p in polys:
        out = out * p
        if out.is_zero:
            return out
    return out


def exact_div(p: Polynomial, d: Polynomial) -> Polynomial:
    """Quotient q with p == q*d exactly.

    A divisor that is exactly x_i - x_j is divided out by synthetic
    division in x_i, q_(a-1) = f_a + x_j q_a over the x_i-degrees a of p
    from the top down; the remainder f_0 + x_j q_0 is p(x_i = x_j), and
    must vanish.  Every other divisor goes through sparse long division
    under the canonical graded-lex order.  Every division in this package
    is exact, so a nonzero remainder signals a broken identity or a caller
    bug and raises NotDivisibleError.
    """
    if p.universe != d.universe:
        raise UniverseMismatchError("operands live in different universes")
    if d.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    U = p.universe
    if p.is_zero:
        return U.zero()
    pair = _x_difference_shifts(d)
    if pair is not None:
        return _divide_by_x_difference(p, *pair)
    dk = max(d._terms)
    dc = d._terms[dk]
    tail = [(k, c) for k, c in d._terms.items() if k != dk]
    rem = dict(p._terms)
    heap = [-k for k in rem]
    heapq.heapify(heap)
    quot: dict[int, int] = {}
    while heap:
        k = -heapq.heappop(heap)
        c = rem.get(k)
        if not c:
            continue  # stale heap entry
        del rem[k]
        if not U._monomial_divides(k, dk) or c % dc:
            raise NotDivisibleError(
                f"leading term not divisible (monomial {U.unpack(k)}, coeff {c})"
            )
        qk = k - dk
        qc = c // dc
        quot[qk] = qc
        for tk, tc in tail:
            nk = qk + tk
            nv = rem.get(nk, 0) - qc * tc
            if nv:
                if nk not in rem:
                    heapq.heappush(heap, -nk)
                rem[nk] = nv
            elif nk in rem:
                del rem[nk]
    if rem:
        raise NotDivisibleError("nonzero remainder")
    ds = U._deg_shift
    return Polynomial._make(U, quot, max((k >> ds for k in quot), default=0))


def _x_difference_shifts(d: Polynomial) -> tuple[int, int] | None:
    """The field shifts (of x_i, of x_j) when d is exactly x_i - x_j, else None."""
    if len(d._terms) != 2:
        return None
    U = d.universe
    unit = 1 << U._deg_shift
    x_shifts = U._shifts[1 : 1 + U.n_x]
    found = {}
    for k, c in d._terms.items():
        low = k - unit
        s = low.bit_length() - 1
        if low != 1 << s or s not in x_shifts:
            return None
        found[c] = s
    if set(found) != {1, -1}:
        return None
    return found[1], found[-1]


def _divide_by_x_difference(p: Polynomial, si: int, sj: int) -> Polynomial:
    """p / (x_i - x_j) by synthetic division in x_i (si, sj: their shifts)."""
    U = p.universe
    terms = p._terms
    # p's own keys, bucketed by their x_i-degree a (the f_a of exact_div)
    top = max((k >> si) & _EXP_MASK for k in terms)
    buckets: list[list[int]] = [[] for _ in range(top + 1)]
    for k in terms:
        buckets[(k >> si) & _EXP_MASK].append(k)
    unit = 1 << U._deg_shift
    down = (1 << si) + unit  # f_a x_i^a -> its term of q_(a-1) x_i^(a-1)
    carry = (1 << sj) - (1 << si)  # q_a x_i^a -> x_j q_a x_i^(a-1)
    quot: dict[int, int] = {}
    get = quot.get
    prev: list[int] = []  # keys of q_a x_i^a, a = the degree just finished
    for a in range(top, 0, -1):
        cur = []
        for k in buckets[a]:
            quot[k - down] = terms[k]
            cur.append(k - down)
        for k in prev:
            c = quot[k]
            if not c:  # cancelled: drop it rather than carry a zero
                del quot[k]
                continue
            nk = k + carry
            old = get(nk)
            if old is None:
                quot[nk] = c
                cur.append(nk)
            else:
                quot[nk] = old + c
        prev = cur
    # the remainder f_0 + x_j q_0 vanishes iff x_j q_0 == -f_0 term by term
    up = (1 << sj) + unit
    matched = 0
    for k in prev:
        c = quot[k]
        if not c:
            del quot[k]
            continue
        if terms.get(k + up) != -c:
            raise NotDivisibleError("nonzero remainder")
        matched += 1
    if matched != len(buckets[0]):
        raise NotDivisibleError("nonzero remainder")
    ds = U._deg_shift
    return Polynomial._make(U, quot, max((k >> ds for k in quot), default=0))


def determinant(rows: list[list[Polynomial]]) -> Polynomial:
    """Exact determinant by cofactor expansion, one level of minors at a time."""
    return cofactor_expansion(rows, lambda r, minor: minor)


def cofactor_expansion(
    rows: list[list[Polynomial]], reduce: Callable[[int, Polynomial], Polynomial]
) -> Polynomial:
    """Cofactor expansion along the rows, built one level of minors at a time.

    Level s holds, for every set of s columns, reduce(r, minor), with minor
    the expansion of rows r = n-s..n-1 (0-based) on those columns: one
    poly_dot over the row-r entries (the sign applied by negating the
    entry) and the stored values of level s-1.  Once level s's sums exist
    level s-1 is dropped, before reduce runs, so at most two levels are
    alive at once.  determinant passes the identity for reduce.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("determinant of an empty matrix is not defined here")
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix must be square")
    U = rows[0][0].universe
    for row in rows:
        for entry in row:
            if entry.universe != U:
                raise UniverseMismatchError("matrix entries in different universes")

    by_size: list[list[int]] = [[] for _ in range(n + 1)]
    for mask in range(1, 1 << n):
        by_size[bin(mask).count("1")].append(mask)
    level: dict[int, Polynomial] = {0: U.one()}
    for r in range(n - 1, -1, -1):
        signed = (rows[r], [-entry for entry in rows[r]])
        sums = {}
        for mask in by_size[n - r]:
            cols = [c for c in range(n) if mask >> c & 1]
            sums[mask] = poly_dot(
                U, [(signed[t & 1][c], level[mask ^ (1 << c)]) for t, c in enumerate(cols)]
            )
        level = sums  # drops level s-1 before the divisions run
        for mask in list(level):
            # popped, so reduce holds the sum's only reference and can free it
            level[mask] = reduce(r, level.pop(mask))
    return level[(1 << n) - 1]


@dataclass(frozen=True)
class RationalPoint:
    """Total exact-rational assignment to every variable of a universe."""

    beta: Fraction
    xs: tuple[Fraction, ...]
    ys: tuple[Fraction, ...]

    def _as_vector(self, universe: VariableUniverse) -> list[Fraction]:
        if len(self.xs) != universe.n_x or len(self.ys) != universe.n_y:
            raise UniverseMismatchError("point does not cover the universe")
        return [self.beta, *self.xs, *self.ys]

    def to_json_obj(self) -> dict:
        return {
            "b": str(self.beta),
            "x": [str(v) for v in self.xs],
            "y": [str(v) for v in self.ys],
        }


def random_rational_point(universe, rng, *, distinct_x: bool = True) -> RationalPoint:
    """Seeded random point; x coordinates pairwise distinct when requested."""

    def frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    xs: list[Fraction] = []
    while len(xs) < universe.n_x:
        v = frac()
        if distinct_x and v in xs:
            continue
        xs.append(v)
    ys = tuple(frac() for _ in range(universe.n_y))
    return RationalPoint(beta=frac(), xs=tuple(xs), ys=ys)
