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
from math import factorial, prod
from typing import Iterable, Mapping, Sequence

_EXP_BITS = 8
_EXP_MASK = (1 << _EXP_BITS) - 1
MAX_TOTAL_DEGREE = _EXP_MASK


class UniverseMismatchError(ValueError):
    """Operands live in different universes, or a variable is out of range."""


class NotDivisibleError(ArithmeticError):
    """Division left a nonzero remainder; the quotient does not exist in Z[x,y,b]."""


class NotSymmetricError(ValueError):
    """A factor whose alternant coordinates are asked for is not symmetric in its block."""


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

    def bracket_pow(self, i: int, q: int) -> Polynomial:
        """Product (x_i (+) y_1) * ... * (x_i (+) y_q); q=0 gives 1."""
        if q < 0:
            raise ValueError("bracket length must be nonnegative")
        if q > self.n_y:
            raise UniverseMismatchError(f"bracket needs y_{q}, universe has n_y={self.n_y}")
        out = self.one()
        for j in range(1, q + 1):
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
        """Exact value at a total rational assignment: one integer sum over
        the common denominator prod_v q_v^top_v, for values p_v/q_v and top_v
        the highest exponent of v, of c * prod_v p_v^e_v q_v^(top_v - e_v)."""
        U = self.universe
        vals = point._as_vector(U)
        tops = [max(((k >> s) & _EXP_MASK for k in self._terms), default=0) for s in U._shifts]
        scaled = [
            ([v.numerator**e * v.denominator ** (top - e) for e in range(top + 1)], s)
            for v, top, s in zip(vals, tops, U._shifts)
        ]
        total = 0
        for k, c in self._terms.items():
            for powers, s in scaled:
                c *= powers[(k >> s) & _EXP_MASK]
            total += c
        return Fraction(total, prod(v.denominator**top for v, top in zip(vals, tops)))

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
    return poly_sum(
        U,
        (
            U.monomial(int(term["coeff"]), {k: int(e) for k, e in term["exps"].items()})
            for term in obj["terms"]
        ),
    )


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


def _block_coords(p: Polynomial, n: int, lo: int, hi: int) -> dict[tuple, dict[int, int]]:
    """The terms of V_b * p, V_b = prod_{lo<=i<j<=hi}(x_i - x_j), at strictly
    decreasing x_lo..x_hi exponents, grouped by those exponents, for p free of
    the other x's of x_1..x_n; raises NotSymmetricError unless p is symmetric
    in x_lo..x_hi.  p's terms are grouped by their block exponent h, the head:
    p is symmetric when each group equals that of its sorted head and every
    orbit of heads is complete.  Then V_b * p is the antisymmetrization of
    x^delta * p, and each head h adds its group at the sort of h + delta, with
    the sign of the sort, or nowhere when an entry repeats."""
    U = p.universe
    block = U._shifts[lo : hi + 1]
    m = len(block)
    heads = sum(_EXP_MASK << s for s in U._shifts[1 : n + 1])
    others = heads - sum(_EXP_MASK << s for s in block)
    groups: dict[int, dict[int, int]] = {}
    for key, c in p._terms.items():
        head = key & heads
        groups.setdefault(head, {})[key - head] = c
    if any(head & others for head in groups):
        raise ValueError(f"a factor of the block x{lo}..x{hi} holds another x of x1..x{n}")
    if m == 1:  # one x: p is symmetric in it, and V_b * p = p
        s = block[0]
        return {(h >> s & _EXP_MASK,): {r + h: v for r, v in g.items()} for h, g in groups.items()}
    asymmetric = f"a factor is not symmetric in x{lo}..x{hi}"
    half = m * (m - 1) // 2 << U._deg_shift  # the degree of delta
    missing: dict[int, int] = {}  # sorted head -> heads of its orbit not yet seen
    out: dict[tuple, dict[int, int]] = {}
    for head, group in groups.items():
        a = [(head >> s) & _EXP_MASK for s in block]
        top = sum(e << s for e, s in zip(sorted(a, reverse=True), block))
        if top != head and groups.get(top) != group:
            raise NotSymmetricError(asymmetric)
        size = factorial(m) // prod(factorial(a.count(e)) for e in set(a))
        missing[top] = missing.get(top, size) - 1
        c = [e + m - 1 - i for i, e in enumerate(a)]
        if len(set(c)) < m:
            continue
        sign = -1 if sum(u < v for i, u in enumerate(c) for v in c[i + 1 :]) % 2 else 1
        c = tuple(sorted(c, reverse=True))
        shift = sum(e << s for e, s in zip(c, block)) + half
        coords = out.setdefault(c, {})
        get = coords.get
        for rest, coeff in group.items():
            nk = rest + shift
            coords[nk] = get(nk, 0) + sign * coeff
    if any(missing.values()):
        raise NotSymmetricError(asymmetric)
    out = {c: {key: v for key, v in coords.items() if v} for c, coords in out.items()}
    return {c: coords for c, coords in out.items() if coords}


def alternant_coords(factors: Sequence[Polynomial], sizes: Sequence[int]) -> Polynomial:
    """The terms of V * d_v F, F = f_1 * ... * f_t, at strictly decreasing
    x_1..x_n exponents, n = sum(sizes), for f_i symmetric in the i-th run of
    sizes[i] consecutive x's and free of the other x's of x_1..x_n: V is
    prod_{i<j<=n}(x_i - x_j) and d_v the Gysin push-forward from the blocks
    to x_1..x_n (Fulton-Pragacz, LNM 1689).

    V * d_v F is alternating, so these terms, its alternant coordinates,
    determine it, and it has n! times as many (Macdonald, Symmetric
    Functions, I.3).  The blocks share no x: a fold, seeded with the first
    block's coordinates, pairs the coordinates alpha of the blocks so far
    with those, gamma, of the next, sorting alpha + gamma with the sign of
    the sort or dropping it when an entry repeats (the Laplace expansion).
    F is never formed.  For n blocks of one x, f_j(x_j), this is the Leibniz
    formula: V * d_v F = det(f_j(x_i)).

    The coordinates determine only a block-symmetric F; each factor's block
    coordinates check its symmetry in the same pass over its terms, and
    NotSymmetricError names the first block that fails."""
    if not factors or len(factors) != len(sizes):
        raise ValueError("need one block size per factor")
    U, n = factors[0].universe, sum(sizes)
    if any(f.universe != U for f in factors):
        raise UniverseMismatchError("factors live in different universes")
    if min(sizes) < 0 or n > U.n_x:
        raise UniverseMismatchError(
            f"need block sizes >= 0 adding up to at most n_x={U.n_x}, got {tuple(sizes)}"
        )
    half = sum(m * (m - 1) // 2 for m in sizes)
    bound = sum(f._degbound for f in factors) + half
    if bound > MAX_TOTAL_DEGREE:  # the bounds may run high after cancellations
        if half + sum(f.total_degree() for f in factors) > MAX_TOTAL_DEGREE:
            raise DegreeOverflowError(f"product degree exceeds capacity {MAX_TOTAL_DEGREE}")
    shifts = U._shifts[1 : n + 1]
    acc = _block_coords(factors[0], n, 1, sizes[0])
    lo = sizes[0] + 1
    for f, m in zip(factors[1:], sizes[1:]):
        right = _block_coords(f, n, lo, lo + m - 1)
        lo += m
        out: dict[tuple, dict[int, int]] = {}
        for alpha, part in acc.items():
            for gamma, rest in right.items():
                c = alpha + gamma
                if len(set(c)) < len(c):
                    continue
                sign = -1 if sum(u < v for u in alpha for v in gamma) % 2 else 1
                top = tuple(sorted(c, reverse=True))
                delta = sum((e - g) << s for e, g, s in zip(top, c, shifts))
                coords = out.setdefault(top, {})
                get = coords.get
                for kb, cb in rest.items():
                    base, cb = kb + delta, sign * cb
                    for ka, ca in part.items():
                        nk = ka + base
                        coords[nk] = get(nk, 0) + ca * cb
        acc = {c: {key: v for key, v in coords.items() if v} for c, coords in out.items()}
    terms = {key: v for coords in acc.values() for key, v in coords.items()}
    return Polynomial._make(U, terms, bound)


def poly_prod(universe: VariableUniverse, polys: Iterable[Polynomial]) -> Polynomial:
    out = universe.one()
    for p in polys:
        out = out * p
        if out.is_zero:
            return out
    return out


def exact_div(p: Polynomial, d: Polynomial) -> Polynomial:
    """Quotient q with p == q*d exactly, by sparse long division under the
    canonical graded-lex order: the leading term of the remainder is divided
    by d's leading term until nothing is left.

    Callers divide only where the quotient exists, so a leading term that
    does not divide, or a nonzero remainder, signals a broken identity or a
    caller bug and raises NotDivisibleError.
    """
    if p.universe != d.universe:
        raise UniverseMismatchError("operands live in different universes")
    if d.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    U = p.universe
    if p.is_zero:
        return U.zero()
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


def determinant(rows: list[list[Polynomial]]) -> Polynomial:
    """Exact determinant by cofactor expansion along the rows, built one
    level of minors at a time.

    Level s holds, for every set of s columns, the expansion of rows
    r = n-s..n-1 (0-based) on those columns: one poly_dot over the row-r
    entries (the sign applied by negating the entry) and the stored values
    of level s-1.  Only two levels are alive at once.
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
        level = sums
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
