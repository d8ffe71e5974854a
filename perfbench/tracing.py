"""Tracing wrappers installed around the package's public entry points.

The traced run swaps each wrapped function into every module binding that
holds it (``identities.restrict``, ``grothendieck.poly_sum``, ...), into the
verifiers' ``builder=g_tableau`` keyword defaults, and onto the
``Polynomial`` and ``VariableUniverse`` classes, so a call through
``cli.main`` reaches the wrappers.  ``uninstall`` puts every original back.

Every wrapped call pushes a frame on one stack.  When it returns, its
duration is added to the parent frame's child time, and its self time
(duration minus child time) to its own function's total, so self times of
all functions plus the harness's own remainder add up exactly to the case
time.  Kernel calls only update counters keyed by (function, parent
function); spans (name, start, end, parent, case id) are kept for cases,
the CLI, verifiers, builders and ``restrict``.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

_MODULES = ("grothpoly", "grothpoly.poly", "grothpoly.tableaux", "grothpoly.grothendieck",
            "grothpoly.identities", "grothpoly.cli")

LAYERS = ("poly", "tableaux", "grothendieck", "identities", "cli")


def _terms(p) -> int:
    return getattr(p, "num_terms", 0)


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # frames: [name, child seconds, span id]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.by_parent: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self.restrict_keys: set = set()
        self.spans: list[tuple] = []
        self._case_id = None
        self._restore: list = []

    # -- bookkeeping ---------------------------------------------------------

    def _timed(self, name: str, fn, *, span: bool = False, account=None):
        stack, self_s, calls, by_parent = self._stack, self.self_s, self.calls, self.by_parent

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = None
            if span:
                span_id = len(self.spans)
                self.spans.append(None)
            frame = [name, 0.0, span_id if span else (parent[2] if parent else None)]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[1]
                self_s[name] += own
                calls[name] += 1
                entry = by_parent[(name, parent[0] if parent else "-")]
                entry[0] += 1
                entry[1] += own
                if parent is not None:
                    parent[1] += dur
                if span:
                    self.spans[span_id] = (
                        span_id, name, t0, t1, parent[2] if parent else None, self._case_id
                    )
            if account is not None:
                account(args, kwargs, result)
            return result

        return wrapper

    def run_case(self, case_id: str, fn):
        """Call fn() inside a "bench.case" span; its self time is the harness's."""
        self._case_id = case_id
        try:
            return self._timed("bench.case", fn, span=True)()
        finally:
            self._case_id = None

    # -- accounting hooks ----------------------------------------------------

    def _max_terms(self, result):
        n = _terms(result)
        if n > self.counts["poly.max_terms"]:
            self.counts["poly.max_terms"] = n

    def _account_result(self, prefix):
        def account(args, kwargs, result):
            self.counts[f"{prefix}.out_terms"] += _terms(result)
            self._max_terms(result)
        return account

    def _account_mul(self, args, kwargs, result):
        a, b = args
        nb = _terms(b) if hasattr(b, "num_terms") else int(bool(b))
        self.counts["poly.mul.term_pairs"] += _terms(a) * nb
        self.counts["poly.mul.out_terms"] += _terms(result)
        self._max_terms(result)

    def _account_substitute(self, args, kwargs, result):
        self.counts["poly.substitute.in_terms"] += _terms(args[0])
        self.counts["poly.substitute.out_terms"] += _terms(result)
        self._max_terms(result)

    def _account_exact_div(self, args, kwargs, result):
        self.counts["poly.exact_div.quot_terms"] += _terms(result)
        self._max_terms(result)

    def _account_restrict(self, args, kwargs, result):
        _builder, shape, subset, universe = args
        self.restrict_keys.add((tuple(shape), len(subset), universe.n_y))
        self._max_terms(result)

    # -- installation ----------------------------------------------------------

    def _swap_binding(self, original, wrapper):
        for modname in _MODULES:
            mod = sys.modules[modname]
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def _swap_attr(self, owner, attrs, wrapper):
        for attr in attrs:
            self._restore.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def _wrap_enumerate(self, fn):
        step = self._timed("tableaux.enumerate", next)
        counts = self.counts

        @functools.wraps(fn)
        def enumerate_tableaux(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                counts["tableaux.enumerate.tableaux"] += 1
                yield item

        return enumerate_tableaux

    def install(self) -> None:
        import grothpoly.cli as cli
        import grothpoly.grothendieck as gr
        import grothpoly.identities as ids
        import grothpoly.poly as poly
        import grothpoly.tableaux as tab

        if self._restore:
            raise RuntimeError("tracer already installed")
        P, U = poly.Polynomial, poly.VariableUniverse
        self._swap_attr(P, ("__mul__", "__rmul__"),
                        self._timed("poly.mul", P.__mul__, account=self._account_mul))
        self._swap_attr(P, ("__add__", "__radd__"), self._timed("poly.add", P.__add__))
        for attr, name in (("__sub__", "poly.sub"), ("__neg__", "poly.neg"),
                           ("__pow__", "poly.pow"), ("__eq__", "poly.eq"),
                           ("divided_difference", "poly.divided_difference"),
                           ("to_json_obj", "poly.to_json_obj")):
            self._swap_attr(P, (attr,), self._timed(name, P.__dict__[attr]))
        self._swap_attr(P, ("substitute",), self._timed(
            "poly.substitute", P.substitute, account=self._account_substitute))
        for attr in ("bracket_pow", "vandermonde"):
            self._swap_attr(U, (attr,), self._timed(f"poly.{attr}", U.__dict__[attr]))

        timed_sum = self._timed("poly.poly_sum", poly.poly_sum,
                                account=self._account_result("poly.poly_sum"))
        counts = self.counts

        def counted(polys):
            for p in polys:
                counts["poly.poly_sum.in_terms"] += _terms(p)
                yield p

        @functools.wraps(poly.poly_sum)
        def poly_sum(universe, polys):
            return timed_sum(universe, counted(polys))

        self._swap_binding(poly.poly_sum, poly_sum)
        self._swap_binding(poly.poly_prod, self._timed("poly.poly_prod", poly.poly_prod))
        self._swap_binding(poly.exact_div, self._timed(
            "poly.exact_div", poly.exact_div, account=self._account_exact_div))
        self._swap_binding(poly.determinant, self._timed("poly.determinant", poly.determinant))

        self._swap_binding(tab.enumerate_tableaux, self._wrap_enumerate(tab.enumerate_tableaux))
        self._swap_binding(tab.weight, self._timed("tableaux.weight", tab.weight))

        builder = None
        for name in ("g_tableau", "g_determinant", "g_divided_difference"):
            original = getattr(gr, name)
            wrapped = self._timed(f"grothendieck.{name}", original, span=True,
                                  account=self._account_result(f"grothendieck.{name}"))
            self._swap_binding(original, wrapped)
            if name == "g_tableau":
                builder = (original, wrapped)
        self._swap_binding(gr.pi_operator, self._timed("grothendieck.pi_operator", gr.pi_operator))
        self._swap_binding(gr.restrict, self._timed(
            "grothendieck.restrict", gr.restrict, span=True, account=self._account_restrict))
        # The verifiers bind builder=g_tableau when they are defined.
        original, wrapped = builder
        for fn in list(vars(ids).values()):
            kwd = getattr(fn, "__kwdefaults__", None)
            if kwd and kwd.get("builder") is original:
                self._restore.append((fn, "__kwdefaults__", kwd))
                fn.__kwdefaults__ = {**kwd, "builder": wrapped}

        for name in ("clear_denominator_gm", "clear_denominator_fnr"):
            original = getattr(ids, name)
            self._swap_binding(original, self._timed("identities.clear_denominator", original))
        self._swap_binding(ids.run_case, self._timed("identities.run_case", ids.run_case, span=True))
        self._swap_binding(cli.main, self._timed("cli.main", cli.main, span=True))

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._restore):
            setattr(owner, attr, val)
        self._restore.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -----------------------------------------------------------------

    def layer_self_ms(self) -> dict[str, float]:
        """Self time per layer, plus "bench" for the harness's remainder."""
        out = {layer: 0.0 for layer in LAYERS + ("bench",)}
        for name, secs in self.self_s.items():
            out[name.split(".", 1)[0]] += secs * 1000
        return out
