"""Seeded case lists for the three benchmark workloads.

Each case is one call of ``grothpoly.cli.main`` with the argument list the
benchmark generated; the program never sees the seed.  The lists are built
here from first principles (partitions in a box, the identities' parameter
ranges) rather than from the package's own grid helpers, so a change to
those helpers cannot change what the benchmark measures.

A seed draws the n = 4 cases (and, for constructions, one heavy n = 3
shape).  The draws are stratified by k and by cost: each case comes from a
pool of cases of like cost, timed with Python 3.11 on a 2-vCPU x86-64
machine, so every seed carries about the same load and its slowest cases
are of the same kind.  Otherwise a seed that happened to draw the 19 s GM
case would swamp the run-to-run spread the benchmark is meant to resolve.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations_with_replacement

WORKLOADS = ("deformed_grid", "classical_grid", "constructions")

# The n = 4 verification cases, grouped by measured cost (Python 3.11,
# 2 vCPUs).  Every seed gets the two heavy anchors (1.6-1.8 * 10^5-term
# cleared sides, 2-4 s each), two cases drawn from the medium pool
# (0.35-0.66 s each) and a draw from each tiny stratum (under 50 ms each).
# Because the tiers do not overlap, the slowest cases of a pass are the
# same for every seed, and the tail percentile falls inside the dense group
# of n = 3 GM cases (80-110 ms), which keeps wall_s and case_tail_ms steady.
_N4_GM_ANCHOR = (3, 3, 3, 2)
_N4_FNR_ANCHOR = ((1,), 4)
_N4_MEDIUM = (  # ascending cost: ("gm", shape) or ("fnr", (shape, m))
    ("fnr", ((1, 1), 4)), ("gm", (2, 1, 1, 0)), ("gm", (2, 2, 1, 0)),
    ("gm", (3, 1, 1)), ("fnr", ((2,), 3)), ("gm", (3, 3, 0)),
    ("gm", (2, 1, 0, 0)), ("fnr", ((1, 0), 4)), ("gm", (3, 1, 0)),
    ("gm", (3, 3, 1)), ("gm", (3, 2, 2)), ("gm", (3, 3, 2)),
)
_N4_MEDIUM_DRAWS = 2
_N4_TINY_GM = {  # k -> (shapes, draws)
    1: (((3,), (2,), (1,), (0,)), 1),
    2: (((3, 3), (3, 1), (3, 0), (2, 2), (2, 1), (2, 0), (1, 1), (1, 0), (0, 0)), 2),
    3: (((2, 2, 2), (2, 0, 0), (1, 1, 1), (1, 1, 0), (1, 0, 0), (0, 0, 0)), 2),
    4: (((2, 2, 2, 2), (1, 1, 1, 1), (1, 1, 1, 0), (1, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0)), 2),
}
_N4_TINY_FNR = {  # k -> ((shape, m) pairs, draws)
    1: ((((0,), 1), ((1,), 2), ((0,), 2)), 1),
    2: ((((0, 0), 2), ((0, 0), 3)), 1),
    3: ((((0, 0, 0), 3), ((1, 1, 1), 4), ((1, 1, 0), 4), ((1, 0, 0), 4), ((0, 0, 0), 4)), 2),
    4: ((((0, 0, 0, 0), 4),), 1),
}
_MAX_PART = 3  # shapes live in boxes of width 3
_MAX_M = 4


@dataclass(frozen=True)
class Case:
    """One call into the CLI and what its output must satisfy.

    ``check`` is "verdict" (the report must say pass), "agree" (compute
    --method all: every method prints the same polynomial, which must match
    the oracle) or "oracle" (one method's polynomial must match the oracle
    and every other case with the same ``pair`` key).
    """

    case_id: str
    argv: tuple[str, ...]
    check: str
    shape: tuple[int, ...] = ()
    n: int = 0
    pair: str = ""
    known_defect: bool = False


def _shapes(k: int, max_part: int = _MAX_PART):
    """Weakly decreasing k-tuples with parts in [0, max_part], largest first."""
    return list(combinations_with_replacement(range(max_part, -1, -1), k))


def _partitions_in_box(rows: int, cols: int) -> list[tuple[int, ...]]:
    """Partitions (no zero parts) with at most `rows` parts, each at most `cols`."""
    out = set()
    for k in range(rows + 1):
        for lam in _shapes(k, cols):
            out.add(tuple(p for p in lam if p))
    return sorted(out, key=lambda lam: (sum(lam), lam))


def _fmt(shape) -> str:
    return ",".join(str(p) for p in shape)


def _gm_zero_case(lam, n) -> bool:
    """The shifted shape (lam_i - n + k) is not a partition.  The program
    takes the left side to be 0 there, which makes the beta-deformed identity
    fail (a known defect of the program, not of the identity)."""
    return bool(lam) and lam[-1] - n + len(lam) < 0


def _gm(identity, lam, n) -> Case:
    return Case(
        case_id=f"{identity} lam={_fmt(lam)} n={n}",
        argv=("verify", identity, "--shape", _fmt(lam), "--n", str(n), "--format", "json"),
        check="verdict",
        known_defect=identity == "gm_type" and _gm_zero_case(lam, n),
    )


def _fnr(identity, lam, m, n) -> Case:
    return Case(
        case_id=f"{identity} lam={_fmt(lam)} m={m} n={n}",
        argv=(
            "verify", identity, "--shape", _fmt(lam), "--m", str(m), "--n", str(n),
            "--format", "json",
        ),
        check="verdict",
    )


def _verify(identity, **params) -> Case:
    argv = ["verify", identity]
    for name, val in params.items():
        argv += [f"--{name}", str(val)]
    argv += ["--format", "json"]
    label = " ".join(f"{k}={v}" for k, v in params.items())
    return Case(case_id=f"{identity} {label}", argv=tuple(argv), check="verdict")


def _gm_params(n):
    return [lam for k in range(1, n + 1) for lam in _shapes(k)]


def _fnr_params(n):
    return [
        (lam, m)
        for k in range(1, n + 1)
        for m in range(k, _MAX_M + 1)
        for lam in _shapes(k, m - k)
    ]


def _binned_draw(rng: random.Random, pool, draws: int) -> list:
    """One item from each of `draws` bins of adjacent positions in a pool
    listed in ascending cost."""
    draws = min(draws, len(pool))
    picks = []
    for b in range(draws):
        lo, hi = b * len(pool) // draws, (b + 1) * len(pool) // draws
        picks.append(rng.choice(pool[lo:hi]))
    return picks


def n4_identity_draw(rng: random.Random) -> tuple[list, list]:
    """Seeded n = 4 GM shapes and FNR (shape, m) pairs, stratified by cost and k."""
    gm, fnr = [_N4_GM_ANCHOR], [_N4_FNR_ANCHOR]
    for kind, params in _binned_draw(rng, _N4_MEDIUM, _N4_MEDIUM_DRAWS):
        (gm if kind == "gm" else fnr).append(params)
    for k in range(1, 5):
        gm += rng.sample(*_N4_TINY_GM[k])
        fnr += rng.sample(*_N4_TINY_FNR[k])
    return gm, fnr


def _identity_grid(rng: random.Random, gm_tag: str, fnr_tag: str) -> list[Case]:
    gm4, fnr4 = n4_identity_draw(rng)
    cases = []
    for n in (1, 2, 3):
        cases += [_gm(gm_tag, lam, n) for lam in _gm_params(n)]
    cases += [_gm(gm_tag, lam, 4) for lam in gm4]
    for n in (1, 2, 3):
        cases += [_fnr(fnr_tag, lam, m, n) for lam, m in _fnr_params(n)]
    cases += [_fnr(fnr_tag, lam, m, 4) for lam, m in fnr4]
    return cases


def _corollaries() -> list[Case]:
    cases = [_verify("vandermonde_lemma", n=n) for n in range(1, 6)]
    cases += [_verify("good_general", n=n) for n in range(1, 6)]
    cases += [
        _verify("louck_general", m=m, n=n) for n in range(1, 5) for m in range(n - 1, 6)
    ]
    cases += [_verify("good_k_general", n=n, k=k) for n in range(1, 6) for k in range(n + 1)]
    cases += [
        _verify("e_beta_recurrence", k=k, n=n) for n in range(1, 7) for k in range(n + 1)
    ]
    return cases


def _compute(shape, n, method) -> Case:
    check = "agree" if method == "all" else "oracle"
    return Case(
        case_id=f"compute {method} shape={_fmt(shape)} n={n}",
        argv=(
            "compute", "--shape", _fmt(shape), "--n", str(n), "--method", method,
            "--format", "json",
        ),
        check=check,
        shape=tuple(shape),
        n=n,
        pair=f"{_fmt(shape)}/{n}" if check == "oracle" else "",
    )


# Constructions drawn per seed: one shape from each pool; shapes in a pool
# take about the same time (Python 3.11, 2 vCPUs).
_N3_DD_POOL = ((3, 2), (3, 2, 2), (3, 2, 1))  # --method all at n = 3: S_6, ~1.3 s
_N4_POOLS = (  # tableau + determinant at n = 4
    ((1,), (1, 1), (1, 1, 1)),  # ~0.1 s
    ((2, 1), (2, 2)),  # ~0.7 s
    ((2, 1, 1), (2, 2, 2)),  # ~1.1 s
)
# Fixed heavy shape (7 MB of JSON); a drawn one would make peak RSS depend on
# the seed.
_N4_HEAVY = (3, 2)


def _constructions(rng: random.Random) -> list[Case]:
    box = _partitions_in_box(3, 3)
    cases = []
    for n in (1, 2, 3):
        shapes = [lam for lam in box if len(lam) <= n]
        if n == 3:  # divided differences at lam_1 = 3 take 1.3-2 s a shape
            shapes = [lam for lam in shapes if not lam or lam[0] <= 2]
            shapes.append(rng.choice(_N3_DD_POOL))
        cases += [_compute(lam, n, "all") for lam in shapes]
        # Each single builder on every shape: these many millisecond calls
        # set case_p50_ms, and the n = 3 determinants case_tail_ms.
        for lam in (lam for lam in box if len(lam) <= n):
            cases += [_compute(lam, n, "tableau"), _compute(lam, n, "determinant")]
    # At n = 4 the divided-difference route takes minutes (S_7), so only the
    # tableau and determinant builders run.
    for lam in [rng.choice(pool) for pool in _N4_POOLS] + [_N4_HEAVY]:
        cases += [_compute(lam, 4, "tableau"), _compute(lam, 4, "determinant")]
    return cases


def generate(workload: str, seed: int) -> list[Case]:
    """The case list of a workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "deformed_grid":
        return _identity_grid(rng, "gm_type", "fnr_type") + _corollaries()
    if workload == "classical_grid":
        cases = _identity_grid(rng, "classical_gm", "classical_fnr")
        cases += [_verify("classical_good", n=n) for n in (2, 3, 4)]
        cases.append(_verify("classical_louck", m=3, n=2))
        return cases
    if workload == "constructions":
        return _constructions(rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
