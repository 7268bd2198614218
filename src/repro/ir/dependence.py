"""Affine dependence analysis.

The paper assumes the motivating loop nest is fully parallel ("check
with Tiny"); this module is the substrate that performs that check.  A
dependence exists between access ``(S1, F1, c1)`` and ``(S2, F2, c2)``
on the same array (at least one a write) iff the linear system

    ``F1 I1 + c1 = F2 I2 + c2``

has an integer solution with both ``I1`` and ``I2`` inside their
iteration domains.  We combine three classical tests, each exact in the
direction it reports:

1. **GCD test** — necessary condition for integer solvability of each
   subscript equation; a failure disproves the dependence.
2. **Exact lattice test** — integer solvability of the whole stacked
   system via the Smith form (no approximation).
3. **Domain test** — Fourier–Motzkin elimination over the rationals on
   the solution lattice restricted to both statements' polyhedral
   iteration domains (:func:`domain_feasible`; triangular constraints
   enter exactly, rectangular ones reduce to the classical box bounds);
   exactness holds for the rational relaxation and is conservative (may
   report a dependence that only rational points realize, which is
   safe).

Two implementation notes:

* **Integer Fourier–Motzkin** — every system the lattice-domain tests
  build has integer entries, so elimination runs on Python ints
  (:func:`_fm_feasible`): each round cross-multiplies opposing rows
  and divides the result by its gcd, which gives the same verdicts as
  elimination over ``Fraction`` at any magnitude.
* **Memoization** — :func:`test_dependence` is cached on a canonical
  ``(F, c, kind, domain, params)`` key through the linalg-cache
  framework (counters under ``ir.dependence.cache.*``): schedule
  inference asks it once per access pair, and legality checking then
  reads the same verdicts to skip disproved pairs.  Schedule inference
  memoizes its outer depth per ``(nest, params)`` in the second memo
  here; only the pairs inference keeps reach the carried-level test
  :func:`dependent_within`.  Size: :data:`DEPENDENCE_CACHE_SIZE`
  entries per memo (verdicts are identical with the memo off).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from ..linalg import IntMat, solve_axb
from ..linalg.cache import _MISSING, NormalFormCache
from ..obs import span
from ..obs.metrics import register_provider
from .access import AccessKind, AffineAccess
from .loopnest import LoopNest, Statement


@dataclass(frozen=True)
class Dependence:
    """A (possibly conservative) dependence between two accesses."""

    array: str
    source: str  # statement name
    sink: str
    kind: str  # "flow", "anti", "output", "input"
    proven: bool  # True if an explicit witness was found


# ---------------------------------------------------------------------------
# test 1: GCD
# ---------------------------------------------------------------------------

def gcd_test(f1: IntMat, c1: IntMat, f2: IntMat, c2: IntMat) -> bool:
    """Return False when the GCD test *disproves* any integer solution
    of ``F1 I1 - F2 I2 = c2 - c1`` (row by row); True otherwise."""
    rows = f1.nrows
    for r in range(rows):
        coeffs = list(f1[r]) + [-x for x in f2[r]]
        rhs = c2[r, 0] - c1[r, 0]
        g = 0
        for x in coeffs:
            g = gcd(g, abs(x))
        if g == 0:
            if rhs != 0:
                return False
            continue
        if rhs % g != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# test 2: exact integer solvability of the stacked system
# ---------------------------------------------------------------------------

def lattice_test(f1: IntMat, c1: IntMat, f2: IntMat, c2: IntMat):
    """Solve ``[F1 | -F2] (I1; I2) = c2 - c1`` over the integers.

    Returns the :class:`~repro.linalg.DiophantineSolution` or ``None``
    when no integer solution exists (dependence disproved).
    """
    a = f1.hstack(-1 * f2)
    b = c2 - c1
    return solve_axb(a, b)


# ---------------------------------------------------------------------------
# test 3: Fourier–Motzkin on the solution lattice within loop bounds
# ---------------------------------------------------------------------------

def _fm_feasible(rows: Sequence[Sequence[int]], nvars: int) -> bool:
    """Rational feasibility of the integer system ``A y <= b`` given as
    ``[coeffs..., rhs]`` rows, by Fourier–Motzkin elimination on Python
    ints (exact at any magnitude).

    Eliminating ``var`` combines each positive row ``p`` (pivot ``a``)
    with each negative row ``n`` (pivot ``-b``) as ``p * b + n * a`` —
    the rational combination ``p/a + n/b`` scaled by the positive
    ``a * b``, so verdicts equal those of ``Fraction`` elimination.
    Each new row is divided by the gcd of its entries to keep
    magnitudes small.
    """
    system = []
    for r in rows:
        if any(r[:nvars]):
            system.append(tuple(r))
        elif r[nvars] < 0:
            return False  # 0 <= negative: contradictory from the start
    for var in range(nvars):
        if len(system) <= 1:
            return True  # zero or one live inequality: always feasible
        pos, neg, rest = [], [], []
        for r in system:
            c = r[var]
            if c > 0:
                pos.append(r)
            elif c < 0:
                neg.append(r)
            else:
                rest.append(r)
        if pos and neg:
            new = rest
            for p in pos:
                a = p[var]
                for n in neg:
                    b = -n[var]
                    row = [x * b + y * a for x, y in zip(p, n)]
                    row[var] = 0
                    if any(row[:nvars]):
                        g = 0
                        for x in row:
                            g = gcd(g, x)
                        if g > 1:
                            row = [x // g for x in row]
                        new.append(tuple(row))
                    elif row[nvars] < 0:
                        # fully eliminated and contradictory: settled
                        return False
            # dedupe to damp the quadratic blow-up (tiny sets skip it)
            system = list(dict.fromkeys(new)) if len(new) > 4 else new
        else:
            # no opposing pair: var is unbounded on one side, every row
            # mentioning it is satisfiable and projects out
            system = rest
    # every surviving row was alive-filtered, so nothing contradictory
    # can remain once all variables are gone
    return True


def _lattice_rows(
    part: Sequence[int],
    hom_cols: Sequence[Sequence[int]],
    point_ineqs: Sequence[Tuple[Sequence[int], int]],
) -> List[List[int]]:
    """The FM system of :func:`domain_feasible`.

    ``point_ineqs`` constrain the *stacked point dimensions*: each
    ``(coeffs, off)`` means ``coeffs . point + off >= 0``.  Substituting
    ``point = part + H y`` turns it into the integer FM row
    ``(-coeffs . H) y <= coeffs . part + off``.
    """
    rows: List[List[int]] = []
    for coeffs, off in point_ineqs:
        row = [
            -sum(a * h[i] for i, a in enumerate(coeffs) if a)
            for h in hom_cols
        ]
        row.append(sum(a * p for a, p in zip(coeffs, part) if a) + off)
        rows.append(row)
    return rows


def domain_feasible(sol, s1: Statement, s2: Statement, params: Dict[str, int]) -> bool:
    """Check whether some lattice point of ``sol`` lies inside both
    statements' polyhedral iteration domains (rational relaxation —
    conservative).

    For rectangular domains the inequality system is the classical box
    of loop bounds; triangular/trapezoidal constraints
    (``for j = i..N``) enter the Fourier–Motzkin system exactly instead
    of being widened to their rectangular hull.
    """
    part = sol.particular.column_tuple(0)
    hom_cols = [h.column_tuple(0) for h in sol.homogeneous]
    nvars = len(hom_cols)
    d1 = s1.depth
    assert len(part) == d1 + s2.depth
    if nvars == 0:
        return s1.domain.contains(part[:d1], params) and s2.domain.contains(
            part[d1:], params
        )
    ndims = len(part)
    point_ineqs: List[Tuple[List[int], int]] = []
    for dom, offset in ((s1.domain, 0), (s2.domain, d1)):
        for con in dom.constraints:
            # a . I + off >= 0 over this statement's slice of the point
            coeffs = [0] * ndims
            for i, a in enumerate(con.var_coeffs):
                coeffs[offset + i] = a
            point_ineqs.append((coeffs, con.offset(params)))
    return _fm_feasible(_lattice_rows(part, hom_cols, point_ineqs), nvars)


# ---------------------------------------------------------------------------
# memo caches — test_dependence and schedule inference
# ---------------------------------------------------------------------------

#: entries of each memo below (tests patch it to 0 to bypass both)
DEPENDENCE_CACHE_SIZE = 4096

#: counters live under ``ir.dependence.cache.<name>.{hits,misses}``
_dep_cache = NormalFormCache(
    "test_dependence",
    maxsize=DEPENDENCE_CACHE_SIZE,
    namespace="ir.dependence.cache",
)
#: the sequential outer depth per ``(nest, params)`` (owned here so
#: one constant governs both; filled by :mod:`repro.ir.schedule`)
_schedule_cache = NormalFormCache(
    "schedule_depth",
    maxsize=DEPENDENCE_CACHE_SIZE,
    namespace="ir.dependence.cache",
)


def dependence_cache_enabled() -> bool:
    return DEPENDENCE_CACHE_SIZE > 0


def clear_dependence_caches() -> None:
    """Empty both memo caches and reset their counters."""
    _dep_cache.clear()
    _schedule_cache.clear()


def dependence_cache_stats() -> Dict[str, Dict[str, int]]:
    """``{cache name: {hits, misses, size, maxsize}}`` for the
    dependence-analysis memo caches of this process."""
    return {
        "test_dependence": _dep_cache.stats(),
        "schedule_depth": _schedule_cache.stats(),
    }


register_provider("ir.dependence.cache", dependence_cache_stats)


def _domain_key(s: Statement):
    """Canonical hashable key of a statement's iteration domain — the
    constraint tuple (frozen dataclasses) plus depth; names don't enter
    the dependence verdict."""
    return (s.depth, s.domain.constraints)


def _params_key(params: Dict[str, int]) -> Tuple[Tuple[str, int], ...]:
    return tuple(sorted(params.items()))


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _dep_kind(kind1: AccessKind, kind2: AccessKind) -> str:
    if kind1 is AccessKind.WRITE and kind2 is AccessKind.READ:
        return "flow"
    if kind1 is AccessKind.READ and kind2 is AccessKind.WRITE:
        return "anti"
    if kind1 is AccessKind.WRITE and kind2 is AccessKind.WRITE:
        return "output"
    return "input"


def test_dependence(
    s1: Statement,
    a1: AffineAccess,
    s2: Statement,
    a2: AffineAccess,
    params: Dict[str, int],
    same_statement_distinct: bool = True,
) -> Optional[str]:
    """Full dependence test between two accesses to the same array.

    Returns the dependence kind string when a dependence may exist, or
    ``None`` when it is disproved.  ``params`` binds symbolic sizes for
    the bounds test.

    The verdict is a pure function of the access matrices, kinds, the
    two domains and the parameter binding, so it is memoized on that
    canonical key (see the module docstring) — schedule inference and
    legality checks re-ask the same questions many times per compile.
    """
    if a1.array != a2.array:
        return None
    if a1.kind is AccessKind.READ and a2.kind is AccessKind.READ:
        return None  # input "dependences" don't constrain parallelism
    if not dependence_cache_enabled():
        return _test_dependence_uncached(
            s1, a1, s2, a2, params, same_statement_distinct
        )
    key = (
        a1.F,
        a1.c,
        a1.kind,
        a2.F,
        a2.c,
        a2.kind,
        _domain_key(s1),
        _domain_key(s2),
        s1 is s2 and a1 is a2,
        same_statement_distinct,
        _params_key(params),
    )
    value = _dep_cache.get(key)
    if value is _MISSING:
        value = _test_dependence_uncached(
            s1, a1, s2, a2, params, same_statement_distinct
        )
        _dep_cache.put(key, value)
    return value


def _test_dependence_uncached(
    s1: Statement,
    a1: AffineAccess,
    s2: Statement,
    a2: AffineAccess,
    params: Dict[str, int],
    same_statement_distinct: bool = True,
) -> Optional[str]:
    """The memo-free dependence test (the bit-identity baseline the
    memoized entry is tested against)."""
    if a1.array != a2.array:
        return None
    if a1.kind is AccessKind.READ and a2.kind is AccessKind.READ:
        return None
    if not gcd_test(a1.F, a1.c, a2.F, a2.c):
        return None
    sol = lattice_test(a1.F, a1.c, a2.F, a2.c)
    if sol is None:
        return None
    if not domain_feasible(sol, s1, s2, params):
        return None
    if s1 is s2 and a1 is a2 and same_statement_distinct:
        # self-dependence of a single access needs I1 != I2; a lattice
        # with only the trivial diagonal solution is not a dependence.
        if not _has_distinct_solution(sol, s1.depth):
            return None
    return _dep_kind(a1.kind, a2.kind)


def _has_distinct_solution(sol, depth: int) -> bool:
    """True when the solution lattice contains a point with I1 != I2."""
    part = sol.particular.column_tuple(0)
    if part[:depth] != part[depth:]:
        return True
    for h in sol.homogeneous:
        col = h.column_tuple(0)
        if col[:depth] != col[depth:]:
            return True
    return False


def dependent_within(
    s1: Statement,
    a1: AffineAccess,
    s2: Statement,
    a2: AffineAccess,
    params: Dict[str, int],
    outer: int,
) -> bool:
    """Whether a witness pair of the two accesses survives with the
    first ``outer`` loop indices of both instances equal (the
    dependence is then not carried by those loops).

    Stacks ``I1[j] = I2[j]`` (``j < outer <= min(depths)``) under
    ``[F1 | -F2]`` and re-runs the lattice and domain tests, plus the
    distinct-instance test for the self-pair of one access.  At
    ``outer = 0`` this is :func:`test_dependence`'s verdict.  Each
    equality restricts the witness lattice (and its rational hull), so
    the verdict is monotone: once ``False`` it stays ``False`` for
    every larger ``outer``.
    """
    d1, d2 = s1.depth, s2.depth
    eq_rows = []
    for j in range(outer):
        row = [0] * (d1 + d2)
        row[j] = 1
        row[d1 + j] = -1
        eq_rows.append(row)
    a = IntMat(a1.F.hstack(-1 * a2.F).tolist() + eq_rows)
    b = IntMat.col(list((a2.c - a1.c).column_tuple(0)) + [0] * outer)
    sol = solve_axb(a, b)
    if sol is None or not domain_feasible(sol, s1, s2, params):
        return False
    if s1 is s2 and a1 is a2:
        # same-instance solutions of a single access aren't dependences
        return _has_distinct_solution(sol, d1)
    return True


def find_dependences(nest: LoopNest, params: Dict[str, int]) -> List[Dependence]:
    """All (conservatively) existing non-input dependences of the nest."""
    out: List[Dependence] = []
    with span("compile.dependence"):
        pairs = nest.all_accesses()
        for i, (s1, a1) in enumerate(pairs):
            for s2, a2 in pairs[i:]:
                kind = test_dependence(s1, a1, s2, a2, params)
                if kind is not None:
                    out.append(
                        Dependence(
                            array=a1.array,
                            source=s1.name,
                            sink=s2.name,
                            kind=kind,
                            proven=False,
                        )
                    )
    return out


def is_fully_parallel(nest: LoopNest, params: Dict[str, int]) -> bool:
    """True when no flow/anti/output dependence exists: every statement
    instance may execute at the same time step (all loops DOALL)."""
    return not find_dependences(nest, params)
