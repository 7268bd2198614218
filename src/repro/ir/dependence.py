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
* **One set of facts per compile** — :func:`dependence_facts` walks
  the access pairs of a nest once and keeps, per pair, its verdict,
  its witness lattice ``x = p + H y`` and the level at which the walk
  found it independent (:class:`DependenceFacts`; the levels come from
  one walk over the kept pairs, made on first use).  Schedule
  inference, legality checking, :func:`find_dependences` and
  :func:`is_fully_parallel` all read these facts, so each verdict has
  one path.  A carried level comes from the pair's own lattice: the
  index equalities ``I1[j] = I2[j]`` become rows in ``y``, and only
  the rows with a non-zero homogeneous part need a (small) solve
  (:func:`_dependent_at`).  The facts are memoized on the nest's
  content and the size binding, in one memo of
  :data:`DEPENDENCE_CACHE_SIZE` entries counted under
  ``ir.dependence.cache.dependence_facts.{hits,misses}``; campaign
  grids compile identical nests once per knob value.  The memo lives
  in its process (nothing of it is pickled), and verdicts are
  identical with it off.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from ..linalg import DiophantineSolution, IntMat, solve_axb
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
    return _lattice_in_domains(
        sol.particular.column_tuple(0),
        [h.column_tuple(0) for h in sol.homogeneous],
        s1,
        s2,
        params,
    )


def _lattice_in_domains(
    part: Sequence[int],
    hom_cols: Sequence[Sequence[int]],
    s1: Statement,
    s2: Statement,
    params: Dict[str, int],
) -> bool:
    """:func:`domain_feasible` on the lattice ``part + H y`` given as
    tuples."""
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
# per-pair tests
# ---------------------------------------------------------------------------

def _dep_kind(kind1: AccessKind, kind2: AccessKind) -> str:
    if kind1 is AccessKind.WRITE and kind2 is AccessKind.READ:
        return "flow"
    if kind1 is AccessKind.READ and kind2 is AccessKind.WRITE:
        return "anti"
    if kind1 is AccessKind.WRITE and kind2 is AccessKind.WRITE:
        return "output"
    return "input"


def _witness_lattice(
    s1: Statement,
    a1: AffineAccess,
    s2: Statement,
    a2: AffineAccess,
    params: Dict[str, int],
    self_pair: bool,
) -> Optional[DiophantineSolution]:
    """The integer solution lattice of ``F1 I1 + c1 = F2 I2 + c2``, or
    ``None`` when the GCD, lattice or domain test disproves the pair —
    for the ``self_pair`` of one access also when its only solutions
    are same-instance ones (``I1 = I2``)."""
    if not gcd_test(a1.F, a1.c, a2.F, a2.c):
        return None
    sol = lattice_test(a1.F, a1.c, a2.F, a2.c)
    if sol is None or not domain_feasible(sol, s1, s2, params):
        return None
    if self_pair and not _has_distinct_solution(sol, s1.depth):
        return None
    return sol


def _has_distinct_solution(sol, depth: int) -> bool:
    """True when the solution lattice contains a point with I1 != I2."""
    return _has_distinct_point(
        sol.particular.column_tuple(0),
        [h.column_tuple(0) for h in sol.homogeneous],
        depth,
    )


def _has_distinct_point(
    part: Tuple[int, ...], hom_cols: Sequence[Tuple[int, ...]], depth: int
) -> bool:
    return any(col[:depth] != col[depth:] for col in (part, *hom_cols))


def _dependent_at(
    sol: DiophantineSolution,
    s1: Statement,
    s2: Statement,
    params: Dict[str, int],
    outer: int,
    self_pair: bool,
) -> bool:
    """Whether the kept pair with witness lattice ``sol`` keeps a
    witness once the first ``outer`` indices of both instances are
    equal (the dependence is then not carried by those loops).

    On the lattice ``x = p + H y`` of ``x = (I1; I2)`` each equality
    ``I1[j] = I2[j]`` is the row ``(H[j] - H[d1 + j]) y = p[d1 + j] -
    p[j]`` in ``y``.  A row with a zero homogeneous part needs no
    solve: its right-hand side is zero (the equality holds on the whole
    lattice) or not (it holds nowhere).  The other rows go through one
    Smith solve ``y = q + G z``, and the restricted lattice ``x = (p +
    H q) + (H G) z`` through the domain and distinct-instance tests.
    It has the integer points, and so the rational affine hull, of the
    stacked system ``[F1 | -F2] x = c2 - c1, I1[j] = I2[j]``, so the
    verdicts are the stacked re-solve's.  Each equality restricts the
    witness set, so the verdict is monotone in ``outer``.
    """
    d1 = s1.depth
    part = sol.particular.column_tuple(0)
    hom = [h.column_tuple(0) for h in sol.homogeneous]
    rows, rhs = [], []
    for j in range(outer):
        row = [h[j] - h[d1 + j] for h in hom]
        b = part[d1 + j] - part[j]
        if any(row):
            rows.append(row)
            rhs.append(b)
        elif b:
            return False  # I1[j] - I2[j] is the non-zero constant -b
    if not rows:
        # every equality holds on the whole lattice, which the kept
        # verdict already proved dependent
        return True
    restricted = solve_axb(IntMat(rows), IntMat.col(rhs))
    if restricted is None:
        return False
    q = restricted.particular.column_tuple(0)
    n = len(part)
    part2 = tuple(
        part[r] + sum(h[r] * qc for h, qc in zip(hom, q) if qc) for r in range(n)
    )
    hom2 = [
        tuple(sum(h[r] * gc for h, gc in zip(hom, g) if gc) for r in range(n))
        for g in (c.column_tuple(0) for c in restricted.homogeneous)
    ]
    if not _lattice_in_domains(part2, hom2, s1, s2, params):
        return False
    return not self_pair or _has_distinct_point(part2, hom2, d1)


def test_dependence(
    s1: Statement,
    a1: AffineAccess,
    s2: Statement,
    a2: AffineAccess,
    params: Dict[str, int],
) -> Optional[str]:
    """Full dependence test between two accesses to the same array.

    Returns the dependence kind string when a dependence may exist, or
    ``None`` when it is disproved.  ``params`` binds symbolic sizes for
    the bounds test.  The self-pair of one access (``s1 is s2 and a1
    is a2``) needs two distinct instances.  The compile path reads
    these verdicts from :func:`dependence_facts`, which makes this test
    for every pair of a nest at once.
    """
    if a1.array != a2.array:
        return None
    if a1.kind is AccessKind.READ and a2.kind is AccessKind.READ:
        return None  # input "dependences" don't constrain parallelism
    sol = _witness_lattice(s1, a1, s2, a2, params, s1 is s2 and a1 is a2)
    return None if sol is None else _dep_kind(a1.kind, a2.kind)


# ---------------------------------------------------------------------------
# the dependence facts of a nest, and their memo
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairFacts:
    """The verdict and witness lattice of one access pair."""

    #: dependence kind (``"flow"``, ``"anti"``, ``"output"``), or
    #: ``None`` when the pair is disproved
    kind: Optional[str]
    #: the witness lattice of a kept pair (``None`` when disproved)
    lattice: Optional[DiophantineSolution] = None


_DISPROVED = PairFacts(kind=None)


class DependenceFacts:
    """The dependence facts of one nest under one size binding.

    ``pairs`` maps ``(i, j)`` to the :class:`PairFacts` of every pair
    ``i <= j`` of positions in ``nest.all_accesses()`` on one array
    with at least one write, in walk order (``i`` major).  The carried
    levels (:attr:`outer`, :meth:`level`) come from one walk over the
    kept pairs, made on first use: checking an explicit schedule that
    is not outer-sequential never needs them.
    """

    def __init__(
        self,
        nest: LoopNest,
        params: Dict[str, int],
        pairs: Dict[Tuple[int, int], PairFacts],
    ):
        self.pairs = pairs
        self._nest = nest
        self._params = dict(params)
        self._carried: Optional[Tuple[Optional[int], Dict]] = None

    @property
    def outer(self) -> Optional[int]:
        """The sequential outer depth of
        :func:`~repro.ir.infer_schedules`, ``None`` when every pair is
        disproved."""
        return self._levels()[0]

    def level(self, i: int, j: int) -> Optional[int]:
        """The level ``k`` at which the walk found kept pair ``(i, j)``
        independent: no witness survives once the first ``k`` indices
        of both instances are equal.  ``None`` when not shown (the pair
        is carried by no loop, or disproved)."""
        return self._levels()[1].get((i, j))

    def _levels(self):
        if self._carried is None:
            self._carried = _carried_levels(self._nest, self._params, self.pairs)
        return self._carried


#: entries of the facts memo (tests patch it to 0 to bypass it)
DEPENDENCE_CACHE_SIZE = 4096

#: counters live under ``ir.dependence.cache.<name>.{hits,misses}``
_facts_cache = NormalFormCache(
    "dependence_facts",
    maxsize=DEPENDENCE_CACHE_SIZE,
    namespace="ir.dependence.cache",
)


def dependence_cache_enabled() -> bool:
    return DEPENDENCE_CACHE_SIZE > 0


def clear_dependence_caches() -> None:
    """Empty the facts memo and reset its counters."""
    _facts_cache.clear()


def dependence_cache_stats() -> Dict[str, Dict[str, int]]:
    """``{cache name: {hits, misses, size, maxsize}}`` for the
    dependence-analysis memo of this process."""
    return {"dependence_facts": _facts_cache.stats()}


register_provider("ir.dependence.cache", dependence_cache_stats)


def _params_key(params: Dict[str, int]) -> Tuple[Tuple[str, int], ...]:
    return tuple(sorted(params.items()))


def _nest_key(nest: LoopNest):
    """Canonical hashable key of a nest's dependence-relevant content:
    per-statement depth, domain constraints and access list (order
    preserved — pair positions and the self-pair are positional).
    Statement names don't enter any verdict."""
    return tuple(
        (s.depth, s.domain.constraints, tuple(s.accesses))
        for s in nest.statements
    )


def dependence_facts(nest: LoopNest, params: Dict[str, int]) -> DependenceFacts:
    """The :class:`DependenceFacts` of ``nest`` under ``params``,
    memoized on the nest's content (see the module docstring)."""
    if not dependence_cache_enabled():
        return _walk_pairs(nest, params)
    key = (_nest_key(nest), _params_key(params))
    facts = _facts_cache.get(key)
    if facts is _MISSING:
        facts = _walk_pairs(nest, params)
        _facts_cache.put(key, facts)
    return facts


def _walk_pairs(nest: LoopNest, params: Dict[str, int]) -> DependenceFacts:
    """One walk over the access pairs: each candidate pair's verdict
    and witness lattice."""
    facts: Dict[Tuple[int, int], PairFacts] = {}
    pairs = nest.all_accesses()
    with span("compile.dependence"):
        for i, (s1, a1) in enumerate(pairs):
            for j in range(i, len(pairs)):
                s2, a2 = pairs[j]
                if a1.array != a2.array:
                    continue
                if a1.kind is AccessKind.READ and a2.kind is AccessKind.READ:
                    continue
                sol = _witness_lattice(s1, a1, s2, a2, params, i == j)
                facts[i, j] = (
                    _DISPROVED if sol is None
                    else PairFacts(_dep_kind(a1.kind, a2.kind), sol)
                )
    return DependenceFacts(nest, params, facts)


def _carried_levels(
    nest: LoopNest,
    params: Dict[str, int],
    facts: Dict[Tuple[int, int], PairFacts],
) -> Tuple[Optional[int], Dict[Tuple[int, int], int]]:
    """``(outer, levels)``: the sequential outer depth, and the level at
    which each kept pair was found independent, from one walk over the
    kept pairs with one monotone level.

    A kept pair still dependent with the first ``level`` indices of
    both instances equal (:func:`_dependent_at`) raises the level.
    Equalities only shrink a pair's witness set, so no pair is probed
    below the current level, and the final level is the largest any
    pair needs — the first level at which every pair is independent,
    the dependence level of Allen & Kennedy ("Automatic translation of
    FORTRAN programs to vector form", TOPLAS 1987).  A pair dependent
    with all its common indices equal is carried by no loop: the level
    becomes the nest's depth (fully sequential), and the walk goes on
    probing the later pairs at their common depth, so their levels are
    known too.
    """
    max_depth = max((s.depth for s in nest.statements), default=0)
    pairs = nest.all_accesses()
    level = None
    levels: Dict[Tuple[int, int], int] = {}
    with span("compile.dependence"):
        for (i, j), pf in facts.items():
            if pf.kind is None:
                continue
            s1, s2 = pairs[i][0], pairs[j][0]
            level = level or 1
            common = min(s1.depth, s2.depth)
            while True:
                k = min(level, common)
                # k == 0: the pair was just kept
                if k and not _dependent_at(pf.lattice, s1, s2, params, k, i == j):
                    levels[i, j] = k
                    break
                if k == common:
                    level = max_depth  # carried by no loop
                    break
                level += 1
    return level, levels


def find_dependences(nest: LoopNest, params: Dict[str, int]) -> List[Dependence]:
    """All (conservatively) existing non-input dependences of the nest."""
    pairs = nest.all_accesses()
    return [
        Dependence(
            array=pairs[i][1].array,
            source=pairs[i][0].name,
            sink=pairs[j][0].name,
            kind=pf.kind,
            proven=False,
        )
        for (i, j), pf in dependence_facts(nest, params).pairs.items()
        if pf.kind is not None
    ]


def is_fully_parallel(nest: LoopNest, params: Dict[str, int]) -> bool:
    """True when no flow/anti/output dependence exists: every statement
    instance may execute at the same time step (all loops DOALL)."""
    return not find_dependences(nest, params)
