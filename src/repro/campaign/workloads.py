"""Workloads for mapping campaigns: a seeded generator + a named corpus.

A :class:`Workload` is one compilable scenario — a loop nest (as parser
source text or a named IR factory), a schedule policy, default size
bindings and a legality flag.  Workloads are plain data: they pickle
across multiprocessing workers and serialize into sweep records, so a
campaign can be reconstructed from its spec alone.

Two producers:

* :func:`generate_workloads` — a seeded random generator of
  structurally valid affine nests (mixed depths 2/3, perfect and
  non-perfect shapes, unimodular / selection / rank-deficient access
  matrices).  Every emitted nest is *validated* before it leaves the
  generator: it parses, its inferred schedule passes
  :func:`~repro.ir.schedule_is_legal` on the bounded domains, and
  :func:`~repro.alignment.two_step_heuristic` completes without
  raising.  The same seed produces a byte-identical corpus.
* :func:`generate_triangular_workloads` — the same validated pipeline
  over the *non-rectangular* shape vocabulary: lower/upper triangular
  and trapezoidal inner loops (``for j = i..N``, ``for j = 0..i``,
  shifted variants), exercising the polyhedral
  :class:`~repro.ir.Domain` layer end to end.  A separate RNG stream,
  so growing this vocabulary never perturbs the rectangular corpora.
* :func:`corpus` — the named nests of the repository: the paper's
  examples (:mod:`repro.ir.examples`) and the kernels of the
  ``examples/*.py`` scripts (matmul, Gaussian elimination, ADI).
* :func:`triangular_corpus` — the classic triangular kernels the
  rectangular IR could not express: LU update, Cholesky,
  back-substitution and a triangular matmul.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..ir import (
    LoopNest,
    ScheduledNest,
    outer_sequential_schedules,
    parse_nest,
    trivial_schedules,
)
from ..obs import metrics as obs_metrics

# ---------------------------------------------------------------------------
# Workload
# ---------------------------------------------------------------------------


@dataclass
class Workload:
    """One compilable scenario of a campaign.

    ``schedule`` is a policy string: ``"infer"`` (let the driver infer a
    legal schedule from the dependences), ``"trivial"`` (all-parallel)
    or ``"outer:K"`` (first ``K`` loops sequential).  ``check_legality``
    is off for corpus kernels whose rectangular-hull domains would
    reject the textbook schedule (Gaussian elimination, ADI) — exactly
    how the corresponding ``examples/*.py`` scripts run them.
    """

    name: str
    kind: str = "generated"  # "generated" | "named"
    source: Optional[str] = None
    schedule: str = "infer"
    params: Dict[str, int] = field(default_factory=dict)
    check_legality: bool = True

    def resolve(self) -> LoopNest:
        """Materialize the loop nest IR."""
        if self.source is not None:
            return parse_nest(self.source, name=self.name)
        try:
            factory = _NAMED_FACTORIES[self.name]
        except KeyError:
            raise KeyError(
                f"workload {self.name!r} has no source and is not a known "
                f"named nest ({', '.join(sorted(_NAMED_FACTORIES))})"
            ) from None
        return factory()

    def resolve_schedules(self, nest: LoopNest) -> Optional[ScheduledNest]:
        """Schedules per the policy; ``None`` means "let the driver infer"."""
        if self.schedule == "infer":
            return None
        if self.schedule == "trivial":
            return trivial_schedules(nest)
        if self.schedule.startswith("outer:"):
            return outer_sequential_schedules(nest, int(self.schedule[6:]))
        raise ValueError(f"unknown schedule policy {self.schedule!r}")

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "source": self.source,
            "schedule": self.schedule,
            "params": dict(self.params),
            "check_legality": self.check_legality,
        }

    @staticmethod
    def from_dict(d: Dict) -> "Workload":
        return Workload(
            name=d["name"],
            kind=d.get("kind", "generated"),
            source=d.get("source"),
            schedule=d.get("schedule", "infer"),
            params=dict(d.get("params", {})),
            check_legality=bool(d.get("check_legality", True)),
        )


# ---------------------------------------------------------------------------
# Named corpus
# ---------------------------------------------------------------------------

_MATMUL_SRC = """array a(2), b(2), c(2)
for i = 0..N:
  for j = 0..N:
    for k = 0..N:
      S: c[i, j] = f(a[i, k], b[k, j], c[i, j])
"""

_GAUSS_SRC = """array A(2)
for k = 1..N:
  for i = 1..N:
    for j = 1..N:
      S: A[i, j] = f(A[i, j], A[i, k], A[k, j], A[k, k])
"""

_ADI_SRC = """array u(2), v(2)
for t = 1..T:
  for i = 1..N:
    for j = 1..N:
      Srow: v[i, j] = f(u[i, j], u[i, j-1], u[i, j+1])
  for i = 1..N:
    for j = 1..N:
      Scol: u[j, i] = g(v[j, i], v[j-1, i], v[j+1, i])
"""


def _named_factories() -> Dict[str, Callable[[], LoopNest]]:
    from ..ir import (
        broadcast_example,
        gather_example,
        motivating_example,
        platonoff_example,
        reduction_example,
    )

    return {
        "example1": motivating_example,
        "broadcast": broadcast_example,
        "gather": gather_example,
        "reduction": reduction_example,
        "example5": platonoff_example,
    }


_NAMED_FACTORIES = _named_factories()


# -- triangular kernels: the nests the rectangular IR shut out ------------

_TRI_LU_SRC = """array A(2)
for k = 1..N:
  for i = k..N:
    for j = k..N:
      S: A[i, j] = f(A[i, j], A[i, k], A[k, j])
"""

_TRI_CHOLESKY_SRC = """array L(2)
for k = 1..N:
  for i = k..N:
    S1: L[i, k] = f(L[i, k], L[k, k])
    for j = k..i:
      S2: L[i, j] = g(L[i, j], L[i, k], L[j, k])
"""

_TRI_BACKSUB_SRC = """array x(1), b(1), L(2)
for i = 1..N:
  S1: x[i] = f(b[i])
  for j = 1..i-1:
    S2: x[i] = g(x[i], L[i, j], x[j])
"""

_TRI_MATMUL_SRC = """array a(2), b(2), c(2)
for i = 0..N:
  for j = i..N:
    for k = 0..N:
      S: c[i, j] = f(a[i, k], b[k, j], c[i, j])
"""


def triangular_corpus() -> List[Workload]:
    """The classic triangular/trapezoidal kernels as campaign workloads.

    ``check_legality`` is off for the factorizations whose textbook
    outer-sequential schedule conflicts within a step (the Gaussian
    elimination / ADI precedent of :func:`corpus`); the triangular
    matmul infers a legal schedule on its true polyhedral domain.
    """
    return [
        Workload(
            name="tri-matmul", kind="named", source=_TRI_MATMUL_SRC,
            schedule="infer", params={"N": 3},
        ),
        Workload(
            name="lu", kind="named", source=_TRI_LU_SRC,
            schedule="outer:1", params={"N": 3}, check_legality=False,
        ),
        Workload(
            name="cholesky", kind="named", source=_TRI_CHOLESKY_SRC,
            schedule="outer:1", params={"N": 3}, check_legality=False,
        ),
        Workload(
            name="backsub", kind="named", source=_TRI_BACKSUB_SRC,
            schedule="outer:1", params={"N": 4}, check_legality=False,
        ),
    ]


def corpus() -> List[Workload]:
    """The repository's named nests as campaign workloads."""
    return [
        Workload(
            name="example1", kind="named", schedule="trivial",
            params={"N": 2, "M": 2},
        ),
        Workload(
            name="broadcast", kind="named", schedule="trivial",
            params={"N": 2},
        ),
        Workload(
            name="gather", kind="named", schedule="infer",
            params={"N": 2},
        ),
        Workload(
            name="reduction", kind="named", schedule="infer",
            params={"N": 2},
        ),
        Workload(
            name="example5", kind="named", schedule="outer:1",
            params={"n": 2},
        ),
        Workload(
            name="matmul", kind="named", source=_MATMUL_SRC,
            schedule="infer", params={"N": 2},
        ),
        Workload(
            name="gauss", kind="named", source=_GAUSS_SRC,
            schedule="outer:1", params={"N": 3}, check_legality=False,
        ),
        Workload(
            name="adi", kind="named", source=_ADI_SRC,
            schedule="outer:1", params={"T": 2, "N": 3},
            check_legality=False,
        ),
    ]


# ---------------------------------------------------------------------------
# Seeded random generator
# ---------------------------------------------------------------------------

_DEFAULT_PARAMS = {"N": 2, "M": 2}


def _render_affine(coeffs: List[int], const: int, variables: Tuple[str, ...]) -> str:
    terms: List[str] = []
    for var, k in zip(variables, coeffs):
        if k == 0:
            continue
        if k == 1:
            terms.append(var)
        elif k == -1:
            terms.append(f"-{var}")
        else:
            terms.append(f"{k}*{var}")
    if const or not terms:
        terms.append(str(const))
    expr = terms[0]
    for t in terms[1:]:
        expr += t if t.startswith("-") else "+" + t
    return expr


def _unimodular_rows(rng: random.Random, d: int) -> List[List[int]]:
    rows = [[1 if a == b else 0 for b in range(d)] for a in range(d)]
    for _ in range(rng.randint(1, 3)):
        a, b = rng.sample(range(d), 2)
        s = rng.choice((-1, 1))
        rows[a] = [ra + s * rb for ra, rb in zip(rows[a], rows[b])]
    if rng.random() < 0.5:
        rng.shuffle(rows)
    return rows


def _selection_rows(rng: random.Random, q: int, d: int) -> List[List[int]]:
    cols = list(range(d))
    rng.shuffle(cols)
    rows = []
    for r in range(q):
        row = [0] * d
        row[cols[r % d]] = 1
        if rng.random() < 0.4:
            row[rng.randrange(d)] += rng.choice((-1, 1))
        rows.append(row)
    return rows


def _rank_deficient_rows(rng: random.Random, q: int, d: int) -> List[List[int]]:
    rows = _selection_rows(rng, q, d)
    if q >= 2:
        src, dst = rng.randrange(q), rng.randrange(q)
        if src == dst:
            rows[dst] = [0] * d
        else:
            rows[dst] = list(rows[src])
    return rows


def _access_rows(rng: random.Random, q: int, d: int) -> List[List[int]]:
    roll = rng.random()
    if q == d and roll < 0.45:
        return _unimodular_rows(rng, d)
    if roll < 0.85:
        return _selection_rows(rng, q, d)
    return _rank_deficient_rows(rng, q, d)


def _render_ref(rng: random.Random, array: str, dim: int, variables: Tuple[str, ...]) -> str:
    rows = _access_rows(rng, dim, len(variables))
    subs = []
    for row in rows:
        const = rng.choice((0, 0, 0, 1, -1, 2))
        subs.append(_render_affine(row, const, variables))
    return f"{array}[{', '.join(subs)}]"


def _stmt_line(
    rng: random.Random,
    arrays: Dict[str, int],
    stmt_no: int,
    indent: str,
    variables: Tuple[str, ...],
) -> str:
    """One random statement line (shared by the rectangular and the
    triangular source generators; RNG call order is part of the
    byte-stability contract of :func:`generate_workloads`)."""
    names = sorted(arrays)
    wr = rng.choice(names)
    write = _render_ref(rng, wr, arrays[wr], variables)
    reads = ", ".join(
        _render_ref(rng, arr, arrays[arr], variables)
        for arr in (rng.choice(names) for _ in range(rng.randint(1, 2)))
    )
    return f"{indent}S{stmt_no}: {write} = f{stmt_no}({reads})"


def _random_nest_source(rng: random.Random) -> str:
    arrays = {name: rng.randint(1, 3) for name in ("a", "b", "c")}
    decls = ", ".join(f"{n}({d})" for n, d in sorted(arrays.items()))
    lines = [f"array {decls}"]
    bound = lambda: rng.choice(("N", "M"))
    lines.append(f"for i = 0..{bound()}:")
    lines.append(f"  for j = 0..{bound()}:")

    stmt_no = 0

    def stmt_line(indent: str, variables: Tuple[str, ...]) -> str:
        nonlocal stmt_no
        stmt_no += 1
        return _stmt_line(rng, arrays, stmt_no, indent, variables)

    shape = rng.choice(("perfect2", "perfect3", "nonperfect"))
    if shape == "perfect2":
        for _ in range(rng.randint(1, 2)):
            lines.append(stmt_line("    ", ("i", "j")))
    elif shape == "perfect3":
        lines.append(f"    for k = 0..{bound()}:")
        for _ in range(rng.randint(1, 2)):
            lines.append(stmt_line("      ", ("i", "j", "k")))
    else:
        lines.append(stmt_line("    ", ("i", "j")))
        lines.append(f"    for k = 0..{bound()}:")
        for _ in range(rng.randint(1, 2)):
            lines.append(stmt_line("      ", ("i", "j", "k")))
    return "\n".join(lines) + "\n"


def _random_triangular_source(rng: random.Random) -> str:
    """A random nest with at least one non-rectangular loop: lower/upper
    triangular or trapezoidal inner ``j`` loops, or a rectangular middle
    with a triangular innermost ``k`` loop."""
    arrays = {name: rng.randint(1, 3) for name in ("a", "b", "c")}
    decls = ", ".join(f"{n}({d})" for n, d in sorted(arrays.items()))
    lines = [f"array {decls}"]
    bound = lambda: rng.choice(("N", "M"))
    lines.append(f"for i = 0..{bound()}:")

    stmt_no = 0

    def stmt_line(indent: str, variables: Tuple[str, ...]) -> str:
        nonlocal stmt_no
        stmt_no += 1
        return _stmt_line(rng, arrays, stmt_no, indent, variables)

    shape = rng.choice(("lower", "upper", "trapezoid", "deep"))
    if shape == "lower":
        lines.append(f"  for j = i..{bound()}:")
    elif shape == "upper":
        lines.append("  for j = 0..i:")
    elif shape == "trapezoid":
        lines.append(f"  for j = i..{bound()}+1:")
    else:  # deep: rectangular j, triangular innermost k
        lines.append(f"  for j = 0..{bound()}:")
    if shape == "deep":
        lines.append(stmt_line("    ", ("i", "j")))
        lines.append(f"    for k = j..{bound()}:")
        for _ in range(rng.randint(1, 2)):
            lines.append(stmt_line("      ", ("i", "j", "k")))
    else:
        for _ in range(rng.randint(1, 2)):
            lines.append(stmt_line("    ", ("i", "j")))
    return "\n".join(lines) + "\n"


def _workload_is_valid(workload: Workload, m: int = 2) -> bool:
    """Full-pipeline validation: parse, legal schedule, heuristic runs.

    Every rejection is counted by reason:
    ``campaign.workloads.rejected.illegal_schedule`` when the inferred
    schedule fails legality, ``campaign.workloads.rejected.<Type>``
    when a stage raises ``<Type>``."""
    from ..alignment import two_step_heuristic
    from ..ir import infer_schedules, schedule_is_legal

    try:
        nest = workload.resolve()
        bounds = dict(workload.params)
        schedules = infer_schedules(nest, bounds)
        if not schedule_is_legal(schedules, bounds):
            _rejected("illegal_schedule")
            return False
        two_step_heuristic(nest, m=m, schedules=schedules)
    except Exception as exc:
        _rejected(type(exc).__name__)
        return False
    return True


def _rejected(reason: str) -> None:
    obs_metrics.counter(f"campaign.workloads.rejected.{reason}").inc()


def _generate_validated(
    seed: int,
    count: int,
    make_source: Callable[[random.Random], str],
    prefix: str,
    params: Optional[Dict[str, int]],
    max_attempts_per_nest: int,
) -> List[Workload]:
    """The shared seeded generate-validate-retry loop (see
    :func:`generate_workloads` for the determinism contract)."""
    rng = random.Random(seed)
    bindings = dict(_DEFAULT_PARAMS)
    bindings.update(params or {})
    out: List[Workload] = []
    attempts = 0
    budget = max_attempts_per_nest * max(1, count)
    while len(out) < count:
        attempts += 1
        if attempts > budget:
            raise RuntimeError(
                f"workload generation stalled: {len(out)}/{count} nests "
                f"after {attempts - 1} attempts (seed {seed})"
            )
        source = make_source(rng)
        candidate = Workload(
            name=f"{prefix}-{seed}-{len(out)}",
            kind="generated",
            source=source,
            schedule="infer",
            params=dict(bindings),
        )
        if _workload_is_valid(candidate):
            out.append(candidate)
    return out


def generate_workloads(
    seed: int,
    count: int,
    params: Optional[Dict[str, int]] = None,
    max_attempts_per_nest: int = 200,
) -> List[Workload]:
    """Generate ``count`` validated workloads from ``seed``.

    Deterministic: the same ``(seed, count, params)`` produces a
    byte-identical corpus (sources included), because candidate
    generation and validation are both pure functions of the seeded RNG
    stream.  Candidates that fail validation are discarded (counted by
    reason under ``campaign.workloads.rejected.*``) and the RNG simply
    advances — a larger ``count`` extends the corpus of a
    smaller one.

    ``params`` overrides the default size bindings; generated nests
    always reference ``N``/``M``, so those stay bound (to the defaults)
    even when the caller's bindings name neither.
    """
    return _generate_validated(
        seed, count, _random_nest_source, "gen", params, max_attempts_per_nest
    )


def generate_triangular_workloads(
    seed: int,
    count: int,
    params: Optional[Dict[str, int]] = None,
    max_attempts_per_nest: int = 200,
) -> List[Workload]:
    """Generate ``count`` validated *triangular/trapezoidal* workloads.

    Same determinism contract as :func:`generate_workloads`, on an
    independent RNG stream (names ``tri-SEED-K``): every emitted nest
    has at least one non-rectangular loop, parses into a polyhedral
    :class:`~repro.ir.Domain`, carries a legal inferred schedule on the
    bounded domains and completes the two-step heuristic.
    """
    return _generate_validated(
        seed,
        count,
        _random_triangular_source,
        "tri",
        params,
        max_attempts_per_nest,
    )
