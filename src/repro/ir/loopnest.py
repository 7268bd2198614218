"""Loop nest intermediate representation.

The paper's computations are *non-perfect affine loop nests*: several
statements at possibly different depths, each with a polyhedral
iteration domain and a list of affine accesses.  The IR below captures
exactly what the alignment algorithms consume:

* per statement: depth ``d``, loop-variable names, domain bounds,
  accesses (one write at most, any number of reads);
* per array: symbolic name and dimension ``q_x``;
* symbolic sizes are supported through simple bound expressions
  evaluated against a parameter binding (``N``, ``M``...).

A loop bound may reference the *outer* loop variables as well as the
size parameters (``for j = i..N`` — the triangular/trapezoidal kernels:
LU, Cholesky, back-substitution), in which case the statement's
iteration set is the polyhedral :class:`~repro.ir.domain.Domain` built
from the constraints; rectangular bounds remain the trivial special
case and keep their historical fast paths bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Dict, Iterator, List, Sequence, Tuple

from .access import AccessKind, AffineAccess
from .domain import Domain


@dataclass(frozen=True)
class Bound:
    """An affine bound ``const + sum coeff[name] * name``.

    Names are symbolic sizes such as ``N`` and ``M`` — or outer loop
    variables, which makes the surrounding domain non-rectangular
    (triangular ``for j = i..N``).  :meth:`evaluate` binds *parameters*
    only and is the rectangular-path entry point; bounds referencing
    loop variables are resolved through the statement's
    :class:`~repro.ir.domain.Domain` instead.
    """

    const: int = 0
    coeffs: Tuple[Tuple[str, int], ...] = ()

    def evaluate(self, params: Dict[str, int]) -> int:
        total = self.const
        for name, k in self.coeffs:
            if name not in params:
                raise KeyError(f"unbound size parameter {name!r}")
            total += k * params[name]
        return total

    @staticmethod
    def of(value) -> "Bound":
        """Coerce ``int`` or ``str`` (a bare parameter) or Bound."""
        if isinstance(value, Bound):
            return value
        if isinstance(value, int):
            return Bound(const=value)
        if isinstance(value, str):
            return Bound(coeffs=((value, 1),))
        raise TypeError(f"cannot interpret bound {value!r}")

    def __add__(self, other) -> "Bound":
        o = Bound.of(other)
        merged = dict(self.coeffs)
        for name, k in o.coeffs:
            merged[name] = merged.get(name, 0) + k
        return Bound(
            const=self.const + o.const,
            coeffs=tuple(sorted((n, k) for n, k in merged.items() if k != 0)),
        )

    def describe(self) -> str:
        parts = [f"{k}*{n}" if k != 1 else n for n, k in self.coeffs]
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


@dataclass(frozen=True)
class LoopDim:
    """One loop of the nest: ``for var = lower to upper``."""

    var: str
    lower: Bound
    upper: Bound

    def range(self, params: Dict[str, int]) -> range:
        return range(self.lower.evaluate(params), self.upper.evaluate(params) + 1)


@dataclass
class Statement:
    """A statement of the nest with its surrounding loops and accesses."""

    name: str
    loops: List[LoopDim]
    accesses: List[AffineAccess] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.loops)

    @property
    def index_names(self) -> Tuple[str, ...]:
        return tuple(l.var for l in self.loops)

    def reads(self) -> List[AffineAccess]:
        return [a for a in self.accesses if a.kind is AccessKind.READ]

    def writes(self) -> List[AffineAccess]:
        return [a for a in self.accesses if a.kind is AccessKind.WRITE]

    @property
    def domain(self) -> Domain:
        """The statement's polyhedral iteration domain (cached).

        Rectangular nests get the trivial two-constraints-per-loop
        domain; triangular bounds (outer-variable references) make it a
        genuine polyhedron.
        """
        cached = self.__dict__.get("_domain")
        if cached is None:
            cached = Domain.from_loops(self.loops)
            self.__dict__["_domain"] = cached
        return cached

    @property
    def is_rectangular(self) -> bool:
        return self.domain.is_rectangular

    def iteration_domain(self, params: Dict[str, int]) -> Iterator[Tuple[int, ...]]:
        """Enumerate the iteration domain (bounding-box product order;
        for rectangular domains exactly the historical
        ``itertools.product`` of the per-loop ranges)."""
        if self.is_rectangular:
            ranges = [l.range(params) for l in self.loops]
            return product(*ranges)
        return self.domain.enumerate_points(params)

    def domain_size(self, params: Dict[str, int]) -> int:
        if self.is_rectangular:
            total = 1
            for l in self.loops:
                total *= max(0, len(l.range(params)))
            return total
        return self.domain.size(params)

    def validate(self) -> None:
        self.domain  # constructing it rejects malformed (inward) bounds
        for a in self.accesses:
            if a.depth != self.depth:
                raise ValueError(
                    f"access {a.describe()} has depth {a.depth} but statement "
                    f"{self.name} has depth {self.depth}"
                )


@dataclass
class ArrayDecl:
    """A declared array with its dimensionality."""

    name: str
    dim: int


@dataclass
class LoopNest:
    """A (possibly non-perfect) affine loop nest.

    The nest is a *list of statements*, each carrying its own loop
    structure; common outer loops are simply repeated in each
    statement's ``loops`` (with identical variable names), which is all
    the alignment analysis needs.
    """

    name: str
    arrays: Dict[str, ArrayDecl] = field(default_factory=dict)
    statements: List[Statement] = field(default_factory=list)

    def declare_array(self, name: str, dim: int) -> ArrayDecl:
        if name in self.arrays:
            raise ValueError(f"array {name!r} already declared")
        decl = ArrayDecl(name=name, dim=dim)
        self.arrays[name] = decl
        return decl

    def add_statement(self, stmt: Statement) -> Statement:
        if any(s.name == stmt.name for s in self.statements):
            raise ValueError(f"statement {stmt.name!r} already present")
        stmt.validate()
        for a in stmt.accesses:
            if a.array not in self.arrays:
                raise ValueError(f"access to undeclared array {a.array!r}")
            if self.arrays[a.array].dim != a.array_dim:
                raise ValueError(
                    f"array {a.array!r} has dim {self.arrays[a.array].dim} but "
                    f"access {a.describe()} has {a.array_dim} subscripts"
                )
        self.statements.append(stmt)
        return stmt

    def statement(self, name: str) -> Statement:
        for s in self.statements:
            if s.name == name:
                return s
        raise KeyError(f"no statement named {name!r}")

    def all_accesses(self) -> List[Tuple[Statement, AffineAccess]]:
        return [(s, a) for s in self.statements for a in s.accesses]

    def validate(self) -> None:
        """Validate every statement and reject two accesses with one
        effective label (``label`` or ``"<stmt>:<array>"``): the
        alignment and the executor key residuals and prices by label,
        so a label must name exactly one access."""
        owner: Dict[str, str] = {}
        for s in self.statements:
            s.validate()
            for a in s.accesses:
                label = a.label or f"{s.name}:{a.array}"
                if label in owner:
                    raise ValueError(
                        f"access label {label!r} names an access of "
                        f"statement {owner[label]} and one of statement "
                        f"{s.name}: labels must be unique"
                    )
                owner[label] = s.name

    def describe(self) -> str:
        lines = [f"loop nest {self.name!r}:"]
        for ad in self.arrays.values():
            lines.append(f"  array {ad.name}[{ad.dim}D]")
        for s in self.statements:
            loops = ", ".join(
                f"{l.var}={l.lower.describe()}..{l.upper.describe()}" for l in s.loops
            )
            lines.append(f"  {s.name} ({loops}):")
            for a in s.accesses:
                lines.append(f"    {a.kind.value:5s} {a.describe()}")
        return "\n".join(lines)


class NestBuilder:
    """Small fluent DSL for building loop nests in examples and tests.

    Example
    -------
    >>> b = NestBuilder("ex")
    >>> b.array("a", 3).array("b", 2)
    >>> with_loops = [("i", 0, "N"), ("j", 0, "M")]
    >>> b.statement("S1", with_loops,
    ...             writes=[("b", [[1, 0], [0, 1]], [0, 1])],
    ...             reads=[("a", [[1, 0], [0, 1], [1, 1]], None)])
    >>> nest = b.build()
    """

    def __init__(self, name: str):
        self._nest = LoopNest(name=name)
        self._access_counter = 0

    def array(self, name: str, dim: int) -> "NestBuilder":
        self._nest.declare_array(name, dim)
        return self

    def statement(
        self,
        name: str,
        loops: Sequence[Tuple[str, object, object]],
        writes: Sequence[Tuple] = (),
        reads: Sequence[Tuple] = (),
    ) -> "NestBuilder":
        loop_dims = [
            LoopDim(var=v, lower=Bound.of(lo), upper=Bound.of(hi))
            for (v, lo, hi) in loops
        ]
        accesses: List[AffineAccess] = []
        from ..linalg import IntMat

        def mk(spec, kind: AccessKind) -> AffineAccess:
            self._access_counter += 1
            if len(spec) == 2:
                arr, f_rows = spec
                c = None
                label = None
            elif len(spec) == 3:
                arr, f_rows, c = spec
                label = None
            else:
                arr, f_rows, c, label = spec
            return AffineAccess(
                array=arr,
                F=IntMat(f_rows),
                c=IntMat.col(list(c)) if c is not None else None,
                kind=kind,
                label=label or f"F{self._access_counter}",
            )

        for spec in writes:
            accesses.append(mk(spec, AccessKind.WRITE))
        for spec in reads:
            accesses.append(mk(spec, AccessKind.READ))
        self._nest.add_statement(Statement(name=name, loops=loop_dims, accesses=accesses))
        return self

    def build(self) -> LoopNest:
        self._nest.validate()
        return self._nest
