"""A small textual front end for affine loop nests.

The paper's input is Fortran/HPF-style source; this module accepts a
compact, whitespace-tolerant notation and produces the
:class:`~repro.ir.loopnest.LoopNest` IR, so examples and tests can be
written the way the paper writes them::

    array a(2), b(3), c(3)
    for i = 1..N:
      for j = 1..M:
        S1: b[i, j, 0] = g1(a[i+j, j+1], a[i-j, i+1], c[j, i, 0])
        for k = 1..N+M:
          S2: b[i, j, k] = g2(a[i+j+k+1, j+k])
          S3: c[i, j, j+k] = g3(a[i+j, i+j+1])

Rules
-----
* ``array NAME(dim)`` declares arrays (comma-separated allowed);
* ``for var = lo..hi:`` opens a loop (``lo``/``hi`` are affine forms
  over integers, parameters and *outer loop variables* — sums like
  ``N+M``, scaled terms like ``2*i``; indentation gives nesting).
  Bounds referencing outer loop variables produce triangular/
  trapezoidal iteration domains (``for j = i..N`` — LU, Cholesky,
  back-substitution), represented exactly by the statement's
  :class:`~repro.ir.domain.Domain`; a bound referencing the loop's own
  variable or an inner one raises :class:`NestSyntaxError`;
* a statement line is ``NAME: lhs = rhs`` where every array reference
  ``x[e1, ..., eq]`` uses affine expressions in the loop variables;
* the LHS reference is the write; every reference on the RHS is a read
  (function symbols like ``g1(...)`` are transparent).

The parser extracts each reference's ``F`` matrix and ``c`` vector
exactly; non-affine subscripts raise :class:`NestSyntaxError`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..linalg import IntMat
from .access import AccessKind, AffineAccess
from .loopnest import Bound, LoopDim, LoopNest, Statement


class NestSyntaxError(ValueError):
    """Raised on malformed nest source."""


_ARRAY_DECL = re.compile(r"^array\s+(.+)$")
_ARRAY_ITEM = re.compile(r"^\s*([A-Za-z_]\w*)\s*\(\s*(\d+)\s*\)\s*$")
_FOR = re.compile(
    r"^for\s+([A-Za-z_]\w*)\s*=\s*([^.]+)\.\.([^:]+):$"
)
_STMT = re.compile(r"^([A-Za-z_]\w*)\s*:\s*(.+)$")
_REF = re.compile(r"([A-Za-z_]\w*)\s*\[([^\]]*)\]")


def _parse_linear(expr: str, variables: Tuple[str, ...]) -> Tuple[Dict[str, int], int]:
    """Parse an affine expression over ``variables`` into coefficient
    map + constant.  Supports ``2*i``, ``-j``, ``i + 3``, ``i - j + k``.
    """
    coeffs: Dict[str, int] = {v: 0 for v in variables}
    const = 0
    expr = expr.replace(" ", "")
    if not expr:
        raise NestSyntaxError("empty subscript expression")
    # tokenize into signed terms
    terms = re.findall(r"[+-]?[^+-]+", expr)
    for term in terms:
        sign = 1
        body = term
        if body.startswith("+"):
            body = body[1:]
        elif body.startswith("-"):
            sign = -1
            body = body[1:]
        if not body:
            raise NestSyntaxError(f"dangling sign in {expr!r}")
        m = re.fullmatch(r"(\d+)\*([A-Za-z_]\w*)", body)
        if m:
            k, var = int(m.group(1)), m.group(2)
        elif re.fullmatch(r"\d+", body):
            const += sign * int(body)
            continue
        elif re.fullmatch(r"[A-Za-z_]\w*", body):
            k, var = 1, body
        else:
            m2 = re.fullmatch(r"([A-Za-z_]\w*)\*(\d+)", body)
            if m2:
                var, k = m2.group(1), int(m2.group(2))
            else:
                raise NestSyntaxError(f"non-affine subscript term {term!r}")
        if var not in coeffs:
            raise NestSyntaxError(
                f"unknown loop variable {var!r} in {expr!r} "
                f"(in scope: {', '.join(variables)})"
            )
        coeffs[var] += sign * k
    return coeffs, const


def _parse_bound(text: str) -> Bound:
    """Affine bound over integers, parameters and outer loop variables
    (``1``, ``N``, ``N+M-1``, ``i``, ``2*i+1``)."""
    text = text.replace(" ", "")
    coeffs, const = {}, 0
    for term in re.findall(r"[+-]?[^+-]+", text):
        sign = 1
        body = term
        if body.startswith("+"):
            body = body[1:]
        elif body.startswith("-"):
            sign, body = -1, body[1:]
        m = re.fullmatch(r"(\d+)\*([A-Za-z_]\w*)", body)
        if m:
            coeffs[m.group(2)] = coeffs.get(m.group(2), 0) + sign * int(m.group(1))
        elif re.fullmatch(r"\d+", body):
            const += sign * int(body)
        elif re.fullmatch(r"[A-Za-z_]\w*", body):
            coeffs[body] = coeffs.get(body, 0) + sign
        else:
            raise NestSyntaxError(f"bad bound term {term!r}")
    return Bound(
        const=const,
        coeffs=tuple(sorted((n, k) for n, k in coeffs.items() if k != 0)),
    )


def _make_access(
    array: str,
    subs: str,
    variables: Tuple[str, ...],
    kind: AccessKind,
    label: str,
) -> AffineAccess:
    rows: List[List[int]] = []
    consts: List[int] = []
    parts = [p for p in subs.split(",")] if subs.strip() else []
    if not parts:
        raise NestSyntaxError(f"reference to {array!r} has no subscripts")
    for p in parts:
        coeffs, const = _parse_linear(p, variables)
        rows.append([coeffs[v] for v in variables])
        consts.append(const)
    return AffineAccess(
        array=array,
        F=IntMat(rows),
        c=IntMat.col(consts),
        kind=kind,
        label=label,
    )


@dataclass
class _Frame:
    indent: int
    loop: LoopDim


def parse_nest(source: str, name: str = "parsed") -> LoopNest:
    """Parse nest source text into a :class:`LoopNest`.

    Array dimensions are validated against every reference; access
    labels are assigned ``F1, F2, ...`` in source order (matching the
    paper's numbering convention).
    """
    nest = LoopNest(name=name)
    stack: List[_Frame] = []
    access_counter = 0

    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.rstrip()
        if not line.strip() or line.strip().startswith("#"):
            continue
        indent = len(line) - len(line.lstrip())
        body = line.strip()

        m = _ARRAY_DECL.match(body)
        if m:
            for item in m.group(1).split(","):
                mi = _ARRAY_ITEM.match(item)
                if not mi:
                    raise NestSyntaxError(
                        f"line {lineno}: bad array declaration {item!r}"
                    )
                nest.declare_array(mi.group(1), int(mi.group(2)))
            continue

        # pop frames that this line's indentation closes
        while stack and indent <= stack[-1].indent:
            stack.pop()

        m = _FOR.match(body)
        if m:
            var, lo, hi = m.group(1), m.group(2), m.group(3)
            if any(f.loop.var == var for f in stack):
                raise NestSyntaxError(
                    f"line {lineno}: loop variable {var!r} shadows an outer loop"
                )
            stack.append(
                _Frame(
                    indent=indent,
                    loop=LoopDim(
                        var=var, lower=_parse_bound(lo), upper=_parse_bound(hi)
                    ),
                )
            )
            continue

        m = _STMT.match(body)
        if m:
            stmt_name, text = m.group(1), m.group(2)
            if "=" not in text:
                raise NestSyntaxError(f"line {lineno}: statement has no '='")
            lhs, rhs = text.split("=", 1)
            variables = tuple(f.loop.var for f in stack)
            if not variables:
                raise NestSyntaxError(
                    f"line {lineno}: statement outside any loop"
                )
            refs_lhs = _REF.findall(lhs)
            if len(refs_lhs) != 1:
                raise NestSyntaxError(
                    f"line {lineno}: expected exactly one array reference "
                    f"on the left-hand side"
                )
            accesses: List[AffineAccess] = []
            arr, subs = refs_lhs[0]
            access_counter += 1
            accesses.append(
                _make_access(arr, subs, variables, AccessKind.WRITE, f"F{access_counter}")
            )
            for arr, subs in _REF.findall(rhs):
                access_counter += 1
                accesses.append(
                    _make_access(arr, subs, variables, AccessKind.READ, f"F{access_counter}")
                )
            try:
                nest.add_statement(
                    Statement(
                        name=stmt_name,
                        loops=[f.loop for f in stack],
                        accesses=accesses,
                    )
                )
            except NestSyntaxError:
                raise
            except ValueError as exc:
                # e.g. a loop bound referencing an inner variable — the
                # Domain construction inside validate() rejects it
                raise NestSyntaxError(f"line {lineno}: {exc}") from None
            continue

        raise NestSyntaxError(f"line {lineno}: cannot parse {body!r}")

    nest.validate()
    return nest
