"""Exact integer-similarity decision via binary quadratic forms
(the Latimer–MacDuffee machinery cited in Section 5.2.2).

The paper argues that an integer matrix ``T`` with ``det T = 1`` and
irreducible characteristic polynomial ``P(X) = X^2 - tr X + 1`` is
similar over Z to a two-factor product ``L·U`` only for a bounded
number of similarity classes per trace, while the number of classes is
the (possibly larger) form class number of discriminant
``D = tr^2 - 4`` — so negative instances exist.

This module makes that argument *executable*:

* a matrix ``T = [[a, b], [c, d]]`` (c != 0) corresponds to the binary
  quadratic form ``(c, d - a, -b)`` of discriminant ``tr^2 - 4``
  (the form whose root is the fixed point of the Möbius action of
  ``T``); GL2(Z)-similar matrices give equivalent forms;
* for *indefinite* forms (``D > 0``, non-square — the hyperbolic case
  ``|tr| > 2``) equivalence is decidable by reduction cycles: two forms
  are equivalent iff their reduction cycles coincide;
* :func:`similar_to_lu_decision` enumerates the forms of the two-factor
  products with the same trace and checks cycle membership.

This upgrades the bounded conjugation search of
:mod:`repro.decomp.similarity` to an exact yes/no for hyperbolic
matrices.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from ..linalg import IntMat

Form = Tuple[int, int, int]  # (A, B, C) ~ A x^2 + B x y + C y^2


def discriminant(form: Form) -> int:
    a, b, c = form
    return b * b - 4 * a * c


def matrix_to_form(t: IntMat) -> Optional[Form]:
    """The fixed-point form of ``T`` (primitive, orientation-normalised).

    For ``T = [[a, b], [c, d]]`` acting as a Möbius map, the fixed
    points satisfy ``c x^2 + (d - a) x - b = 0``; the associated form
    ``(c, d - a, -b)`` has discriminant ``tr^2 - 4 det = tr^2 - 4``.
    Conjugating ``T`` by ``M`` in GL2(Z) transforms the form by the
    (contragredient) action of ``M``, so similarity classes map to form
    classes.  Returns ``None`` for ``c = 0`` (form degenerates; those
    matrices are triangular and handled directly).
    """
    a, b = t[0, 0], t[0, 1]
    c, d = t[1, 0], t[1, 1]
    if c == 0:
        return None
    g = math.gcd(math.gcd(abs(c), abs(d - a)), abs(b))
    g = g or 1
    form = (c // g, (d - a) // g, -b // g)
    if form[0] < 0:
        form = (-form[0], -form[1], -form[2])
    return form


def _is_reduced_indefinite(form: Form) -> bool:
    """Gauss reduction criterion for indefinite forms: ``(A, B, C)``
    with ``D > 0`` is reduced iff ``0 < B < sqrt(D)`` and
    ``sqrt(D) - B < 2|A| < sqrt(D) + B``."""
    a, b, c = form
    d = discriminant(form)
    if d <= 0:
        raise ValueError("indefinite reduction needs positive discriminant")
    sq = math.isqrt(d)
    if sq * sq == d:
        raise ValueError("square discriminant: form is not primitive-irrational")
    root = math.sqrt(d)
    return 0 < b < root and (root - b) < 2 * abs(a) < (root + b)


def _rho(form: Form) -> Form:
    """One reduction step: ``rho(A, B, C) = (C, B', C')`` with
    ``B' = -B + 2 C delta`` chosen so the result approaches / stays in
    the reduced cycle (standard indefinite Gauss reduction)."""
    a, b, c = form
    d = discriminant(form)
    root = math.sqrt(d)
    if c == 0:
        raise ValueError("degenerate form")
    # choose delta = round((b + root) / (2 c)) toward the cycle
    if c > 0:
        delta = math.floor((b + root) / (2 * c))
    else:
        delta = math.ceil((b + root) / (2 * c))
    b2 = -b + 2 * c * delta
    c2 = (b2 * b2 - d) // (4 * c)
    return (c, b2, c2)


def reduction_cycle(form: Form, max_steps: int = 200) -> List[Form]:
    """The cycle of reduced forms equivalent to ``form`` (indefinite,
    non-square discriminant).  Reduction reaches the cycle in finitely
    many steps; we iterate rho until a form repeats."""
    cur = form
    seen: List[Form] = []
    for _ in range(max_steps):
        if _is_reduced_indefinite(cur):
            if cur in seen:
                start = seen.index(cur)
                return seen[start:]
            seen.append(cur)
        cur = _rho(cur)
    raise RuntimeError("reduction cycle did not close (increase max_steps?)")


def forms_equivalent(f1: Form, f2: Form) -> bool:
    """GL2(Z)-class equivalence of two indefinite forms via cycle
    comparison.

    A matrix class determines its fixed-point form only up to sign and
    orientation, so we compare the cycle of ``f1`` against the cycles
    of ``f2``, its opposite ``(A, -B, C)`` (improper equivalence) and
    the negatives of both."""
    if discriminant(f1) != discriminant(f2):
        return False
    cyc1 = set(reduction_cycle(f1))
    a, b, c = f2
    for cand in ((a, b, c), (a, -b, c), (-a, -b, -c), (-a, b, -c)):
        if cyc1 & set(reduction_cycle(cand)):
            return True
    return False


def lu_trace_forms(trace: int) -> List[Form]:
    """Fixed-point forms of all two-factor products with the given
    trace: ``L(l) U(k)`` has trace ``2 + l k``, so enumerate the divisor
    pairs of ``trace - 2`` (both orders and signs)."""
    target = trace - 2
    out: List[Form] = []
    if target == 0:
        return out  # triangular products: degenerate forms
    for l in range(-abs(target), abs(target) + 1):
        if l == 0 or target % l != 0:
            continue
        k = target // l
        # L(l) U(k) = [[1, k], [l, 1 + l k]]
        t = IntMat([[1, k], [l, 1 + l * k]])
        f = matrix_to_form(t)
        if f is not None:
            out.append(f)
        # U(k) L(l) = [[1 + k l, k], [l, 1]]
        t2 = IntMat([[1 + k * l, k], [l, 1]])
        f2 = matrix_to_form(t2)
        if f2 is not None:
            out.append(f2)
    return out


def similar_to_lu_decision(t: IntMat) -> Optional[bool]:
    """Exact decision: is ``T`` (2x2, det 1) GL2(Z)-similar to a product
    of two elementary matrices?

    Returns ``True``/``False`` for hyperbolic ``T`` (``|tr| > 2`` with
    non-square ``tr^2 - 4``); ``None`` when the form machinery does not
    apply (``|tr| <= 2``, square discriminant, or triangular ``T``) —
    callers fall back to the bounded search for those easy cases.
    """
    if t.shape != (2, 2) or t.det() != 1:
        raise ValueError("expects a 2x2 determinant-1 matrix")
    tr = t.trace()
    disc = tr * tr - 4
    if disc <= 0:
        return None
    sq = math.isqrt(disc)
    if sq * sq == disc:
        return None
    form = matrix_to_form(t)
    if form is None:
        return None
    for lu_form in lu_trace_forms(tr):
        if forms_equivalent(form, lu_form):
            return True
    return False
