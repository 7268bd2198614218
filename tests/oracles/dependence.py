"""Rational (``Fraction``) reference for the Fourier–Motzkin domain test.

``repro.ir.dependence._fm_feasible`` eliminates on Python ints
(cross-multiplied rows divided by their gcd).  This is the textbook
elimination over :class:`~fractions.Fraction` it must agree with,
verdict for verdict:

* :func:`fourier_motzkin_fraction` — feasibility of ``(coeffs, rhs)``
  inequalities, any rational entries;
* :func:`fm_feasible` — the same on ``_fm_feasible``'s integer
  ``[coeffs..., rhs]`` rows.

Unlike the kernel it does not divide rows by a gcd; it normalizes each
surviving row to a leading coefficient of +-1 and drops duplicates after
every round, which keeps its cost close to the kernel's row counts.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

Ineq = Tuple[Tuple[Fraction, ...], Fraction]  # coeffs . y <= rhs


def fourier_motzkin_fraction(ineqs: List[Ineq], nvars: int) -> bool:
    """Rational feasibility of ``A y <= b`` by eliminating variables
    with exact ``Fraction`` arithmetic.
    """
    system = [([Fraction(x) for x in coeffs], Fraction(rhs)) for coeffs, rhs in ineqs]
    for var in range(nvars):
        # an already-contradictory input row (no variables, negative
        # rhs) ends the search; later rounds catch their own below
        if any(all(x == 0 for x in c) and r < 0 for c, r in system):
            return False
        pos, neg, rest = [], [], []
        for coeffs, rhs in system:
            c = coeffs[var]
            if c > 0:
                pos.append((coeffs, rhs))
            elif c < 0:
                neg.append((coeffs, rhs))
            else:
                rest.append((coeffs, rhs))
        new = rest
        for pc, pr in pos:
            for nc, nr in neg:
                # combine to eliminate var: pc/|pc| + nc/|nc|
                a = pc[var]
                b = -nc[var]
                coeffs = [x / a + y / b for x, y in zip(pc, nc)]
                rhs = pr / a + nr / b
                coeffs[var] = Fraction(0)
                new.append((coeffs, rhs))
        # drop trivially true rows, scale each live row by a positive
        # rational so its first nonzero coefficient is +-1 and drop
        # duplicates: none of this changes the solution set, and it
        # keeps the pairwise blow-up in check
        system = {}
        for c, r in new:
            lead = next((abs(x) for x in c if x != 0), None)
            if lead is None:
                if r < 0:
                    return False
                continue
            system[(tuple(x / lead for x in c), r / lead)] = None
        system = list(system)
    # all variables eliminated: feasible iff no 0 <= negative row remains
    return not any(r < 0 for _, r in system)


def fm_feasible(rows: Sequence[Sequence[int]], nvars: int) -> bool:
    """:func:`fourier_motzkin_fraction` on integer ``[coeffs..., rhs]``
    rows (the signature of ``_fm_feasible``, so it can replace it)."""
    return fourier_motzkin_fraction(
        [(tuple(r[:nvars]), r[nvars]) for r in rows], nvars
    )
