"""Rational (``Fraction``) reference for the Fourier–Motzkin domain test.

``repro.ir.dependence._fm_feasible`` eliminates on Python ints
(cross-multiplied rows divided by their gcd).  This is the textbook
elimination over :class:`~fractions.Fraction` it must agree with,
verdict for verdict:

* :func:`fourier_motzkin_fraction` — feasibility of ``(coeffs, rhs)``
  inequalities, any rational entries;
* :func:`fm_feasible` — the same on ``_fm_feasible``'s integer
  ``[coeffs..., rhs]`` rows.

``benchmarks/bench_campaign_throughput.py`` also times it as the
baseline of the integer kernel's speedup floor.
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
        # early-exit before combining: an already-contradictory row
        # (no variables, negative rhs) ends the search — this also
        # covers infeasibility present before the *last* round
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
        system = new
        # prune trivially true rows to keep the blow-up in check
        system = [
            (c, r)
            for c, r in system
            if any(x != 0 for x in c) or r < 0
        ]
        if any(all(x == 0 for x in c) and r < 0 for c, r in system):
            return False
    # all variables eliminated: feasible iff no 0 <= negative row remains
    return not any(r < 0 for _, r in system)


def fm_feasible(rows: Sequence[Sequence[int]], nvars: int) -> bool:
    """:func:`fourier_motzkin_fraction` on integer ``[coeffs..., rhs]``
    rows (the signature of ``_fm_feasible``, so it can replace it)."""
    return fourier_motzkin_fraction(
        [(tuple(r[:nvars]), r[nvars]) for r in rows], nvars
    )
