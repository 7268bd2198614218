"""Exact integer linear algebra substrate.

Everything the alignment algorithms of the paper need, implemented from
scratch over Python's arbitrary-precision integers:

* :class:`IntMat` — the exact, immutable, hashable matrix type;
* the paper's right Hermite form (:func:`right_hermite`,
  :func:`right_hermite_narrow`), :func:`rank` and
  :func:`unimodular_inverse` on a fraction-free elimination;
* :func:`smith_normal_form`;
* :func:`solve_axb`, the one integer solve ``A X = B`` behind
  dependence lattices, Lemma 2's ``X F = S`` and the integer weights
  ``G F = Id`` (:func:`best_left_inverse`);
* kernel bases and the kernel set operations of Section 4;
* unimodular completion and enumeration.

The rational side of Lemma 2 (pseudo-inverses, the compatibility
condition ``S F^+ F = S``) is a test oracle, ``tests/oracles/linalg.py``:
no compile stage needs it.

The normal-form entry points are memoized on their hashable ``IntMat``
arguments (:mod:`repro.linalg.cache`; inspect with :func:`cache_stats`,
reset with :func:`clear_caches` — see PERFORMANCE.md).
"""

from .cache import (
    NormalFormCache,
    cache_stats,
    clear_caches,
    get_cache,
    memoize_normal_form,
)
from .diophantine import DiophantineSolution, best_left_inverse, solve_axb
from .hermite import (
    is_unimodular,
    rank,
    right_hermite,
    right_hermite_narrow,
    unimodular_inverse,
)
from .intmat import IntMat
from .kernels import (
    integer_kernel_basis,
    kernel_difference_directions,
    kernel_intersection_basis,
    left_kernel_basis,
)
from .smith import smith_normal_form
from .unimodular import enumerate_unimodular_2x2, unimodular_completion

__all__ = [
    "IntMat",
    # memoization
    "NormalFormCache",
    "memoize_normal_form",
    "cache_stats",
    "clear_caches",
    "get_cache",
    # hermite
    "right_hermite",
    "right_hermite_narrow",
    "rank",
    "is_unimodular",
    "unimodular_inverse",
    # smith
    "smith_normal_form",
    # kernels
    "integer_kernel_basis",
    "left_kernel_basis",
    "kernel_intersection_basis",
    "kernel_difference_directions",
    # diophantine
    "DiophantineSolution",
    "solve_axb",
    "best_left_inverse",
    # unimodular
    "unimodular_completion",
    "enumerate_unimodular_2x2",
]
