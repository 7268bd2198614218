"""Hypothesis property tests on the integer solve ``solve_axb``:
completeness and correctness of solution lattices, one-sided inverse
identities, and a differential check of ``X F = S`` against the
rational Lemma-2 oracle (``tests/oracles/linalg.py``)."""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.linalg import (
    IntMat,
    best_left_inverse,
    integer_kernel_basis,
    left_kernel_basis,
    rank,
    solve_axb,
)

from oracles.linalg import (
    FracMat,
    compatibility_condition,
    pseudoinverse,
    solve_xf_eq_s,
)
from oracles.linalg import rank as fracmat_rank
from unimodular_gen import random_unimodular


def small_matrix(rows, cols, bound=4):
    return st.lists(
        st.lists(st.integers(-bound, bound), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(IntMat)


class TestSolveAxb:
    @given(small_matrix(2, 3), st.lists(st.integers(-5, 5), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_constructed_solutions_verify(self, a, xs):
        """b := A x is always solvable and the particular solution
        reproduces b."""
        x = IntMat.col(xs)
        b = a @ x
        sol = solve_axb(a, b)
        assert sol is not None
        assert a @ sol.particular == b
        for h in sol.homogeneous:
            assert (a @ h).is_zero()

    @given(small_matrix(2, 3), st.lists(st.integers(-3, 3), min_size=3, max_size=3),
           st.lists(st.integers(-2, 2), min_size=0, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_lattice_samples_are_solutions(self, a, xs, coeffs):
        x = IntMat.col(xs)
        b = a @ x
        sol = solve_axb(a, b)
        assume(sol is not None)
        y = sol.particular
        for c, h in zip(coeffs, sol.homogeneous):
            y = y + c * h
        assert a @ y == b

    def test_unsolvable_detected(self):
        assert solve_axb(IntMat([[2, 0], [0, 2]]), IntMat.col([1, 0])) is None


class TestOneSidedInverses:
    @given(small_matrix(2, 3))
    @settings(max_examples=60, deadline=None)
    def test_right_inverse_identity(self, f):
        assume(rank(f) == 2)
        sol = solve_axb(f, IntMat.identity(2))
        if sol is not None:
            assert f @ sol.particular == IntMat.identity(2)

    @given(small_matrix(3, 2))
    @settings(max_examples=60, deadline=None)
    def test_left_inverse_identity(self, f):
        assume(rank(f) == 2)
        g = best_left_inverse(f)
        assert (g is None) == (solve_axb(f.T, IntMat.identity(2)) is None)
        if g is not None:
            assert g @ f == IntMat.identity(2)

    @given(small_matrix(3, 2), st.lists(st.integers(-3, 3), min_size=2, max_size=2))
    @settings(max_examples=40, deadline=None)
    def test_family_members_are_inverses(self, f, ys):
        assume(rank(f) == 2)
        sol = solve_axb(f.T, IntMat.identity(2))
        assume(sol is not None)
        # every G = G0 + M K (rows of K span the left kernel) works
        g = sol.particular.T
        for kb in left_kernel_basis(f):
            g = g + IntMat([[ys[0]], [ys[1]]]) @ kb
        assert g @ f == IntMat.identity(2)

    @given(small_matrix(3, 2))
    @settings(max_examples=40, deadline=None)
    def test_moore_penrose_identity(self, f):
        assume(rank(f) == 2)
        fp = pseudoinverse(f)
        assert fp @ FracMat.from_int(f) == FracMat.identity(2)


class TestXFEqS:
    @given(small_matrix(2, 3), small_matrix(3, 2))
    @settings(max_examples=40, deadline=None)
    def test_constructed_xf_solvable(self, x, f):
        """S := X F is always compatible and the rational oracle
        reproduces a valid solution."""
        assume(rank(f) == 2)
        # X (2x3) @ F (3x2) = S (2x2): compatible by construction
        s = x @ f
        assert compatibility_condition(s, f)
        sol = solve_xf_eq_s(s, f)
        assert sol is not None
        assert sol @ FracMat.from_int(f) == FracMat.from_int(s)

    @given(small_matrix(2, 3), small_matrix(3, 2))
    @settings(max_examples=40, deadline=None)
    def test_integer_solver_agrees(self, x, f):
        assume(rank(f) == 2)
        s = x @ f
        sol = solve_axb(f.T, s.T)  # X F = S, transposed
        assert sol is not None
        assert sol.particular.T @ f == s


#: ``F`` shapes: narrow, square and flat
SHAPES = ((3, 2), (2, 2), (3, 3), (2, 3), (1, 2))
FLAT = ((2, 3), (1, 2))


def _xf_system(seed, shapes=SHAPES):
    """A full-rank ``F = U D V`` (``U``, ``V`` unimodular, ``D``
    diagonal with entries in 1..3, so invariant factors > 1 occur) and
    an ``S`` that is either ``X F`` for integer ``X`` or ``X F`` with
    one entry moved by +-1, which lands just off the integer lattice
    or off the row space of ``F``."""
    rng = random.Random(seed)
    a, d = rng.choice(shapes)
    diag = IntMat(
        [[rng.choice([1, 1, 2, 3]) if i == j else 0 for j in range(d)]
         for i in range(a)]
    )
    u, v = random_unimodular(a, rng, coeff=1), random_unimodular(d, rng, coeff=1)
    f = u @ diag @ v
    m = rng.randint(1, 3)
    x = IntMat([[rng.randint(-3, 3) for _ in range(a)] for _ in range(m)])
    s = (x @ f).tolist()
    if rng.random() < 0.6:
        s[rng.randrange(m)][rng.randrange(d)] += rng.choice([-1, 1])
    return f, IntMat(s)


def _outcome(f, s):
    """``"integer"``, ``"rational"`` (solvable over Q only) or
    ``"incompatible"`` for the system ``X F = S``."""
    if solve_axb(f.T, s.T) is not None:
        return "integer"
    return "rational" if compatibility_condition(s, f) else "incompatible"


class TestSolveAgainstLemma2Oracle:
    """``solve_axb(F^T, S^T)`` against the rational Lemma-2 layer: a
    rational solution exists iff ``S F^+ F = S``, and ``S F^+`` is one."""

    def test_generator_reaches_every_branch(self):
        outcomes = {_outcome(*_xf_system(seed)) for seed in range(200)}
        assert outcomes == {"integer", "rational", "incompatible"}

    @given(st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_found_solution_is_exact_and_compatible(self, seed):
        """(a) an integer ``X`` solves ``X F = S``, and Lemma 2's
        condition holds."""
        f, s = _xf_system(seed)
        sol = solve_axb(f.T, s.T)
        assume(sol is not None)
        assert sol.particular.T @ f == s
        assert compatibility_condition(s, f)
        for h in sol.homogeneous:
            assert (f.T @ h).is_zero()
        assert len(sol.homogeneous) == f.nrows - rank(f)

    @given(st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_integral_rational_solution_is_found(self, seed):
        """(b) when ``S F^+`` is compatible and integral, the integer
        solve finds a solution."""
        f, s = _xf_system(seed)
        x0 = solve_xf_eq_s(s, f)
        assume(x0 is not None and x0.is_integral())
        assert x0 @ FracMat.from_int(f) == FracMat.from_int(s)
        assert solve_axb(f.T, s.T) is not None

    @given(st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_incompatible_system_has_no_solution(self, seed):
        """(c) no rational solution means no integer one.  Only a
        flat ``F`` has a proper row space, so only it can fail."""
        f, s = _xf_system(seed, FLAT)
        assume(not compatibility_condition(s, f))
        assert solve_xf_eq_s(s, f) is None
        assert solve_axb(f.T, s.T) is None

    @given(st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_columns_solve_independently(self, seed):
        """(d) a ``k``-column right-hand side gives the particular
        columns of ``k`` one-column solves, and fails iff one does."""
        f, s = _xf_system(seed)
        rhs = s.T
        whole = solve_axb(f.T, rhs)
        cols = [solve_axb(f.T, rhs.col_vector(j)) for j in range(rhs.ncols)]
        assert (whole is None) == any(c is None for c in cols)
        if whole is not None:
            for j, c in enumerate(cols):
                assert whole.particular.col_vector(j) == c.particular
                assert whole.homogeneous == c.homogeneous


class TestKernelProperties:
    @given(small_matrix(2, 4))
    @settings(max_examples=60, deadline=None)
    def test_kernel_dimension_theorem(self, a):
        basis = integer_kernel_basis(a)
        assert len(basis) == a.ncols - rank(a)
        for v in basis:
            assert (a @ v).is_zero()

    @given(small_matrix(3, 3))
    @settings(max_examples=40, deadline=None)
    def test_kernel_vectors_independent(self, a):
        basis = integer_kernel_basis(a)
        if len(basis) >= 2:
            cols = [v.column_tuple(0) for v in basis]
            stacked = FracMat(list(zip(*cols)))
            assert fracmat_rank(stacked) == len(basis)
