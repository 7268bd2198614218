"""Extension — the m = 3 case (Cray T3D) of Section 5.

The paper states the elementary-matrix decomposition "can be obviously
extended to higher dimensions" and singles out 3-D machines.  This
benchmark decomposes a 3x3 determinant-1 data-flow matrix into unirow
factors (each moving data parallel to one axis of the cube) and prices
direct vs decomposed execution on the T3D model.
"""

from repro.decomp import unirow_decomposition, verify_factors
from repro.distribution import CyclicDistribution
from repro.linalg import IntMat
from repro.machine import MeshModel

from _harness import print_table

T3 = IntMat([[1, 1, 0], [1, 2, 1], [0, 1, 2]])  # det 1
N = 12
P = 2
SIZE = 4


def compute():
    factors = unirow_decomposition(T3)
    machine = MeshModel(P, P, P)
    dists = tuple(CyclicDistribution(N, P) for _ in range(3))
    direct = machine.time_general(dists, T3, size=SIZE)
    split = machine.time_decomposed(dists, factors, size=SIZE)
    return factors, direct, split


def test_3d_decomposition():
    factors, direct, split = compute()
    assert verify_factors(T3, factors)
    print_table(
        f"m = 3 extension — T={T3.tolist()} on a {P}x{P}x{P} T3D mesh",
        ["phases", "direct", "decomposed", "speedup"],
        [[len(factors), direct, split, direct / split]],
    )
    assert split < direct
    # every factor is axis-parallel (identity except one row)
    from repro.decomp import is_unirow

    assert all(is_unirow(f) for f in factors)
