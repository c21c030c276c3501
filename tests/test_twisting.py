import random

import pytest

from bardual.algebras import algebra_from_tables, free_module
from bardual.fields import QQ
from bardual.graded import GradedVectorSpace
from bardual.sampling import random_curved_setup, random_dg_algebra
from bardual.sparse import vadd, vneg
from bardual.twisting import (is_mc, twist_algebra, twist_module,
                              untwist_module)


def curved_example():
    A = algebra_from_tables(
        QQ, {0: ["1"], 1: ["y"], 2: ["z"]}, "1",
        {("y", "y"): [(QQ(1), "z")], ("y", "z"): [], ("z", "y"): [],
         ("z", "z"): []}, {})
    return A, {A.idx(1, "y"): QQ(1)}


def test_twist_by_zero_is_identity():
    A, _ = curved_example()
    B = twist_algebra(A, {})
    assert B.diff == A.diff and B.curvature == A.curvature


def test_double_twist_restores_everything():
    for seed in range(8):
        A = random_dg_algebra(QQ, seed + 40)
        rng = random.Random(seed)
        xi = {i: QQ(rng.randint(-2, 2)) for i in A.by_degree.get(1, [])}
        xi = {i: c for i, c in xi.items() if c}
        back = twist_algebra(twist_algebra(A, xi), vneg(xi))
        assert back.diff == A.diff and back.curvature == A.curvature


def test_twist_is_additive_group_action():
    for seed in range(6):
        A = random_dg_algebra(QQ, seed + 60)
        rng = random.Random(seed)
        ones = A.by_degree.get(1, [])
        xi = {i: QQ(rng.randint(-1, 1)) for i in ones}
        eta = {i: QQ(rng.randint(-1, 1)) for i in ones}
        xi = {i: c for i, c in xi.items() if c}
        eta = {i: c for i, c in eta.items() if c}
        two_step = twist_algebra(twist_algebra(A, xi), eta)
        one_step = twist_algebra(A, vadd(xi, eta))
        assert two_step.diff == one_step.diff
        assert two_step.curvature == one_step.curvature


def test_degree_guard():
    A, _ = curved_example()
    with pytest.raises(ValueError):
        twist_algebra(A, {A.idx(0, "1"): QQ(1)})


def test_mc_zero_element():
    A, xi = curved_example()
    assert bool(is_mc(A, {}))          # uncurved, xi = 0
    Ax = twist_algebra(A, xi)
    res = is_mc(Ax, {})
    assert not res and res.residual == Ax.curvature


def test_mc_twist_kills_curvature():
    A, xi = curved_example()
    Ax = twist_algebra(A, xi)
    assert bool(is_mc(Ax, vneg(xi)))
    assert twist_algebra(Ax, vneg(xi)).curvature == {}


def test_module_twist_round_trip_exact():
    count = 0
    seed = 0
    while count < 20:
        seed += 1
        try:
            Ax, Nx, xi = random_curved_setup(QQ, seed)
        except ValueError:
            continue
        rng = random.Random(seed + 500)
        eta = {i: QQ(rng.randint(-1, 1)) for i in Ax.by_degree.get(1, [])}
        eta = {i: c for i, c in eta.items() if c}
        N2 = twist_module(Nx, eta)
        N3 = untwist_module(N2, eta)
        assert N3.diff == Nx.diff and N3.action == Nx.action
        count += 1


def test_module_twist_vs_algebra_twist_differ_by_right_multiplication():
    # on an uncurved algebra viewed over itself, d^[xi] - d^xi is Koszul
    # right multiplication by xi
    for seed in range(6):
        A = random_dg_algebra(QQ, seed + 80)
        ones = A.by_degree.get(1, [])
        if not ones:
            continue
        rng = random.Random(seed)
        xi = {i: QQ(rng.randint(-1, 1)) for i in ones}
        xi = {i: c for i, c in xi.items() if c}
        from bardual.algebras import regular_module
        Ax = twist_algebra(A, xi)
        Nx = twist_module(regular_module(A), xi, algebra=Ax, check=False)
        for i in range(A.dim):
            lhs = Nx.diff.get(i, {})
            rhs = dict(Ax.diff.get(i, {}))
            # right multiplication with the Koszul sign (-1)^{|x|}
            term = A.mul(A.basis_vec(i), xi)
            sgn = -QQ(1) if A.degree[i] % 2 else QQ(1)
            rhs = vadd(rhs, {k: sgn * c for k, c in term.items()})
            assert lhs == rhs, (seed, i)


def test_twisted_module_validates_over_twisted_algebra():
    A, xi = curved_example()
    V = GradedVectorSpace({0: ["v"]})
    N = free_module(A, V, {})
    Nx = twist_module(N, xi)
    assert Nx.validate().ok
    assert Nx.algebra.curvature  # curved now
