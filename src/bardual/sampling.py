"""Seeded random generators for property tests and CLI check scenarios.

Random dg algebras are assembled from a small library of verified blocks
(products preserve all axioms) and then conjugated by a random basis
change, which makes the presentation generic without risking the axioms.
Random modules are free modules with a random square-zero differential on
the coefficient space, again made generic by conjugation.  Everything is
driven by an explicit seed, so failures reproduce.
"""

from __future__ import annotations

import random as _random

from .algebras import (CurvedAlgebra, CurvedModule, acyclic_two_dim,
                       algebra_from_tables, change_basis, free_module,
                       product)
from .graded import Complex, GradedMap, GradedVectorSpace
from .linalg import Matrix, inverse
from .sparse import vec
from .twisting import twist_algebra, twist_module


def _blocks(field):
    def k():
        return algebra_from_tables(field, {0: ["1"]}, "1", {}, {})

    def dual_numbers():
        return algebra_from_tables(field, {0: ["1", "x"]}, "1",
                                   {("x", "x"): []}, {})

    def exterior_up():
        # generator in degree +1, zero differential
        return algebra_from_tables(field, {0: ["1"], 1: ["y"]}, "1",
                                   {("y", "y"): []}, {})

    def exterior_down():
        return algebra_from_tables(field, {0: ["1"], -1: ["y"]}, "1",
                                   {("y", "y"): []}, {})

    def acyclic():
        return acyclic_two_dim(field)

    return [k, dual_numbers, exterior_up, exterior_down, acyclic]


def random_invertible(field, n, rng) -> Matrix:
    while True:
        m = Matrix.from_rows(field, [[field(rng.randint(-2, 2))
                                      for _ in range(n)] for _ in range(n)])
        if inverse(m) is not None:
            return m


def random_dg_algebra(field, seed: int, max_dim: int = 4) -> CurvedAlgebra:
    """A random dg algebra of dimension <= max_dim, degrees within [-1, 1]."""
    rng = _random.Random(seed)
    blocks = _blocks(field)
    A = blocks[rng.randrange(len(blocks))]()
    while A.dim < max_dim and rng.random() < 0.7:
        B = blocks[rng.randrange(len(blocks))]()
        if A.dim + B.dim > max_dim:
            break
        A, _, _ = product(A, B, check=False)
    mats = {d: random_invertible(field, len(idxs), rng)
            for d, idxs in A.by_degree.items()}
    # callers validate the result themselves where it matters
    return change_basis(A, mats, check=False)


def random_square_zero(field, V: GradedVectorSpace, rng) -> dict:
    """A random degree-1 map with d^2 = 0 on V, as a table over V's flat
    index: a partial matching between consecutive degrees, conjugated
    later by the caller if desired."""
    index = V.flat[1]
    table = {}
    used_targets = {}
    for n in V.degrees:
        rows, cols = V.labels(n + 1), V.labels(n)
        if not rows or not cols:
            continue
        taken = used_targets.setdefault(n + 1, set())
        for c in range(len(cols)):
            if rng.random() < 0.5:
                free = [r for r in range(len(rows)) if r not in taken]
                if not free:
                    break
                r = free[rng.randrange(len(free))]
                # a source that is itself a target must stay out of play
                if c in used_targets.get(n, set()):
                    continue
                table[index[n, cols[c]]] = {index[n + 1, rows[r]]: field.one}
                taken.add(r)
    return table


def random_space(rng, max_dim=3, lo=-1, hi=1) -> GradedVectorSpace:
    comp = {}
    total = 0
    for n in range(lo, hi + 1):
        d = rng.randint(0, max_dim - total if total < max_dim else 0)
        if d:
            comp[n] = [("v", n, i) for i in range(d)]
            total += d
    if not comp:
        comp = {0: [("v", 0, 0)]}
    return GradedVectorSpace(comp)


def random_free_module(A: CurvedAlgebra, seed: int,
                       max_rank: int = 2) -> CurvedModule:
    """A free module A (x) V with a random square-zero differential on V."""
    rng = _random.Random(seed)
    V = random_space(rng, max_dim=max_rank)
    dV = random_square_zero(A.field, V, rng)
    return free_module(A, V, dV, check=True)


def random_curved_setup(field, seed: int):
    """(curved algebra, curved module over it): twist a random dg algebra
    and a free module by a random degree-1 element."""
    rng = _random.Random(seed)
    A = random_dg_algebra(field, seed * 31 + 7)
    N = random_free_module(A, seed * 17 + 3)
    ones = A.by_degree.get(1, [])
    xi = {}
    for i in ones:
        c = field(rng.randint(-1, 1))
        if c:
            xi[i] = c
    Ax = twist_algebra(A, xi, check=True)
    Nx = twist_module(N, xi, algebra=Ax, check=True)
    return Ax, Nx, xi


def random_acyclic_complex(field, seed: int, max_dim=3) -> Complex:
    """The cone of the identity on a random complex: always acyclic."""
    rng = _random.Random(seed)
    V = random_space(rng, max_dim=max_dim)
    d = random_square_zero(field, V, rng)
    # cone of id: degree n part is V_{n+1} (+) V_n,
    # d(x, y) = (-d x, x + d y)
    comp = {}
    for n in set([m - 1 for m in V.degrees] + list(V.degrees)):
        labels = [("s", l) for l in V.labels(n + 1)]
        labels += [("c", l) for l in V.labels(n)]
        if labels:
            comp[n] = labels
    space = GradedVectorSpace(comp)
    index = space.flat[1]
    # basis element i of V_n: s[i] in degree n - 1, c[i] in degree n
    s = [index[n - 1, ("s", l)] for n, l in V.flat[0]]
    c = [index[n, ("c", l)] for n, l in V.flat[0]]
    table = {}
    for i in range(len(s)):
        di = d.get(i, {})
        table[s[i]] = vec(*((s[k], -v) for k, v in di.items()),
                          (c[i], field.one))
        if di:
            table[c[i]] = {c[k]: v for k, v in di.items()}
    return Complex(field, space, GradedMap.from_table(field, space, table, 1))


def random_ordinary_module(A, seed: int, max_dim: int = 4):
    """A random module over an ordinary algebra: quotient of a free module
    by the submodule generated by random elements; dimension <= max_dim."""
    from .morita import (OrdinaryModule, _quotient_module, _submodule_span,
                         regular_ordinary)
    rng = _random.Random(seed)
    n = A.n
    field = A.field
    rank = rng.randint(1, 2)
    # free module A^rank: action matrices are block left-multiplications
    reg = regular_ordinary(A)
    dim = n * rank

    def big(mats_entry):
        return Matrix.from_columns(field, dim, [
            {b * n + r: v for r, v in col.items()}
            for b in range(rank) for col in mats_entry.columns()])

    mats = [big(reg.mats[i]) for i in range(n)]
    # random generators of a submodule
    gens = []
    for _ in range(rng.randint(1, 3)):
        v = vec(*enumerate(field(rng.randint(-2, 2)) for _ in range(dim)))
        if v:
            gens.append(v)
    sub = _submodule_span(A, mats, gens)
    if len(sub) == dim:
        sub = []
    if dim - len(sub) > max_dim:
        return None
    return OrdinaryModule(A, _quotient_module(field, mats, sub, dim))
