"""Maurer-Cartan calculus: twisting curved algebras and modules.

Twisting an algebra by a degree-1 element xi replaces d by d + [xi, -]
and shifts the curvature by d(xi) + xi^2 (equal to d(xi) + [xi,xi]/2 away
from characteristic 2, which is excluded system-wide).  Twisting a module
adds the left action of xi to its differential.  Both operations re-run
full validation and hard-fail on any violated identity: the sign
conventions live in the constructions, the validator is the safety net.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebras import CurvedAlgebra, CurvedModule
from .sparse import vadd, viadd, vleft, vneg, vright


def _check_degree_one(A, xi):
    for k in xi:
        if A.degree[k] != 1:
            raise ValueError(
                f"twist element must be homogeneous of degree 1, "
                f"found degree {A.degree[k]}")


def twist_algebra(A: CurvedAlgebra, xi: dict, check=True) -> CurvedAlgebra:
    """A^xi: same underlying algebra, d^xi = d + [xi,-], h^xi = h + dxi + xi^2."""
    _check_degree_one(A, xi)
    mult, minus_xi = A.mult, vneg(xi)
    diff = {}
    for i in range(A.dim):
        # [xi, e_i] = xi e_i - (-1)^{|e_i|} e_i xi, summed apart from d e_i
        # so that the terms which cancel leave no slots in the new column
        br = vleft(mult, xi, i)
        viadd(br, vright(mult, i, xi if A.degree[i] % 2 else minus_xi))
        col = vadd(A.diff.get(i, {}), br)
        if col:
            diff[i] = col
    return CurvedAlgebra(A.field, A.space, A.unit, A.mult, diff,
                         mc_residual(A, xi), check=check)


def twist_module(N: CurvedModule, xi: dict, algebra=None,
                 check=True) -> CurvedModule:
    """N^[xi]: same space and action, differential d + (xi . -).

    The result is a module over A^xi; pass `algebra` to reuse an already
    twisted algebra object.
    """
    A = N.algebra
    _check_degree_one(A, xi)
    twisted = algebra if algebra is not None else twist_algebra(A, xi, check)
    diff = {}
    for j in range(N.dim):
        col = vadd(N.diff.get(j, {}), vleft(N.action, xi, j))
        if col:
            diff[j] = col
    return CurvedModule(twisted, N.space, N.action, diff, check=check)


def mc_residual(A: CurvedAlgebra, xi: dict) -> dict:
    """h + d(xi) + xi^2; zero exactly when xi is Maurer-Cartan."""
    _check_degree_one(A, xi)
    return vadd(vadd(dict(A.curvature), A.d(xi)), A.mul(xi, xi))


@dataclass
class MCResult:
    ok: bool
    residual: dict

    def __bool__(self):
        return self.ok


def is_mc(A: CurvedAlgebra, xi: dict) -> MCResult:
    res = mc_residual(A, xi)
    return MCResult(not res, res)


def untwist_module(N: CurvedModule, xi: dict, algebra=None,
                   check=True) -> CurvedModule:
    return twist_module(N, vneg(xi), algebra=algebra, check=check)
