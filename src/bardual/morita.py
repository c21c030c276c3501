"""Ordinary (non-dg) finite-dimensional algebras: radicals, simple modules,
projective resolutions, Ext groups, and classical Morita duality.

Everything is exact.  The radical comes from the trace-form criterion,
valid in characteristic 0 or p > dim A; smaller p raises
`TraceFormLimitError`.  Simple-module counts go through the center of
the semisimple quotient: central idempotents are split off using the
rational (or F_p) roots of minimal polynomials, and each block is
certified split by exhibiting a minimal left ideal whose dimension
squares to the block dimension.  A non-split block (e.g. a quaternion
algebra over Q) raises with "extend the field" rather than returning a
wrong count.

The Ext oracle builds a free resolution by covering tops (free cover of
M/rad.M, kernel, repeat), applies Hom(-, N) and takes cohomology; it
never touches the bar-construction code paths, which is the point: it is
the independent certificate for the Hochschild side.
"""

from __future__ import annotations

import itertools
import random as _random
from dataclasses import dataclass
from fractions import Fraction

from .algebras import CurvedAlgebra, CurvedModule
from .graded import GradedVectorSpace
from .linalg import (ColumnEchelon, Matrix, eliminate, inverse,
                     quotient_representatives, solve_matrix)
from .sparse import vadd, viadd, vleft, vneg, vright, vscale


class RefusedInput(ValueError):
    """Input a method here does not take: a refusal, not a failed check."""


class NotSplitError(RefusedInput):
    """The semisimple quotient does not split over the ground field: the
    count needs a field extension, which this engine does not make."""


class TraceFormLimitError(RefusedInput):
    """Characteristic p <= dim A, where the trace-form radical is not
    defined.  A limit of the method: an extension of F_p keeps
    characteristic p, so no field extension lifts it."""


class NotOrdinaryError(RefusedInput):
    """A graded or dg algebra or module where an ordinary one is needed."""


class OrdinaryAlgebra:
    """A finite-dimensional algebra concentrated in degree 0, zero d."""

    def __init__(self, algebra: CurvedAlgebra):
        if set(algebra.space.degrees) - {0} or algebra.diff \
                or algebra.curvature:
            raise NotOrdinaryError("needs an ordinary algebra: one in "
                                   "degree 0 with no differential")
        self.algebra = algebra
        self.field = algebra.field
        self.n = algebra.dim

    def mul(self, x, y):
        return self.algebra.mul(x, y)

    def unit(self):
        return dict(self.algebra.unit)

    def left_mult_matrix(self, vec) -> Matrix:
        A = self.algebra
        return Matrix.from_columns(self.field, self.n,
                                   [vleft(A.mult, vec, j)
                                    for j in range(self.n)])

    def __repr__(self):
        return f"OrdinaryAlgebra(dim={self.n})"


class OrdinaryModule:
    """Left module given by one action matrix per algebra basis element."""

    def __init__(self, A: OrdinaryAlgebra, mats, check=True):
        self.A = A
        self.field = A.field
        self.mats = mats
        self.dim = mats[0].rows if mats else 0
        if check:
            self.check()

    def check(self):
        A = self.A
        n = self.dim
        idm = Matrix.identity(self.field, n)
        one_mat = self.act_matrix(A.unit())
        if one_mat != idm:
            raise ValueError("action is not unital")
        for i in range(A.n):
            for j in range(A.n):
                prod = A.algebra.mult.get((i, j), {})
                lhs = self.mats[i] @ self.mats[j]
                rhs = self.act_matrix(prod)
                if lhs != rhs:
                    raise ValueError(f"action not associative at ({i},{j})")

    def act_matrix(self, vec) -> Matrix:
        cols = [{} for _ in range(self.dim)]
        for i, c in vec.items():
            for acc, col in zip(cols, self.mats[i].columns()):
                viadd(acc, col, c)
        return Matrix.from_columns(self.field, self.dim, cols)

    @classmethod
    def from_curved(cls, A: OrdinaryAlgebra, M: CurvedModule, check=True):
        if set(M.space.degrees) - {0} or any(M.diff.values()):
            raise NotOrdinaryError("needs an ordinary module: one in "
                                   "degree 0 with no differential")
        mats = [Matrix.from_columns(A.field, M.dim,
                                    [dict(M.action.get((i, j), {}))
                                     for j in range(M.dim)])
                for i in range(A.n)]
        return cls(A, mats, check=check)

    def __repr__(self):
        return f"OrdinaryModule(dim={self.dim})"


def regular_ordinary(A: OrdinaryAlgebra) -> OrdinaryModule:
    """A acting on itself; the matrix of e_i has the columns mult[(i, j)]."""
    mult = A.algebra.mult
    mats = [Matrix.from_columns(A.field, A.n, [dict(mult.get((i, j), {}))
                                               for j in range(A.n)])
            for i in range(A.n)]
    return OrdinaryModule(A, mats, check=False)


def injective_cogenerator(A: OrdinaryAlgebra) -> OrdinaryModule:
    """A* with (a.phi)(b) = phi(ba)."""
    mats = []
    for i in range(A.n):
        cols = [{} for _ in range(A.n)]
        for k in range(A.n):
            for j, c in A.algebra.mult.get((k, i), {}).items():
                cols[j][k] = c
        mats.append(Matrix.from_columns(A.field, A.n, cols))
    return OrdinaryModule(A, mats, check=False)


# ---------------------------------------------------------------------------
# radical and semisimple quotient


def radical(A: OrdinaryAlgebra):
    """Basis of the Jacobson radical via the trace form.

    rad = {x : trace(L_x L_y) = 0 for all y}; requires characteristic 0
    or p > dim A (Dickson's criterion).
    """
    p = getattr(A.field, "characteristic", 0)
    if p and p <= A.n:
        raise TraceFormLimitError(
            f"the trace-form radical needs characteristic 0 or p > dim A; "
            f"got p={p} <= dim A={A.n}, a limit of this method that no "
            f"field extension lifts")
    L = regular_ordinary(A).mats
    zero = A.field.zero

    def trace(m):
        return sum((col.get(d, zero) for d, col in enumerate(m.columns())),
                   zero)

    gram = Matrix.from_rows(A.field, [[trace(Li @ Lj) for Lj in L]
                                      for Li in L])
    _, kernel, _ = eliminate(gram)
    return kernel


def _nilpotency_index(A: OrdinaryAlgebra, ideal):
    """Smallest k with ideal^k = 0, or None if not nilpotent by dim A."""
    current = list(ideal)
    for k in range(1, A.n + 2):
        if not current:
            return k
        nxt = [prod for v in current for w in ideal if (prod := A.mul(v, w))]
        if not nxt:
            return k + 1
        current = quotient_representatives((), nxt, A.field)
    return None


def quotient_algebra(A: OrdinaryAlgebra, ideal):
    """A / span(ideal) for a two-sided ideal; returns (S, project, lift).

    project: vector in A -> vector in S; lift: S basis index -> vector in A.
    The complement basis is chosen among standard basis vectors (first
    pivot), so the quotient is deterministic.
    """
    field = A.field
    comp, project = _complement(field, ideal, A.n)

    def lift(j):
        return dict(comp[j])

    labels = [("s", j) for j in range(len(comp))]
    space = GradedVectorSpace({0: labels})
    mult = {}
    for a in range(len(comp)):
        for b in range(len(comp)):
            prod = project(A.mul(lift(a), lift(b)))
            if prod:
                mult[(a, b)] = prod
    unit = project(A.unit())
    S = OrdinaryAlgebra(CurvedAlgebra(field, space, unit, mult, {}, {},
                                      check=True))
    return S, project, lift


def center(A: OrdinaryAlgebra):
    """Basis of the center: solutions of x e_i - e_i x = 0 for all i."""
    n = A.n
    mult = A.algebra.mult
    # column j: the unknown x_j; row i * n + k: e_k in e_j e_i - e_i e_j
    cols = []
    for j in range(n):
        col = {}
        for i in range(n):
            comm = vadd(mult.get((j, i), {}), vneg(mult.get((i, j), {})))
            col.update((i * n + k, c) for k, c in comm.items())
        cols.append(col)
    _, kernel, _ = eliminate(Matrix.from_columns(A.field, n * n, cols))
    return kernel


def _minpoly(A: OrdinaryAlgebra, w, unit):
    """Monic minimal polynomial of w in the unital subalgebra with unit
    `unit` (coefficients listed from constant term up)."""
    field = A.field
    # the powers w^0 = unit, w^1, ... as the columns of one echelon
    E = ColumnEchelon(field, [unit], track=True)
    power = unit
    while True:
        power = A.mul(power, w)
        x = E.solve(power)
        if x is not None:
            # w^k = sum x_i w^i  ->  minpoly = t^k - sum x_i t^i
            return [-x.get(i, field.zero) for i in range(E.cols)] + [field.one]
        E.add(power)
        if E.cols > A.n + 1:
            raise AssertionError("minimal polynomial search ran away")


def _poly_roots(field, coeffs):
    """All roots in the ground field of a polynomial with coefficients
    from constant term up.  Complete for Q (rational root theorem after
    clearing denominators) and for F_p (exhaustive)."""
    zero = field.zero
    p = getattr(field, "characteristic", 0)
    roots = []

    def ev(x):
        acc = zero
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    if p:
        for v in range(p):
            x = field(v)
            if not ev(x):
                roots.append(x)
        return roots
    import math
    denom = 1
    for c in coeffs:
        denom = denom * c.denominator // math.gcd(denom, c.denominator)
    ints = [int(c * denom) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    a0, an = ints[0], ints[-1]
    if a0 == 0:
        roots.append(Fraction(0))
        # factor out t
        shifted = ints[1:]
        sub = [Fraction(c) for c in shifted]
        return roots + [r for r in _poly_roots(field, sub) if r != 0]
    for pdiv in _divisors(abs(a0)):
        for qdiv in _divisors(abs(an)):
            for sgn in (1, -1):
                cand = Fraction(sgn * pdiv, qdiv)
                if cand not in roots and not ev(cand):
                    roots.append(cand)
    return roots


def _divisors(n):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def central_idempotents(S: OrdinaryAlgebra):
    """Primitive central idempotents of a (semisimple) algebra.

    Splits the center by eigen-projectors of its elements; errors when a
    minimal polynomial fails to split over the ground field.
    """
    field = S.field
    Z = center(S)
    blocks = [S.unit()]
    for z in Z:
        again = True
        while again:
            again = False
            new_blocks = []
            for e in blocks:
                w = S.mul(z, e)
                mp = _minpoly(S, w, e)
                deg = len(mp) - 1
                if deg <= 1:
                    new_blocks.append(e)
                    continue
                roots = _poly_roots(field, mp)
                if len(roots) < deg:
                    raise NotSplitError(
                        "semisimple quotient does not split: extend the field")
                for lam in roots:
                    proj = dict(e)
                    for mu in roots:
                        if mu == lam:
                            continue
                        proj = S.mul(proj, vadd(w, vscale(-mu, e)))
                        proj = {i: c / (lam - mu) for i, c in proj.items()}
                    new_blocks.append(proj)
                again = True
            blocks = new_blocks
    # sanity: orthogonal idempotents summing to 1
    total = {}
    for e in blocks:
        viadd(total, e)
    if total != S.unit():
        raise AssertionError("idempotents do not sum to the unit")
    for e in blocks:
        if S.mul(e, e) != e:
            raise AssertionError("non-idempotent block projector")
    return blocks


def _submodule_span(A: OrdinaryAlgebra, mats, vectors):
    """Closure of span(vectors) under the action matrices: a first-pivot
    basis, built in one echelon.  Each round adds the images of the
    vectors the round before added, in (vector, matrix) order; the images
    of older vectors already lie in the span."""
    E = ColumnEchelon(A.field)
    added = [v for v in vectors if E.add(v)]
    basis = list(added)
    while added:
        added = [img for v in added for m in mats if E.add(img := m.apply(v))]
        basis.extend(added)
    return basis


def _module_on_subspace(A: OrdinaryAlgebra, mats, basis):
    """Restrict action matrices to an invariant subspace (basis columns)."""
    t = len(basis)
    xs = _coordinates(Matrix.from_columns(A.field, mats[0].rows, basis),
                      [m.apply(v) for m in mats for v in basis],
                      "subspace is not invariant")
    return [Matrix.from_columns(A.field, t, xs[i * t:(i + 1) * t])
            for i in range(len(mats))]


def _complement(field, sub, dim):
    """Standard basis vectors completing the independent `sub` to a basis
    of the dim-space (first pivot), and the map sending a vector to its
    coordinates on them modulo span(sub)."""
    comp = quotient_representatives(
        sub, Matrix.identity(field, dim).columns(), field)
    minv = inverse(Matrix.from_columns(field, dim, list(sub) + comp))
    if minv is None:
        raise ValueError("subspace + complement do not span")
    k = len(sub)

    def project(vec):
        return {j - k: c for j, c in minv.apply(vec).items() if j >= k}

    return comp, project


def _quotient_module(field, mats, sub, dim):
    """Action matrices on the quotient of the dim-space by the invariant
    span(sub), in the basis `_complement` picks."""
    comp, project = _complement(field, sub, dim)
    return [Matrix.from_columns(field, len(comp),
                                [project(m.apply(v)) for v in comp])
            for m in mats]


def _min_ideal_candidates(S: OrdinaryAlgebra, e_basis, seed=777):
    """Deterministic candidate generators for a minimal left ideal."""
    field = S.field
    cands = list(e_basis)
    for x, y in itertools.combinations(e_basis, 2):
        cands.append(vadd(x, y))
        cands.append(vadd(x, vneg(y)))
    # elements b - lambda.e for rational eigenvalues lambda: reliably
    # non-invertible inside the block
    rng = _random.Random(seed)
    for _ in range(40):
        v = {}
        for col in e_basis:
            viadd(v, col, field(rng.randint(-2, 2)))
        cands.append(v)
    return [c for c in cands if c]


def block_simple_module(S: OrdinaryAlgebra, e, seed=777):
    """A minimal left ideal of the block eS, certified by dim^2 = dim block.

    Returns (basis columns inside S, action matrices) or raises the
    extend-the-field error if no candidate certifies splitness.
    """
    field = S.field
    mats = regular_ordinary(S).mats
    # block subspace e.S.e? For a central idempotent, the block is e.S
    e_basis = quotient_representatives(
        (), [vleft(S.algebra.mult, e, i) for i in range(S.n)], field)
    block_dim = len(e_basis)

    # eigenvalue-shift candidates: b - lambda.e with lambda a root of the
    # minimal polynomial of b in the block
    extra = []
    for b in e_basis:
        mp = _minpoly(S, S.mul(e, b), e)
        for lam in _poly_roots(field, mp):
            shifted = vadd(b, vscale(-lam, e))
            if shifted:
                extra.append(shifted)

    best = None
    for v in _min_ideal_candidates(S, e_basis) + extra:
        span = _submodule_span(S, mats, [v])
        d = len(span)
        if d == 0:
            continue
        if best is None or d < len(best):
            best = span
            if d * d == block_dim:
                break
    if best is None or len(best) ** 2 != block_dim:
        raise NotSplitError(
            "block is not split over the ground field: extend the field")
    sub_mats = _module_on_subspace(S, mats, best)
    return best, sub_mats


def count_simples(A: OrdinaryAlgebra, with_modules=False):
    """Number of Wedderburn blocks of A/rad(A), fully certified.

    Errors with "extend the field" whenever the quotient fails to split.
    With with_modules=True also returns the simple modules (as modules
    over A, pulled back along the projection).
    """
    rad = radical(A)
    S, project, _ = (quotient_algebra(A, rad) if rad
                     else (A, lambda v: dict(v), None))
    if radical(S):
        raise AssertionError("radical of the quotient is nonzero")
    blocks = central_idempotents(S)
    found = [block_simple_module(S, e) for e in blocks]
    total_sq = sum(len(basis) ** 2 for basis, _ in found)
    if total_sq != S.n:
        raise ValueError(
            "sum of squared simple dimensions misses the quotient "
            "dimension: extend the field")
    if not with_modules:
        return len(blocks)
    # the action of A through the projection
    through = [S.left_mult_matrix(project(A.algebra.basis_vec(i)))
               for i in range(A.n)]
    simples = [OrdinaryModule(A, _module_on_subspace(S, through, basis))
               for basis, _ in found]
    return len(blocks), simples


def simple_modules(A: OrdinaryAlgebra):
    _, mods = count_simples(A, with_modules=True)
    return mods


def decompose_regular_semisimple(A: OrdinaryAlgebra, seed=99):
    """Independent cross-check: simple factors of A/rad as a module,
    found by repeated minimal-submodule search, deduplicated by Hom."""
    rad = radical(A)
    S, _, _ = (quotient_algebra(A, rad) if rad
               else (A, None, None))
    mats = regular_ordinary(S).mats
    reps = []
    current_mats = mats
    dim = S.n
    while dim > 0:
        # find a minimal submodule by shrinking
        std = Matrix.identity(S.field, dim).columns()
        best = None
        for v0 in _min_ideal_candidates(S, std, seed):
            span = _submodule_span(S, current_mats, [v0])
            if 0 < len(span) and (best is None or len(span) < len(best)):
                best = span
        if best is None:
            break
        sub = _module_on_subspace(S, current_mats, best)
        reps.append(sub)
        # quotient by the submodule and continue
        if len(best) == dim:
            break
        current_mats = _quotient_module(S.field, current_mats, best, dim)
        dim -= len(best)
    # dedup by intertwiner existence
    distinct = []
    for mats1 in reps:
        if not any(eliminate(_intertwiner_system(S.field, mats1, mats2))[1]
                   for mats2 in distinct):
            distinct.append(mats1)
    return len(distinct)


# ---------------------------------------------------------------------------
# Hom, End, classical Morita functors


def _intertwiner_system(field, mats_m, mats_n):
    """Linear system whose kernel is Hom_A(M, N), given the matrices of the
    basis of A acting on M and on N.

    The unknown phi (dim N x dim M) is flattened row by row, entry (r, c)
    at r * dim M + c; one equation per basis element e of A and entry
    (r, c) of phi . rho_M(e) - rho_N(e) . phi = 0, at row
    (e * dim N + r) * dim M + c.
    """
    dm, dn = mats_m[0].rows, mats_n[0].rows
    cols = [{} for _ in range(dn * dm)]
    for e, (mm, mn) in enumerate(zip(mats_m, mats_n)):
        base = e * dn * dm
        for c, col in enumerate(mm.columns()):
            for k, v in col.items():
                for r in range(dn):
                    viadd(cols[r * dm + k], {base + r * dm + c: v})
        for k, col in enumerate(mn.columns()):
            for r, v in col.items():
                for c in range(dm):
                    viadd(cols[k * dm + c], {base + r * dm + c: -v})
    return Matrix.from_columns(field, len(mats_m) * dn * dm, cols)


def _flat(m: Matrix) -> dict:
    """m flattened row by row into a sparse vector: (r, c) at r * cols + c."""
    return {r * m.cols + c: v
            for c, col in enumerate(m.columns()) for r, v in col.items()}


def _coordinates(solver: Matrix, vectors, what):
    """The sparse coordinates of each vector over the columns of `solver`,
    from one elimination; AssertionError(what) when one is not in their
    span."""
    X = solve_matrix(solver, Matrix.from_columns(solver.field, solver.rows,
                                                 vectors))
    if X is None:
        raise AssertionError(what)
    return X.columns()


def hom_modules(A: OrdinaryAlgebra, M: OrdinaryModule, N: OrdinaryModule):
    """Basis of Hom_A(M, N) as matrices (N.dim x M.dim)."""
    field = A.field
    dm, dn = M.dim, N.dim
    if dm == 0 or dn == 0:
        return []
    _, kernel, _ = eliminate(_intertwiner_system(field, M.mats, N.mats))
    out = []
    for v in kernel:
        cols = [{} for _ in range(dm)]
        for k, x in v.items():
            r, c = divmod(k, dm)
            cols[c][r] = x
        out.append(Matrix.from_columns(field, dn, cols))
    return out


@dataclass
class MoritaData:
    A: OrdinaryAlgebra
    M: OrdinaryModule
    gamma: OrdinaryAlgebra
    gamma_mats: list  # basis of End_A(M) as matrices
    solver: Matrix    # expresses an intertwiner in the gamma basis


def _post_composition(field, acting, basis, shape):
    """Post-composition by each matrix in `acting` on span(basis), a space
    of matrices of the given shape (rows, cols).

    Returns one matrix per acting matrix, in the basis `basis`, and the
    solver whose columns are the flattened basis.
    """
    rows, cols = shape
    solver = Matrix.from_columns(field, rows * cols, [_flat(b) for b in basis])
    t = len(basis)
    xs = _coordinates(solver, [_flat(a @ b) for a in acting for b in basis],
                      "post-composition leaves the Hom space")
    return [Matrix.from_columns(field, t, xs[i * t:(i + 1) * t])
            for i in range(len(acting))], solver


def gamma(A: OrdinaryAlgebra, M: OrdinaryModule) -> MoritaData:
    """Gamma = End_A(M) with multiplication = composition."""
    field = A.field
    mats = hom_modules(A, M, M)
    left, solver = _post_composition(field, mats, mats, (M.dim, M.dim))
    mult = {(a, b): col for a, m in enumerate(left)
            for b, col in enumerate(m.columns()) if col}
    unit, = _coordinates(solver, [_flat(Matrix.identity(field, M.dim))],
                         "the identity is not in End_A(M)")
    space = GradedVectorSpace({0: [("g", i) for i in range(len(mats))]})
    G = OrdinaryAlgebra(CurvedAlgebra(field, space, unit, mult, {}, {},
                                      check=True))
    return MoritaData(A, M, G, mats, solver)


def classical_F(md: MoritaData, N: OrdinaryModule):
    """F(N) = Hom_A(N, M) as a left Gamma-module (post-composition).

    Returns (module, basis, solver): basis lists the underlying
    intertwiners, and solver has their flattenings as columns.
    """
    basis = hom_modules(md.A, N, md.M)
    mats, solver = _post_composition(md.A.field, md.gamma_mats, basis,
                                     (md.M.dim, N.dim))
    return OrdinaryModule(md.gamma, mats), basis, solver


def classical_G(md: MoritaData, L: OrdinaryModule):
    """G(L) = Hom_Gamma(L, M) as a left A-module (post-composition)."""
    # M as a Gamma-module: gamma basis acts by its matrix
    Mg = OrdinaryModule(md.gamma, list(md.gamma_mats), check=False)
    basis = hom_modules(md.gamma, L, Mg)
    mats, solver = _post_composition(md.A.field, md.M.mats, basis,
                                     (md.M.dim, L.dim))
    return OrdinaryModule(md.A, mats), basis, solver


def morita_unit(md: MoritaData, N: OrdinaryModule):
    """The natural map N -> GF(N), n -> (phi -> phi(n)); returns
    (matrix, is_isomorphism)."""
    field = md.A.field
    FN, fbasis, _ = classical_F(md, N)
    GFN, _, gsolver = classical_G(md, FN)
    # ev_j: FN -> M, phi -> phi(x_j): matrix with columns phi_i(x_j)
    evs = [_flat(Matrix.from_columns(field, md.M.dim,
                                     [phi.columns()[j] for phi in fbasis]))
           for j in range(N.dim)]
    cols = _coordinates(gsolver, evs, "evaluation map is not Gamma-linear")
    mat = Matrix.from_columns(field, GFN.dim, cols)
    is_iso = (mat.rows == mat.cols and inverse(mat) is not None)
    # also check A-linearity of the unit
    for i in range(md.A.n):
        if not (mat @ N.mats[i] == GFN.mats[i] @ mat):
            return mat, False
    return mat, is_iso


# ---------------------------------------------------------------------------
# projective resolutions and the Ext oracle


def _top_lifts(A: OrdinaryAlgebra, M: OrdinaryModule, rad):
    """Representatives of a basis of M / rad.M (first-pivot convention)."""
    field = A.field
    radm = quotient_representatives(
        (), [col for v in rad for col in M.act_matrix(v).columns()], field)
    return (quotient_representatives(
        radm, Matrix.identity(field, M.dim).columns(), field), radm)


def _blocks(v, n, t):
    """A vector of A^t, with A-coordinate k of slot s at s * n + k, split
    into its t vectors of A."""
    out = [{} for _ in range(t)]
    for r, c in v.items():
        slot, k = divmod(r, n)
        out[slot][k] = c
    return out


def free_resolution(A: OrdinaryAlgebra, M: OrdinaryModule, length: int):
    """Free covers of tops, iterated: returns (ranks, deltas) where
    deltas[i] is the matrix over A of P_{i+1} -> P_i (entries: A-vectors),
    and ranks[i] = rank of P_i.  Stops early if a kernel vanishes.
    """
    field = A.field
    rad = radical(A)
    n = A.n

    # state: current module as (dim, action mats, embedding of basis into
    # P_prev = A^{t_prev} as columns), starting with M itself
    ranks = []
    deltas = []
    cur = M
    embed = None  # columns in A^{t_prev}
    t_prev = None
    for step in range(length + 1):
        if cur.dim == 0:
            break
        tops, _ = _top_lifts(A, cur, rad)
        t = len(tops)
        ranks.append(t)
        if embed is not None:
            # delta: A^t -> A^{t_prev}: generator g -> embed(top_g)
            columns = []
            for top in tops:
                # top is a vector in cur; its embedding is a column in
                # A^{t_prev}
                col = {}
                for i, c in top.items():
                    viadd(col, embed[i], c)
                columns.append(_blocks(col, n, t_prev))
            deltas.append([[columns[g][slot] for g in range(t)]
                           for slot in range(t_prev)])
        # kernel of A^t -> cur, as a module with embedding into A^t:
        # column g * n + k of the cover is e_k . top_g
        tops_m = Matrix.from_columns(field, cur.dim, tops)
        acted = [(rho @ tops_m).columns() for rho in cur.mats]
        cov = Matrix.from_columns(field, cur.dim,
                                  [acted[k][g] for g in range(t)
                                   for k in range(n)])
        _, kernel, _ = eliminate(cov)
        if not kernel:
            # exact already; record the zero next stage
            ranks.append(0)
            break
        # kernel as a module: basis vectors live in A^t
        kb = kernel
        km = Matrix.from_columns(field, n * t, kb)
        parts = [_blocks(v, n, t) for v in kb]
        imgs = []
        for i in range(n):
            for blocks in parts:
                img = {}
                for slot, xvec in enumerate(blocks):
                    img.update((slot * n + k, c) for k, c in
                               vright(A.algebra.mult, i, xvec).items())
                imgs.append(img)
        xs = _coordinates(km, imgs, "kernel is not a submodule")
        q = len(kb)
        mats = [Matrix.from_columns(field, q, xs[i * q:(i + 1) * q])
                for i in range(n)]
        cur = OrdinaryModule(A, mats, check=False)
        embed = kb
        t_prev = t
    return ranks, deltas


def ext_oracle(A: OrdinaryAlgebra, M: OrdinaryModule, N: OrdinaryModule,
               n_max: int):
    """dim Ext^n_A(M, N) for 0 <= n <= n_max, via a free resolution."""
    field = A.field
    if M.dim == 0 or N.dim == 0:
        return [0] * (n_max + 1)
    rad = radical(A)
    if not rad:
        # semisimple: all modules projective
        h0 = len(hom_modules(A, M, N))
        return [h0] + [0] * n_max
    ranks, deltas = free_resolution(A, M, n_max + 1)
    # Hom(A^t, N) = N^t; induced maps from deltas
    spaces = [ranks[i] * N.dim if i < len(ranks) else 0
              for i in range(n_max + 2)]

    def induced(i):
        """Matrix of Hom(P_i, N) -> Hom(P_{i+1}, N)."""
        if i + 1 >= len(ranks) or i >= len(deltas):
            return Matrix(field, spaces[i + 1] if i + 1 < len(spaces) else 0,
                          spaces[i])
        delta = deltas[i]  # t_i x t_{i+1} entries in A
        t_i, t_next = ranks[i], ranks[i + 1]
        cols = [{} for _ in range(t_i * N.dim)]
        for g in range(t_next):
            for slot in range(t_i):
                entry = delta[slot][g]
                if not entry:
                    continue
                rho = N.act_matrix(entry)
                for c, col in enumerate(rho.columns()):
                    cols[slot * N.dim + c].update(
                        (g * N.dim + r, v) for r, v in col.items())
        return Matrix.from_columns(field, t_next * N.dim, cols)

    out = []
    prev_rank = 0
    for i in range(n_max + 1):
        di = induced(i)
        r_i, kernel, _ = eliminate(di)
        ker_dim = len(kernel)
        out.append(ker_dim - prev_rank)
        prev_rank = r_i
    return out


def global_dimension_probe(A: OrdinaryAlgebra, n_max: int):
    """max n <= n_max with Ext^n(S, T) != 0 over simple pairs, or None
    when Ext has not died by n_max ("exceeded")."""
    simples = simple_modules(A)
    best = 0
    for S in simples:
        for T in simples:
            dims = ext_oracle(A, S, T, n_max)
            for n, d in enumerate(dims):
                if d:
                    best = max(best, n)
    if best >= n_max:
        return None
    return best
