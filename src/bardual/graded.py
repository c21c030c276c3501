"""Integer-graded vector spaces, degree-homogeneous maps and cochain complexes.

Conventions used everywhere in this package:

* cohomological grading: differentials have degree +1 and d∘d = 0 is
  checked eagerly whenever a Complex is built;
* suspension raises degree: shift(V, k) puts V_n in degree n+k;
* duals negate degrees, (V*)_n = (V_{-n})*, and keep the same basis labels;
* the Koszul sign rule is written out once for each construction that
  needs it, as a differential table: `tensor_differential`,
  `hom_differential` and the signed transpose of `dual_complex`; the
  eager d² checks and the validators audit them rather than trust them;
* a map passes from one construction to another as a table {flat index:
  sparse vector}, the format every structure stores; it becomes a
  GradedMap of per-degree blocks only where per-degree linear algebra
  starts.  `GradedMap.from_table` and `GradedMap.table` are the one
  crossing between the two, either way.
"""

from __future__ import annotations

from .linalg import (Matrix, eliminate, quotient_representatives, rank,
                     solve_matrix)
from .sparse import vec


class GradedVectorSpace:
    """Finite-support map degree -> ordered tuple of basis labels."""

    __slots__ = ("components", "_flat")

    def __init__(self, components):
        comp = {}
        for n, labels in components.items():
            labels = tuple(labels)
            if not labels:
                continue
            if len(set(labels)) != len(labels):
                raise ValueError(f"duplicate basis labels in degree {n}")
            comp[n] = labels
        self.components = comp
        self._flat = None

    @property
    def degrees(self):
        return tuple(sorted(self.components))

    def dim(self, n: int) -> int:
        return len(self.components.get(n, ()))

    @property
    def total_dim(self) -> int:
        return sum(len(v) for v in self.components.values())

    @property
    def flat(self):
        """(basis, index): the (degree, label) pairs in degree order and
        their positions, built once and shared by everything on this space."""
        if self._flat is None:
            basis = [(n, lbl) for n in self.degrees
                     for lbl in self.components[n]]
            self._flat = (basis, {bl: i for i, bl in enumerate(basis)})
        return self._flat

    def labels(self, n: int):
        return self.components.get(n, ())

    def __eq__(self, other):
        return (isinstance(other, GradedVectorSpace)
                and self.components == other.components)

    def __hash__(self):
        return hash(tuple(sorted((n, v) for n, v in self.components.items())))

    def __repr__(self):
        dims = {n: len(v) for n, v in sorted(self.components.items())}
        return f"GradedVectorSpace({dims})"


def _starts(V: GradedVectorSpace):
    """{degree: flat index of its first basis element}."""
    out, first = {}, 0
    for n in V.degrees:
        out[n], first = first, first + V.dim(n)
    return out


def shift(V: GradedVectorSpace, k: int) -> GradedVectorSpace:
    """Suspension: the degree-n part of the result is V_{n-k}."""
    return GradedVectorSpace({n + k: labels for n, labels in V.components.items()})


def dual(V: GradedVectorSpace) -> GradedVectorSpace:
    """(V*)_n = (V_{-n})*, indexed by the same labels."""
    return GradedVectorSpace({-n: labels for n, labels in V.components.items()})


def tensor(V: GradedVectorSpace, W: GradedVectorSpace) -> GradedVectorSpace:
    """(V (x) W)_n = sum over i+j=n of V_i (x) W_j, labels are (a, b) pairs."""
    comp = {}
    for i in V.degrees:
        for j in W.degrees:
            comp.setdefault(i + j, []).extend(
                (a, b) for a in V.labels(i) for b in W.labels(j))
    return GradedVectorSpace(comp)


def hom(V: GradedVectorSpace, W: GradedVectorSpace) -> GradedVectorSpace:
    """hom(V, W)_n = prod over j of Hom(V_j, W_{j+n}); labels (j, a, b)."""
    comp = {}
    for j in V.degrees:
        for m in W.degrees:
            n = m - j
            comp.setdefault(n, []).extend(
                (j, a, b) for a in V.labels(j) for b in W.labels(m))
    return GradedVectorSpace(comp)


class GradedMap:
    """Degree-homogeneous linear map, stored as one matrix per source degree.

    block[n] maps V_n (columns) to W_{n+degree} (rows); missing blocks are
    zero.  Zero blocks are normalised away so dict equality is map equality.
    """

    __slots__ = ("field", "source", "target", "degree", "blocks")

    def __init__(self, field, source, target, degree, blocks):
        self.field = field
        self.source = source
        self.target = target
        self.degree = degree
        clean = {}
        for n, m in blocks.items():
            if m.rows != target.dim(n + degree) or m.cols != source.dim(n):
                raise ValueError(f"block at degree {n} has wrong shape")
            if not m.is_zero():
                clean[n] = m
        self.blocks = clean

    @classmethod
    def zero(cls, field, source, target, degree=0):
        return cls(field, source, target, degree, {})

    @classmethod
    def from_table(cls, field, source, table, degree, target=None):
        """The map `table` (source flat index -> sparse vector over the
        flat index of `target`, default `source`) as blocks: with `table()`,
        the one place a map changes between the two.  Each block keeps the
        table's sparse columns, re-indexed to positions within the target
        degree; no dense block is ever filled."""
        target = source if target is None else target
        sstart, tstart = _starts(source), _starts(target)
        blocks = {}
        for d in source.degrees:
            rows = target.dim(d + degree)
            if not rows:
                continue
            t, first = tstart[d + degree], sstart[d]
            cols = [{k - t: v for k, v in table.get(i, {}).items()}
                    for i in range(first, first + source.dim(d))]
            if any(cols):
                blocks[d] = Matrix.from_columns(field, rows, cols)
        return cls(field, source, target, degree, blocks)

    def table(self):
        """The map as a table {source flat index: sparse vector over the
        target's flat index}, nonzero columns only; `from_table` inverts it."""
        sstart, tstart = _starts(self.source), _starts(self.target)
        out = {}
        for n, m in self.blocks.items():
            s, t = sstart[n], tstart[n + self.degree]
            for p, col in enumerate(m.columns()):
                if col:
                    out[s + p] = {t + r: v for r, v in col.items()}
        return out

    @classmethod
    def identity(cls, field, V):
        return cls(field, V, V, 0,
                   {n: Matrix.identity(field, V.dim(n)) for n in V.degrees})

    def block(self, n: int) -> Matrix:
        m = self.blocks.get(n)
        if m is None:
            return Matrix(self.field, self.target.dim(n + self.degree),
                          self.source.dim(n))
        return m

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self after other."""
        if other.target != self.source:
            raise ValueError("composition mismatch")
        blocks = {}
        for n in other.source.degrees:
            m = self.block(n + other.degree) @ other.block(n)
            blocks[n] = m
        return GradedMap(self.field, other.source, self.target,
                         self.degree + other.degree, blocks)

    def __eq__(self, other):
        return (isinstance(other, GradedMap) and self.source == other.source
                and self.target == other.target and self.degree == other.degree
                and self.blocks == other.blocks)

    def is_zero(self):
        return not self.blocks

    def __repr__(self):
        return f"GradedMap(degree={self.degree}, blocks={sorted(self.blocks)})"


class Complex:
    """Graded space with a degree +1 differential squaring to zero.

    d o d is computed in full when the complex is built, block by block
    from the sparse columns of d, so the check touches nonzero entries only
    and still misses none.
    """

    __slots__ = ("field", "space", "d")

    def __init__(self, field, space: GradedVectorSpace, d: GradedMap):
        if d.degree != 1:
            raise ValueError("differential must have degree +1")
        if d.source != space or d.target != space:
            raise ValueError("differential does not act on the given space")
        dd = d.compose(d)
        if not dd.is_zero():
            bad = sorted(dd.blocks)
            raise ValueError(f"d^2 != 0 (nonzero blocks at degrees {bad})")
        self.field = field
        self.space = space
        self.d = d

    def __repr__(self):
        return f"Complex({self.space!r})"


def tensor_differential(xdiff, xdeg, ydiff, ydim, pair):
    """d(x (x) y) = dx (x) y + (-1)^{|x|} x (x) dy on X (x) Y, as a table
    over the indices pair(i, j) of x_i (x) y_j: `xdiff` is the differential
    table of X and `xdeg` the degree of each of its basis indices, `ydiff`
    the differential table of Y and `ydim` its dimension."""
    diff = {}
    for i, deg in enumerate(xdeg):
        dx, odd = xdiff.get(i, {}), deg % 2
        for j in range(ydim):
            col = vec(*((pair(k, j), c) for k, c in dx.items()),
                      *((pair(i, k), -c if odd else c)
                        for k, c in ydiff.get(j, {}).items()))
            if col:
                diff[pair(i, j)] = col
    return diff


def hom_differential(sdiff, tdiff):
    """d phi = d_T o phi - (-1)^{|phi|} phi o d_S on the maps S -> T, for
    `sdiff` and `tdiff` the differential tables of S and T: image(n, (a, b))
    is the list [(slot, coeff)] of d applied to the degree-n map sending
    basis a of S to basis b of T."""
    hits = {}  # hits[a] = [(k, c)] for the terms c s_a of d s_k
    for k in sorted(sdiff):
        for a, c in sdiff[k].items():
            hits.setdefault(a, []).append((k, c))

    def image(n, slot):
        a, b = slot
        return ([((a, b2), c) for b2, c in tdiff.get(b, {}).items()]
                + [((k, b), c if n % 2 else -c) for k, c in hits.get(a, ())])
    return image


def tensor_complex(C: Complex, D: Complex) -> Complex:
    """C (x) D with d(x (x) y) = dx (x) y + (-1)^{|x|} x (x) dy."""
    V = tensor(C.space, D.space)
    index = V.flat[1]
    cbasis, dbasis = C.space.flat[0], D.space.flat[0]

    def pair(i, j):
        (m, a), (n, b) = cbasis[i], dbasis[j]
        return index[(m + n, (a, b))]
    d = tensor_differential(C.d.table(), [n for n, _ in cbasis],
                            D.d.table(), len(dbasis), pair)
    return Complex(C.field, V, GradedMap.from_table(C.field, V, d, 1))


def hom_complex(C: Complex, D: Complex) -> Complex:
    """Hom-complex with d(f) = d_D o f - (-1)^{|f|} f o d_C."""
    H = hom(C.space, D.space)
    index = H.flat[1]
    cbasis, dbasis = C.space.flat[0], D.space.flat[0]
    cindex, dindex = C.space.flat[1], D.space.flat[1]
    image = hom_differential(C.d.table(), D.d.table())

    def hidx(s, t):
        (j, a), (m, b) = cbasis[s], dbasis[t]
        return index[(m - j, (j, a, b))]
    table = {}
    for h, (n, (j, a, b)) in enumerate(H.flat[0]):
        slot = (cindex[(j, a)], dindex[(j + n, b)])
        col = vec(*((hidx(*st), c) for st, c in image(n, slot)))
        if col:
            table[h] = col
    return Complex(C.field, H, GradedMap.from_table(C.field, H, table, 1))


def dual_complex(C: Complex) -> Complex:
    """C* with the signed transpose: d(e_i) = ... + c e_k + ... gives
    d(e_k*) = ... + (-1)^{|e_k|} c e_i* + ...; (C*)_n = (C_{-n})*."""
    V = dual(C.space)
    index = V.flat[1]
    star = [index[(-n, lbl)] for n, lbl in C.space.flat[0]]
    degree = [n for n, _ in C.space.flat[0]]
    table = {}
    for i, col in C.d.table().items():
        for k, c in col.items():
            table.setdefault(star[k], {})[star[i]] = -c if degree[k] % 2 else c
    return Complex(C.field, V, GradedMap.from_table(C.field, V, table, 1))


class Cohomology:
    """H^n of a complex: its dimension, and representative cocycles.

    The representatives, sparse vectors of C^n, extend a basis of
    im d^{n-1} to one of ker d^n with the first-pivot convention; they
    are computed on first access.
    """

    __slots__ = ("betti", "_complex", "_degree", "_representatives")

    def __init__(self, betti, C, n):
        self.betti = betti
        self._complex = C
        self._degree = n
        self._representatives = None

    @property
    def representatives(self):
        if self._representatives is None:
            C, n = self._complex, self._degree
            _, kernel, _ = eliminate(C.d.block(n))
            _, _, image = eliminate(C.d.block(n - 1))
            reps = quotient_representatives(image, kernel, C.field)
            if len(reps) != self.betti:
                raise AssertionError(f"H^{n}: {len(reps)} representatives "
                                     f"for dimension {self.betti}")
            self._representatives = reps
        return self._representatives

    def __repr__(self):
        return f"Cohomology(degree={self._degree}, betti={self.betti})"


def cohomology(C: Complex, window=None):
    """Betti numbers, with representative cocycles on demand.

    window is an inclusive (lo, hi) degree interval; default is the full
    support of the complex.  Each block of d is eliminated once per call,
    for its rank only, and the rank serves both degrees it touches:
    betti_n = dim C^n - rank d^n - rank d^{n-1}.  Elimination runs on the
    sparse columns of the blocks (`linalg.ColumnEchelon`), exactly.
    Representatives follow the first-pivot convention, so output is
    deterministic; they cost a kernel and an image, and are computed only
    when a caller reads them.
    """
    degrees = C.space.degrees
    if window is None:
        if not degrees:
            return {}
        window = (degrees[0], degrees[-1])
    lo, hi = window
    ranks = {n: rank(C.d.block(n)) for n in range(lo - 1, hi + 1)}
    return {n: Cohomology(C.space.dim(n) - ranks[n] - ranks[n - 1], C, n)
            for n in range(lo, hi + 1)}


def is_chain_map(f: GradedMap, C: Complex, D: Complex) -> bool:
    if f.degree != 0:
        return False
    return f.compose(C.d) == D.d.compose(f)


def is_quasi_iso(f: GradedMap, C: Complex, D: Complex, window) -> bool:
    """True iff the induced map on cohomology is an isomorphism on the window.

    Raises if f is not a chain map.
    """
    if not is_chain_map(f, C, D):
        raise ValueError("not a chain map")
    lo, hi = window
    hC = cohomology(C, window)
    hD = cohomology(D, window)
    for n in range(lo, hi + 1):
        if hC[n].betti != hD[n].betti:
            return False
        b = hC[n].betti
        if b == 0:
            continue
        # matrix of the induced map in the chosen representative bases:
        # solve [reps_D | im d_D] x = f(rep) and keep the reps_D part.
        _, _, imD = eliminate(D.d.block(n - 1))
        rows = D.space.dim(n)
        basis = Matrix.from_columns(D.field, rows,
                                    hD[n].representatives + imD)
        images = Matrix.from_columns(D.field, rows, [
            f.block(n).apply(rep) for rep in hC[n].representatives])
        xs = solve_matrix(basis, images)
        if xs is None:
            raise AssertionError("chain map image escaped the cocycles")
        induced = Matrix.from_columns(D.field, b, [
            {i: v for i, v in x.items() if i < b} for x in xs.columns()])
        r, _, _ = eliminate(induced)
        if r != b:
            return False
    return True


def truncate_complex(C: Complex, n: int, m: int) -> Complex:
    """Canonical two-sided truncation supported on [n, m].

    Degree i keeps M^i for n < i < m, with coker(d: M^{n-1} -> M^n) at i=n
    and ker(d: M^m -> M^{m+1}) at i=m; the end maps are the induced ones.
    Cohomology inside [n, m] is unchanged, so acyclic input stays acyclic.
    """
    if n >= m:
        raise ValueError("need n < m")
    field = C.field
    comp = {}
    # bottom: coker of d^{n-1}: representatives of M^n modulo the image.
    _, _, im_low = eliminate(C.d.block(n - 1))
    coker_reps = quotient_representatives(
        im_low, Matrix.identity(field, C.space.dim(n)).columns(), field)
    if coker_reps:
        comp[n] = tuple(("coker", i) for i in range(len(coker_reps)))
    for i in range(n + 1, m):
        if C.space.dim(i):
            comp[i] = C.space.labels(i)
    # top: kernel of d^m.
    _, ker_top, _ = eliminate(C.d.block(m))
    if ker_top:
        comp[m] = tuple(("ker", i) for i in range(len(ker_top)))
    space = GradedVectorSpace(comp)

    blocks = {}
    ker_mat = Matrix.from_columns(field, C.space.dim(m), ker_top)
    for i in range(n, m):
        tgt_dim = space.dim(i + 1)
        src_dim = space.dim(i)
        if tgt_dim == 0 or src_dim == 0:
            continue
        if i == n:
            cols = [C.d.block(n).apply(rep) for rep in coker_reps]
        else:
            cols = C.d.block(i).columns()
        if i + 1 == m:
            # express images in the kernel basis, from one elimination
            xs = solve_matrix(ker_mat, Matrix.from_columns(
                field, C.space.dim(m), cols))
            if xs is None:
                raise AssertionError("d does not land in ker at the top")
            cols = xs.columns()
        blocks[i] = Matrix.from_columns(field, tgt_dim, cols)
    d = GradedMap(field, space, space, 1, blocks)
    return Complex(field, space, d)
