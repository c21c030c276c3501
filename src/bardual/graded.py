"""Integer-graded vector spaces, degree-homogeneous maps and cochain complexes.

Conventions used everywhere in this package:

* cohomological grading: differentials have degree +1 and d∘d = 0 is
  checked eagerly whenever a Complex is built;
* suspension raises degree: shift(V, k) puts V_n in degree n+k;
* duals negate degrees, (V*)_n = (V_{-n})*, and keep the same basis labels;
* the Koszul sign rule is written out by each construction that needs
  it (here dual_map / tensor_map / hom_complex) and audited by the eager
  d² checks and the validators rather than trusted;
* a map passes from one construction to another as a table {flat index:
  sparse vector}, the format every structure stores; it becomes a
  GradedMap of per-degree blocks only where per-degree linear algebra
  starts, through `GradedMap.from_table`, the one conversion.
"""

from __future__ import annotations

from .linalg import (Matrix, eliminate, quotient_representatives, rank,
                     solve_matrix)


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
    def from_table(cls, field, space, table, degree):
        """The map on `space` of `table` (flat index -> sparse vector over
        the flat index), the one place a table becomes blocks.  Each block
        keeps the table's sparse columns, re-indexed to positions within
        the target degree; no dense block is ever filled."""
        start, first = {}, 0      # the flat basis runs through degrees in order
        for d in space.degrees:
            start[d], first = first, first + space.dim(d)
        blocks = {}
        for d in space.degrees:
            rows = space.dim(d + degree)
            if not rows:
                continue
            t = start[d + degree]
            cols = [{k - t: v for k, v in table.get(i, {}).items()}
                    for i in range(start[d], start[d] + space.dim(d))]
            if any(cols):
                blocks[d] = Matrix.from_columns(field, rows, cols)
        return cls(field, space, space, degree, blocks)

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

    def __add__(self, other):
        if (self.source != other.source or self.target != other.target
                or self.degree != other.degree):
            raise ValueError("sum of incompatible maps")
        return GradedMap(self.field, self.source, self.target, self.degree,
                         {n: self.block(n) + other.block(n)
                          for n in set(self.blocks) | set(other.blocks)})

    def scale(self, c):
        return GradedMap(self.field, self.source, self.target, self.degree,
                         {n: m.scale(c) for n, m in self.blocks.items()})

    def __neg__(self):
        return self.scale(-self.field.one)

    def __eq__(self, other):
        return (isinstance(other, GradedMap) and self.source == other.source
                and self.target == other.target and self.degree == other.degree
                and self.blocks == other.blocks)

    def is_zero(self):
        return not self.blocks

    def __repr__(self):
        return f"GradedMap(degree={self.degree}, blocks={sorted(self.blocks)})"


def dual_map(f: GradedMap) -> GradedMap:
    """Dual with the Koszul sign: (f*)(phi) = (-1)^{|f||phi|} phi o f.

    Same degree as f; satisfies dual(g o f) = (-1)^{|f||g|} dual(f) o dual(g).
    """
    src = dual(f.target)
    tgt = dual(f.source)
    blocks = {}
    for n, m in f.blocks.items():
        # phi lives in (W*)_k with k = -(n + f.degree); phi o f on V_n.
        k = -(n + f.degree)
        t = m.transpose()
        if (f.degree * k) % 2:
            t = -t
        blocks[k] = t
    return GradedMap(f.field, src, tgt, f.degree, blocks)


def _tensor_layout(V: GradedVectorSpace, W: GradedVectorSpace):
    """Per tensor-degree: ordered list of (i, j, pa, pb) mirroring tensor()."""
    layout = {}
    for i in V.degrees:
        for j in W.degrees:
            layout.setdefault(i + j, []).extend(
                (i, j, pa, pb)
                for pa in range(V.dim(i)) for pb in range(W.dim(j)))
    return layout


def tensor_map(f: GradedMap, g: GradedMap) -> GradedMap:
    """(f (x) g)(v (x) w) = (-1)^{|g||v|} f(v) (x) g(w)."""
    field = f.field
    src = tensor(f.source, g.source)
    tgt = tensor(f.target, g.target)
    src_layout = _tensor_layout(f.source, g.source)
    tgt_layout = _tensor_layout(f.target, g.target)
    tgt_pos = {n: {t: p for p, t in enumerate(lst)}
               for n, lst in tgt_layout.items()}
    fcols = {n: m.columns() for n, m in f.blocks.items()}
    gcols = {n: m.columns() for n, m in g.blocks.items()}
    deg = f.degree + g.degree
    blocks = {}
    for n, entries in src_layout.items():
        rows = tgt.dim(n + deg)
        if rows == 0:
            continue
        lookup = tgt_pos[n + deg]
        cols = []
        for (i, j, pa, pb) in entries:
            col = {}
            if i in fcols and j in gcols:
                sign = -field.one if (g.degree * i) % 2 else field.one
                for pa2, c1 in fcols[i][pa].items():
                    for pb2, c2 in gcols[j][pb].items():
                        row = lookup[(i + f.degree, j + g.degree, pa2, pb2)]
                        col[row] = sign * c1 * c2
            cols.append(col)
        blocks[n] = Matrix.from_columns(field, rows, cols)
    return GradedMap(field, src, tgt, deg, blocks)


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


def tensor_complex(C: Complex, D: Complex) -> Complex:
    V = tensor(C.space, D.space)
    idC = GradedMap.identity(C.field, C.space)
    idD = GradedMap.identity(D.field, D.space)
    d = tensor_map(C.d, idD) + tensor_map(idC, D.d)
    return Complex(C.field, V, d)


def hom_complex(C: Complex, D: Complex) -> Complex:
    """Hom-complex with d(f) = d_D o f - (-1)^{|f|} f o d_C."""
    field = C.field
    V, W = C.space, D.space
    H = hom(V, W)
    dD = {n: m.columns() for n, m in D.d.blocks.items()}
    # rows of d_C: pre-composing e_{b<-a} with d_C reads row a of d_C
    dC_rows = {n: m.transpose().columns() for n, m in C.d.blocks.items()}

    def h_layout(n):
        out = []
        for j in V.degrees:
            for pa in range(V.dim(j)):
                for pb in range(W.dim(j + n)):
                    out.append((j, pa, pb))
        return out

    blocks = {}
    for n in H.degrees:
        src_entries = h_layout(n)
        tgt_entries = h_layout(n + 1)
        if not tgt_entries:
            continue
        tgt_pos = {t: p for p, t in enumerate(tgt_entries)}
        sgn = -field.one if n % 2 else field.one
        cols = []
        for (j, pa, pb) in src_entries:
            col = {}
            # post-compose with d_D: e_{b<-a} at j goes to (d b)<-a.
            if j + n in dD:
                for pb2, c in dD[j + n][pb].items():
                    col[tgt_pos[(j, pa, pb2)]] = c
            # pre-compose with d_C: contributions from V_{j-1}.
            if j - 1 in dC_rows:
                for pa2, c in dC_rows[j - 1][pa].items():
                    col[tgt_pos[(j - 1, pa2, pb)]] = -sgn * c
            cols.append(col)
        blocks[n] = Matrix.from_columns(field, len(tgt_entries), cols)
    return Complex(field, H, GradedMap(field, H, H, 1, blocks))


def dual_complex(C: Complex) -> Complex:
    return Complex(C.field, dual(C.space), dual_map(C.d))


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
