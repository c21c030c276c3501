"""Dg algebras, curved dg algebras, their modules and morphisms.

An algebra is stored by structure constants over a flat basis (the flat
order is: degrees ascending, then the label order of the underlying
graded space).  Multiplication and differential tables are sparse: a
missing key means the product / image is zero.  The unit is kept as a
sparse vector because natural constructions (products of algebras,
endomorphism algebras) have units that are sums of basis vectors.

`CurvedAlgebra` and `CurvedModule` share one base, `_DiffSpace`: the
space with its flat basis and index, the degree of each basis index,
the differential table `diff`, `d` and `as_complex`.  Every table is
applied by the kernels of `sparse` (`vapply`, `vleft`, `vright`,
`vbilinear`); a product with a basis element passes the element's index.
A map passes from one construction to another as its table.  It becomes
blocks, through `GradedMap.from_table`, only where per-degree linear
algebra runs (`as_complex`, `as_graded_map`, the inverse of a map), and
blocks come back as a table only through `GradedMap.table` (the inverse,
a change of basis).  End(M) takes [d, -] from
`graded.hom_differential`, and A (x) B, A (x) V and N (x) M take theirs
from `graded.tensor_differential`.

Every defining identity is machine-checked by `validate`:

* associativity and two-sided unit,
* the graded Leibniz rule d(ab) = d(a)b + (-1)^{|a|} a d(b),
* d^2 = [h, -] with d(h) = 0   (h = 0 gives an honest dg algebra),
* for modules, d_M^2(x) = h x and compatibility with the algebra,
* for morphisms (f, a), the curved morphism equations.

Every check is exhaustive.  Associativity and the Leibniz rule are
decided for every basis triple (pair) by joining over the nonzero
structure constants, so their cost scales with the number of nonzero
product paths rather than with dim^3 (dim^2): a triple that no nonzero
path reaches has both sides zero.  The report notes name the full
number of triples decided.

The two joins run on Python ints, not on field elements.  Each
`validate` call converts its tables once (`_int_tables`): over Q every
constant of every table is multiplied by one common denominator D, and
over F_p the residues are used as they are.  Each side of an identity
the joins decide is a sum of products of exactly two constants, so over
Q both sides scale by D^2 and a difference is zero exactly when it was;
over F_p a difference is reduced mod p when it is tested, and nowhere
else.  The unit, degree and d^2 checks stay in field arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from math import lcm

from .graded import (Complex, GradedMap, GradedVectorSpace, hom_differential,
                     tensor_differential)
from .linalg import Matrix, inverse
from .sparse import (vadd, vapply, vbilinear, vec, viadd, vleft, vneg,
                     vright)


@dataclass
class Failure:
    identity: str
    witness: tuple
    detail: str = ""

    def __repr__(self):
        w = f" at {self.witness}" if self.witness else ""
        d = f": {self.detail}" if self.detail else ""
        return f"Failure({self.identity}{w}{d})"


@dataclass
class Report:
    failures: list = dfield(default_factory=list)
    notes: list = dfield(default_factory=list)

    @property
    def ok(self):
        return not self.failures

    def add(self, identity, witness=(), detail=""):
        if len(self.failures) < 200:
            self.failures.append(Failure(identity, witness, detail))

    def raise_if_failed(self, context=""):
        if self.failures:
            head = self.failures[:5]
            raise ValidationError(f"{context} failed validation: {head}", self)


class ValidationError(ValueError):
    def __init__(self, msg, report=None):
        super().__init__(msg)
        self.report = report


def _int_tables(field, *tables):
    """The structure tables as integer tables {key: ((index, int), ...)}.

    Over Q every constant is multiplied by one common denominator D, the
    lcm of the denominators in all the tables of the call; over F_p the
    residues are taken as they are.  Returns (p, converted tables), with
    p the characteristic: a difference the joins accumulate from these
    tables stands for zero exactly when it is zero (over Q) or divisible
    by p (over F_p).  Equal columns share one tuple, which keeps the
    tables of a construction with many unit products small.
    """
    p = field.characteristic
    if p:
        def ints(col):
            return tuple((t, c.val) for t, c in col.items())
    else:
        D = lcm(*{c.denominator for table in tables
                  for col in table.values() for c in col.values()})

        def ints(col):
            return tuple((t, c.numerator * (D // c.denominator))
                         for t, c in col.items())
    shared = {}
    out = []
    for table in tables:
        conv = {}
        for key, col in table.items():
            col = ints(col)
            conv[key] = shared.setdefault(col, col)
        out.append(conv)
    return p, out


def _by_first(table):
    """{(i, j): vec} -> {i: [j, ...]}, the nonzero entries of each row."""
    out = {}
    for i, j in table:
        out.setdefault(i, []).append(j)
    return out


def _nonzero_keys(acc, p):
    """The keys of `acc` whose accumulated vector is nonzero (mod p if p)."""
    if p:
        rem = p.__rmod__                # rem(v) = v % p
        return sorted(key for key, d in acc.items()
                      if any(map(rem, d.values())))
    return sorted(key for key, d in acc.items() if any(d.values()))


def _associativity_failures(mult, action, p):
    """Triples (i, j, k) with (e_i e_j) x_k != e_i (e_j x_k), sorted.

    `mult` is the algebra's product table and `action` its action on a
    space X (the product table again when X is the algebra), both as
    integer tables from one `_int_tables` call of characteristic `p`.
    For each left factor i the difference of the two sides is
    accumulated as one sparse vector per (j, k) over the nonzero paths
    only: the left side through e_i e_j = sum c_t e_t, the right side
    through the index of the pairs (j, k) whose product e_j x_k has a
    coefficient on x_t.  Every nonzero accumulated vector is a failing
    triple, and a triple reached by no path has both sides zero, so every
    triple is decided.

    Each side is a sum of products of one product constant and one
    action constant (left) or of two action constants (right).  Over Q
    `_int_tables` scaled all of them by the same D, so both sides are
    D^2 times the true ones and a difference is zero exactly when it was.
    Over F_p the sums are taken in the integers and reduced mod p only
    when a vector is tested.
    """
    mult_first = _by_first(mult)
    act_first = mult_first if action is mult else _by_first(action)
    produced = {}      # t -> ([(j, k), ...], [c, ...]): c x_t is in e_j x_k
    for key, out in action.items():
        for t, c in out:
            keys, coefs = produced.setdefault(t, ([], []))
            keys.append(key)
            coefs.append(c)
    bad = []
    for i in sorted(mult_first.keys() | act_first.keys()):
        acc = {}
        for j in mult_first.get(i, ()):
            for t, c in mult[(i, j)]:
                for k in act_first.get(t, ()):
                    d = acc.setdefault((j, k), {})
                    for s, v in action[(t, k)]:
                        d[s] = d.get(s, 0) + c * v
        for t in act_first.get(i, ()):
            out = action[(i, t)]
            keys, coefs = produced.get(t, ((), ()))
            for key, c in zip(keys, coefs):
                d = acc.setdefault(key, {})
                for s, v in out:
                    d[s] = d.get(s, 0) - c * v
        bad.extend((i, j, k) for j, k in _nonzero_keys(acc, p))
    return bad


def _leibniz_failures(action, adiff, xdiff, adeg, p):
    """Pairs (i, j) with d(e_i x_j) != d(e_i) x_j + (-1)^{|e_i|} e_i d(x_j).

    `action` is the algebra's action on X (its product when X is the
    algebra), `adiff` and `xdiff` the two differentials, all as integer
    tables from one `_int_tables` call of characteristic `p`, and `adeg`
    the algebra degrees.  As in `_associativity_failures`, the difference
    is accumulated per left factor over nonzero entries only, so a pair
    no entry reaches has both sides zero.  Every term is a product of one
    action constant and one differential constant, so with the common D
    of `_int_tables` both sides scale by D^2; over F_p the difference is
    reduced mod p when it is tested.
    """
    act_first = _by_first(action)
    hits = {}                # t -> [(j, c)]: x_t has coefficient c in d(x_j)
    for j, col in xdiff.items():
        for t, c in col:
            hits.setdefault(t, []).append((j, c))
    bad = []
    for i in sorted(act_first.keys() | adiff.keys()):
        acc = {}
        for j in act_first.get(i, ()):
            d = acc.setdefault(j, {})
            for t, c in action[(i, j)]:
                for s, v in xdiff.get(t, ()):
                    d[s] = d.get(s, 0) + c * v
        for t, c in adiff.get(i, ()):
            for j in act_first.get(t, ()):
                d = acc.setdefault(j, {})
                for s, v in action[(t, j)]:
                    d[s] = d.get(s, 0) - c * v
        sign = 1 if adeg[i] % 2 else -1
        for t in act_first.get(i, ()):
            out = action[(i, t)]
            for j, c in hits.get(t, ()):
                d = acc.setdefault(j, {})
                c *= sign
                for s, v in out:
                    d[s] = d.get(s, 0) + c * v
        bad.extend((i, j) for j in _nonzero_keys(acc, p))
    return bad


class _DiffSpace:
    """What an algebra and a module share: a graded space with its flat
    basis and index, the degree of each basis index, and a degree +1 map
    `diff` (index -> sparse vector) whose square need not vanish."""

    def __init__(self, field, space, diff):
        self.field = field
        self.space = space
        self.basis, self.index = space.flat
        self.degree = [bl[0] for bl in self.basis]
        self.diff = diff
        self.by_degree = {}
        for i, d in enumerate(self.degree):
            self.by_degree.setdefault(d, []).append(i)

    @property
    def dim(self):
        return len(self.basis)

    def basis_vec(self, i):
        return {i: self.field.one}

    def d(self, x: dict) -> dict:
        return vapply(self.diff, x)

    def as_complex(self) -> Complex:
        return Complex(self.field, self.space, GradedMap.from_table(
            self.field, self.space, self.diff, 1))


class CurvedAlgebra(_DiffSpace):
    """Graded algebra with degree +1 derivation d and curvature h.

    d^2 = [h, -] and d(h) = 0; h = {} means an honest dg algebra.
    """

    def __init__(self, field, space, unit, mult, diff, curvature=None,
                 check=True):
        super().__init__(field, space, diff)
        self.unit = dict(unit)
        self.mult = mult
        self.curvature = dict(curvature or {})
        if check:
            self.validate().raise_if_failed("algebra")

    def idx(self, deg, label):
        return self.index[(deg, label)]

    def mul(self, x: dict, y: dict) -> dict:
        return vbilinear(self.mult, x, y)

    def bracket(self, x: dict, y: dict) -> dict:
        """Graded commutator [x, y] = xy - (-1)^{|x||y|} yx (termwise)."""
        out = {}
        deg = self.degree
        for i, ci in x.items():
            di = deg[i]
            for j, cj in y.items():
                c = ci * cj
                p = self.mult.get((i, j))
                if p:
                    viadd(out, p, c)
                q = self.mult.get((j, i))
                if q:
                    viadd(out, q, c if (di * deg[j]) % 2 else -c)
        return out

    def is_uncurved(self):
        return not self.curvature

    # -- validation ------------------------------------------------------
    def validate(self, seed=None) -> Report:
        """Exhaustive check of every identity.

        `seed` is ignored, since no triple is drawn at random; it is
        still accepted because existing callers (the benchmark) pass it.
        """
        rep = Report()
        n = self.dim
        one = self.field.one
        deg = self.degree

        for (i, j), out in self.mult.items():
            want = deg[i] + deg[j]
            for k in out:
                if deg[k] != want:
                    rep.add("mult-degree", (i, j, k))
        for i, out in self.diff.items():
            for k in out:
                if deg[k] != deg[i] + 1:
                    rep.add("diff-degree", (i, k))
        for k in self.curvature:
            if deg[k] != 2:
                rep.add("curvature-degree", (k,))
        for k in self.unit:
            if deg[k] != 0:
                rep.add("unit-degree", (k,))

        mult, diff, unit = self.mult, self.diff, self.unit
        for i in range(n):
            want = {i: one}
            if vleft(mult, unit, i) != want:
                rep.add("left-unit", (i,))
            if vright(mult, i, unit) != want:
                rep.add("right-unit", (i,))

        rep.notes.append(f"associativity: all {n * n * n} triples")
        p, (imult, idiff) = _int_tables(self.field, mult, diff)
        for w in _associativity_failures(imult, imult, p):
            rep.add("associativity", w)
        for w in _leibniz_failures(imult, idiff, idiff, deg, p):
            rep.add("leibniz", w)
        del imult, idiff

        h, minus_h = self.curvature, vneg(self.curvature)
        for i in range(n):
            # d^2 e_i = h e_i - e_i h
            if (vapply(diff, diff.get(i, {}))
                    != vadd(vleft(mult, h, i), vright(mult, i, minus_h))):
                rep.add("d-squared", (i,))
        if self.d(h):
            rep.add("d-of-curvature", ())
        return rep

    def __repr__(self):
        kind = "dg" if self.is_uncurved() else "curved"
        return f"CurvedAlgebra({kind}, dim={self.dim})"


def _inverse_table(table, S, T):
    """The inverse, as a table from T to S, of the degree-0 map `table`
    (S index -> sparse T vector), or None when it is not bijective."""
    f = GradedMap.from_table(S.field, S.space, table, 0, T.space)
    blocks = {}
    for d in set(S.space.degrees) | set(T.space.degrees):
        m = f.block(d)
        inv = inverse(m) if m.rows == m.cols else None
        if inv is None:
            return None
        blocks[d] = inv
    return GradedMap(S.field, T.space, S.space, 0, blocks).table()


# ---------------------------------------------------------------------------
# modules


class CurvedModule(_DiffSpace):
    """Left module over a CurvedAlgebra with d_M^2(x) = h x."""

    def __init__(self, algebra, space, action, diff, check=True):
        super().__init__(algebra.field, space, diff)
        self.algebra = algebra
        self.action = action
        if check:
            self.validate().raise_if_failed("module")

    def act(self, a: dict, x: dict) -> dict:
        return vbilinear(self.action, a, x)

    def validate(self, seed=None) -> Report:
        """Exhaustive check of every identity.

        `seed` is ignored, since no triple is drawn at random; it is
        still accepted because existing callers (the benchmark) pass it.
        """
        rep = Report()
        A = self.algebra
        one = self.field.one
        adeg, mdeg = A.degree, self.degree

        for (i, j), out in self.action.items():
            want = adeg[i] + mdeg[j]
            for k in out:
                if mdeg[k] != want:
                    rep.add("action-degree", (i, j, k))
        for i, out in self.diff.items():
            for k in out:
                if mdeg[k] != mdeg[i] + 1:
                    rep.add("mdiff-degree", (i, k))

        action = self.action
        for j in range(self.dim):
            if vleft(action, A.unit, j) != {j: one}:
                rep.add("unital-action", (j,))

        triples = A.dim * A.dim * self.dim
        rep.notes.append(f"action associativity: all {triples} triples")
        p, (imult, iaction, iadiff, ixdiff) = _int_tables(
            self.field, A.mult, action, A.diff, self.diff)
        for w in _associativity_failures(imult, iaction, p):
            rep.add("action-associativity", w)
        for w in _leibniz_failures(iaction, iadiff, ixdiff, adeg, p):
            rep.add("module-leibniz", w)
        del imult, iaction, iadiff, ixdiff

        diff = self.diff
        for j in range(self.dim):
            # d_M^2 x_j = h x_j
            if vapply(diff, diff.get(j, {})) != vleft(action, A.curvature, j):
                rep.add("module-d-squared", (j,))
        return rep

    def __repr__(self):
        return f"CurvedModule(dim={self.dim} over dim={self.algebra.dim})"


class ModuleMap:
    """Degree-0 map of curved modules over the same algebra."""

    def __init__(self, source, target, blocks, check=True):
        self.source = source
        self.target = target
        self.field = source.field
        self.blocks = blocks  # dict: source index -> sparse target vector
        if check:
            self.validate().raise_if_failed("module map")

    def apply(self, x: dict) -> dict:
        return vapply(self.blocks, x)

    def validate(self) -> Report:
        rep = Report()
        S, T = self.source, self.target
        for i, col in self.blocks.items():
            for k in col:
                if T.degree[k] != S.degree[i]:
                    rep.add("map-degree", (i, k))
        images = [self.blocks.get(i, {}) for i in range(S.dim)]
        for i in range(S.dim):
            if self.apply(S.diff.get(i, {})) != T.d(images[i]):
                rep.add("chain-map", (i,))
        for a in range(S.algebra.dim):
            for i in range(S.dim):
                lhs = self.apply(S.action.get((a, i), {}))
                if lhs != vright(T.action, a, images[i]):
                    rep.add("action-compat", (a, i))
        return rep

    def is_iso(self) -> bool:
        S, T = self.source, self.target
        return _inverse_table(self.blocks, S, T) is not None

    def __repr__(self):
        return f"ModuleMap({self.source.dim} -> {self.target.dim})"


# ---------------------------------------------------------------------------
# curved morphisms


class CurvedMorphism:
    """Morphism (f, a): source -> target of curved algebras.

    f is a unital multiplicative degree-0 map, a a degree-1 element of the
    target, with f(d x) = d(f x) + [a, f x] and f(h_src) = h_tgt + da + a^2.
    Strict morphisms have a = 0.
    """

    def __init__(self, source, target, f, a=None, check=True):
        self.source = source
        self.target = target
        self.field = source.field
        self.f = f
        self.a = dict(a or {})
        if check:
            self.validate().raise_if_failed("curved morphism")

    def apply(self, x: dict) -> dict:
        return vapply(self.f, x)

    def validate(self) -> Report:
        rep = Report()
        S, T = self.source, self.target
        for i, col in self.f.items():
            for k in col:
                if T.degree[k] != S.degree[i]:
                    rep.add("morphism-degree", (i, k))
        for k in self.a:
            if T.degree[k] != 1:
                rep.add("twist-element-degree", (k,))
        if self.apply(S.unit) != T.unit:
            rep.add("unital", ())
        images = [self.f.get(i, {}) for i in range(S.dim)]
        for i in range(S.dim):
            for j in range(S.dim):
                lhs = self.apply(S.mult.get((i, j), {}))
                if lhs != T.mul(images[i], images[j]):
                    rep.add("multiplicative", (i, j))
        for i in range(S.dim):
            lhs = self.apply(S.diff.get(i, {}))
            fx = images[i]
            rhs = vadd(T.d(fx), T.bracket(self.a, fx))
            if lhs != rhs:
                rep.add("curved-chain-rule", (i,))
        lhs = self.apply(S.curvature)
        rhs = vadd(vadd(dict(T.curvature), T.d(self.a)),
                   T.mul(self.a, self.a))
        if lhs != rhs:
            rep.add("curvature-rule", ())
        return rep

    def as_graded_map(self) -> GradedMap:
        return GradedMap.from_table(self.field, self.source.space, self.f, 0,
                                    self.target.space)

    def __repr__(self):
        kind = "strict" if not self.a else "twisted"
        return f"CurvedMorphism({kind}, {self.source.dim}->{self.target.dim})"


def identity_morphism(A: CurvedAlgebra) -> CurvedMorphism:
    f = {i: A.basis_vec(i) for i in range(A.dim)}
    return CurvedMorphism(A, A, f, {}, check=False)


def compose_curved(p: CurvedMorphism, q: CurvedMorphism,
                   check=True) -> CurvedMorphism:
    """(f, a) o (g, b) = (f o g, a + f(b))."""
    if q.target.basis != p.source.basis:
        raise ValueError("composition mismatch: target of q != source of p")
    f = {i: p.apply(col) for i, col in q.f.items()}
    a = vadd(p.a, p.apply(q.a))
    return CurvedMorphism(q.source, p.target, f, a, check=check)


def invert_morphism(m: CurvedMorphism, check=True) -> CurvedMorphism:
    """(f, a)^{-1} = (f^{-1}, -f^{-1}(a)); fails if f is not bijective."""
    S, T = m.source, m.target
    finv = _inverse_table(m.f, S, T)
    if finv is None:
        raise ValueError("not a linear isomorphism")
    out = CurvedMorphism(T, S, finv, {}, check=False)
    out.a = vneg(out.apply(m.a))
    if check:
        out.validate().raise_if_failed("inverse morphism")
    return out


def pullback_module(M: CurvedModule, f: CurvedMorphism,
                    check=True) -> CurvedModule:
    """M over f.source, acting through a strict morphism f: a.x = f(a) x."""
    A = f.source
    action = {}
    for i in range(A.dim):
        img = f.f.get(i, {})
        for j in range(M.dim):
            out = vleft(M.action, img, j)
            if out:
                action[(i, j)] = out
    return CurvedModule(A, M.space, action,
                        {j: dict(v) for j, v in M.diff.items()}, check=check)


def validate(obj) -> Report:
    """Identity report for any algebra / module / morphism / module map."""
    return obj.validate()


# ---------------------------------------------------------------------------
# constructions


def algebra_from_tables(field, components, unit_label, mult_table, diff_table,
                        curvature=None, check=True) -> CurvedAlgebra:
    """Build from label-level tables.

    components: {degree: [labels]}; mult_table: {(lblA, lblB): [(c, lbl)]};
    diff_table: {lbl: [(c, lbl)]}; curvature: [(c, lbl)].  Labels must be
    globally unique here (true for every hand-written algebra).  The unit
    is either a basis label (products with it may then be left implicit)
    or a list of (c, lbl) terms, in which case the table must be complete.
    """
    space = GradedVectorSpace(components)
    basis, index = space.flat
    where = {}
    for n, lbl in basis:
        if lbl in where:
            raise ValueError(f"label {lbl!r} reused across degrees")
        where[lbl] = n

    def to_idx(lbl):
        return index[(where[lbl], lbl)]

    def to_vec(terms):
        return vec(*((to_idx(lbl), c) for c, lbl in terms))

    mult = {}
    for (a, b), terms in mult_table.items():
        col = to_vec(terms)
        if col:
            mult[(to_idx(a), to_idx(b))] = col
    diff = {}
    for a, terms in diff_table.items():
        col = to_vec(terms)
        if col:
            diff[to_idx(a)] = col
    curv = to_vec(curvature or [])
    if isinstance(unit_label, list):
        unit = to_vec(unit_label)
    else:
        u = to_idx(unit_label)
        for i in range(len(basis)):
            mult.setdefault((u, i), {i: field.one})
            mult.setdefault((i, u), {i: field.one})
        mult = {k: v for k, v in mult.items() if v}
        unit = {u: field.one}
    return CurvedAlgebra(field, space, unit, mult, diff, curv, check=check)


def acyclic_two_dim(field) -> CurvedAlgebra:
    """The two-dimensional acyclic dg algebra: basis {1, x}, x^2 = 0, dx = 1.

    d raises degree and d(x) = 1 has degree 0, so x sits in degree -1.
    """
    return algebra_from_tables(
        field,
        {0: ["1"], -1: ["x"]},
        "1",
        {("x", "x"): []},
        {"x": [(field.one, "1")]},
    )


def product(A: CurvedAlgebra, C: CurvedAlgebra, check=True):
    """Direct product A x C with the two strict projections."""
    if A.field != C.field:
        raise ValueError("mixed ground fields")
    comp = {}
    for n in sorted(set(A.space.degrees) | set(C.space.degrees)):
        labels = [("L", l) for l in A.space.labels(n)]
        labels += [("R", l) for l in C.space.labels(n)]
        if labels:
            comp[n] = labels
    space = GradedVectorSpace(comp)
    index = space.flat[1]

    def li(i):
        n, lbl = A.basis[i]
        return index[(n, ("L", lbl))]

    def ri(i):
        n, lbl = C.basis[i]
        return index[(n, ("R", lbl))]

    def xl(vec):
        return {li(k): v for k, v in vec.items()}

    def xr(vec):
        return {ri(k): v for k, v in vec.items()}

    mult = {}
    for (i, j), v in A.mult.items():
        mult[(li(i), li(j))] = xl(v)
    for (i, j), v in C.mult.items():
        mult[(ri(i), ri(j))] = xr(v)
    diff = {}
    for i, v in A.diff.items():
        diff[li(i)] = xl(v)
    for i, v in C.diff.items():
        diff[ri(i)] = xr(v)
    unit = vadd(xl(A.unit), xr(C.unit))
    curv = vadd(xl(A.curvature), xr(C.curvature))
    P = CurvedAlgebra(A.field, space, unit, mult, diff, curv, check=check)

    fA, fC = {}, {}
    for k, (n, (tag, lbl)) in enumerate(P.basis):
        if tag == "L":
            fA[k] = {A.index[(n, lbl)]: A.field.one}
        else:
            fC[k] = {C.index[(n, lbl)]: C.field.one}
    pA = CurvedMorphism(P, A, fA, {}, check=check)
    pC = CurvedMorphism(P, C, fC, {}, check=check)
    return P, pA, pC


def opposite(A: CurvedAlgebra, check=True) -> CurvedAlgebra:
    """Opposite algebra: x*y = (-1)^{|x||y|} yx, same d, curvature -h."""
    mult = {}
    for (i, j), v in A.mult.items():
        di, dj = A.degree[i], A.degree[j]
        mult[(j, i)] = vneg(v) if (di * dj) % 2 else dict(v)
    return CurvedAlgebra(A.field, A.space, A.unit, mult,
                         {i: dict(v) for i, v in A.diff.items()},
                         vneg(A.curvature), check=check)


class TensorAlgebra(CurvedAlgebra):
    """A (x) B with factor bookkeeping: basis labels are (i, j) index pairs."""

    def __init__(self, field, space, unit, mult, diff, curvature, left, right,
                 check=True):
        super().__init__(field, space, unit, mult, diff, curvature,
                         check=check)
        self.left = left
        self.right = right
        # label of element k is the pair (i, j) of factor indices
        self.factors_of = [lbl for (_, lbl) in self.basis]
        self.pair_index = {lbl: k for k, lbl in enumerate(self.factors_of)}

    def embed(self, va: dict, vb: dict) -> dict:
        pair = self.pair_index
        return vec(*((pair[(i, j)], ci * cj)
                     for i, ci in va.items() for j, cj in vb.items()))


def tensor_algebras(A: CurvedAlgebra, B: CurvedAlgebra,
                    check=True) -> TensorAlgebra:
    """A (x) B with (a(x)b)(a'(x)b') = (-1)^{|b||a'|} aa' (x) bb'.

    Differential d(a(x)b) = da(x)b + (-1)^{|a|} a(x)db; curvature
    h_A(x)1 + 1(x)h_B.  Basis labels are global index pairs (i, j).
    """
    if A.field != B.field:
        raise ValueError("mixed ground fields")
    one = A.field.one
    comp = {}
    for i in range(A.dim):
        for j in range(B.dim):
            comp.setdefault(A.degree[i] + B.degree[j], []).append((i, j))
    space = GradedVectorSpace(comp)
    index = space.flat[1]

    def pair(i, j):
        return index[(A.degree[i] + B.degree[j], (i, j))]

    def embed(va, vb):
        return vec(*((pair(i, j), ci * cj)
                     for i, ci in va.items() for j, cj in vb.items()))

    mult = {}
    for i in range(A.dim):
        for j in range(B.dim):
            src1 = pair(i, j)
            dj = B.degree[j]
            for k in range(A.dim):
                p = A.mult.get((i, k))
                if not p:
                    continue
                sgn = -one if (dj * A.degree[k]) % 2 else one
                for l in range(B.dim):
                    q = B.mult.get((j, l))
                    if not q:
                        continue
                    col = embed(p, q if sgn == one else vneg(q))
                    if col:
                        mult[(src1, pair(k, l))] = col
    unit = embed(A.unit, B.unit)
    curv = vadd(embed(A.curvature, B.unit), embed(A.unit, B.curvature))
    diff = tensor_differential(A.diff, A.degree, B.diff, B.dim, pair)
    return TensorAlgebra(A.field, space, unit, mult, diff, curv, A, B,
                         check=check)


def bimodule_envelope(A: CurvedAlgebra, check=True) -> TensorAlgebra:
    """A (x) A^op, carrying curvature h(x)1 - 1(x)h."""
    return tensor_algebras(A, opposite(A, check=False), check=check)


def regular_bimodule(A: CurvedAlgebra, env: TensorAlgebra | None = None,
                     check=True) -> CurvedModule:
    """A as a left module over A (x) A^op: (a(x)b).x = (-1)^{|b||x|} a x b."""
    env = env if env is not None else bimodule_envelope(A, check=False)
    one = A.field.one
    action = {}
    for e in range(env.dim):
        i, j = env.factors_of[e]
        dj = A.degree[j]
        for k in range(A.dim):
            sgn = -one if (dj * A.degree[k]) % 2 else one
            out = vleft(A.mult, A.mult.get((i, k), {}), j)
            if out:
                action[(e, k)] = vneg(out) if sgn == -one else out
    diff = {i: dict(v) for i, v in A.diff.items()}
    return CurvedModule(env, A.space, action, diff, check=check)


def regular_module(A: CurvedAlgebra, check=True) -> CurvedModule:
    """A as a left module over itself; only valid when A is uncurved."""
    action = {k: dict(v) for k, v in A.mult.items()}
    diff = {i: dict(v) for i, v in A.diff.items()}
    return CurvedModule(A, A.space, action, diff, check=check)


def dual_regular_module(A: CurvedAlgebra, check=True) -> CurvedModule:
    """A* as a left A-module via right translation.

    With the plain-transpose differential (d phi)(v) = phi(dv), the unique
    sign making the action associative and Leibniz-compatible is
        a . phi = (-1)^{|a||phi| + |a|(|a|-1)/2} phi o (- . a).
    For an ordinary algebra this is (a.phi)(b) = phi(ba); it is the
    injective cogenerator in the finite-dimensional ordinary case.
    """
    from .graded import dual as dual_space
    space = dual_space(A.space)
    index = space.flat[1]

    def star(i):
        n, lbl = A.basis[i]
        return index[(-n, lbl)]

    one = A.field.one
    action = {}
    for i in range(A.dim):
        q = A.degree[i]
        half = (q * (q - 1) // 2) % 2
        for j in range(A.dim):
            # phi = e_j* has dual degree -deg(e_j)
            exp = (q * A.degree[j] + half) % 2
            sgn = -one if exp else one
            col = {}
            for k in range(A.dim):
                prod = A.mult.get((k, i))
                if prod and j in prod:
                    viadd(col, {star(k): sgn * prod[j]})
            if col:
                action[(i, star(j))] = col
    diff = {}
    for j in range(A.dim):
        col = {}
        for k in range(A.dim):
            dk = A.diff.get(k)
            if dk and j in dk:
                viadd(col, {star(k): dk[j]})
        if col:
            diff[star(j)] = col
    return CurvedModule(A, space, action, diff, check=check)


def free_module(A: CurvedAlgebra, V: GradedVectorSpace, dV: dict,
                check=True) -> CurvedModule:
    """A (x) V with action a.(b (x) v) = ab (x) v and differential
    d(b (x) v) = db (x) v + (-1)^{|b|} b (x) dV(v), for dV the table of
    V's differential over its flat index.

    Basis labels are pairs (i, (degree, label)) of an index of A and a
    flat basis element of V, in the flat order of A, then of V.  An honest
    module only when A is uncurved (free modules over a curved algebra
    would need a connection); the validator enforces this.
    """
    basis_v = V.flat[0]
    comp = {}
    for i in range(A.dim):
        for v in basis_v:
            comp.setdefault(A.degree[i] + v[0], []).append((i, v))
    space = GradedVectorSpace(comp)
    index = space.flat[1]

    def pidx(i, j):
        return index[(A.degree[i] + basis_v[j][0], (i, basis_v[j]))]

    action = {}
    for a in range(A.dim):
        for i in range(A.dim):
            prod = A.mult.get((a, i))
            if not prod:
                continue
            for j in range(len(basis_v)):
                action[(a, pidx(i, j))] = {pidx(k, j): c
                                           for k, c in prod.items()}
    return CurvedModule(A, space, action,
                        tensor_differential(A.diff, A.degree, dV,
                                            len(basis_v), pidx), check=check)


def endomorphism_algebra(space: GradedVectorSpace, diff: dict, field,
                         check=True) -> CurvedAlgebra:
    """End(M) for a graded space M with a degree-1 map d, given by its
    table `diff` over the flat index of `space`.

    Product is composition; differential is [d, -], the Hom differential
    on Hom(M, M); curvature is the element d o d (zero when d is an
    honest differential).  Basis labels are ((p, a), (q, b)) meaning the
    unit sending basis a in degree p to basis b in degree q; the element
    has degree q - p.
    """
    comp = {}
    for p in space.degrees:
        for q in space.degrees:
            comp.setdefault(q - p, []).extend(
                ((p, a), (q, b))
                for a in space.labels(p) for b in space.labels(q))
    espace = GradedVectorSpace(comp)
    mbasis, mindex = space.flat
    n = len(mbasis)
    # End basis element i is the unit pairs[i] = (a, b) sending basis a of M
    # to basis b, and slot[a][b] = i
    pairs = [(mindex[s], mindex[t]) for _, (s, t) in espace.flat[0]]
    slot = [[0] * n for _ in range(n)]
    into = [[] for _ in range(n)]  # into[b] = [(a, slot[a][b])] in End order
    for i, (a, b) in enumerate(pairs):
        slot[a][b] = i
        into[b].append((a, i))

    one = field.one
    # (b -> c) o (a -> b) = (a -> c)
    mult = {(i, j): {slot[a][c]: one}
            for i, (b, c) in enumerate(pairs) for a, j in into[b]}
    unit = {slot[a][a]: one for a in range(n)}
    image = hom_differential(diff, diff)
    hit = {a for col in diff.values() for a in col}
    ediff = {}
    for i, (a, b) in enumerate(pairs):
        if b in diff or a in hit:   # otherwise [d, a -> b] = 0
            col = vec(*((slot[s][t], c) for (s, t), c in
                        image(mbasis[b][0] - mbasis[a][0], (a, b))))
            if col:
                ediff[i] = col
    curv = {slot[a][c]: v for a in sorted(diff)
            for c, v in vapply(diff, diff[a]).items()}
    return CurvedAlgebra(field, espace, unit, mult, ediff, curv, check=check)


def module_action_map(M: CurvedModule, end_alg: CurvedAlgebra) -> dict:
    """delta: A -> End(M) of the action, as {algebra idx: End(M) vector}."""
    A = M.algebra
    out = {}
    for i in range(A.dim):
        col = {}
        for j in range(M.dim):
            img = M.action.get((i, j))
            if not img:
                continue
            p, a = M.basis[j]
            for k, c in img.items():
                q, b = M.basis[k]
                col_idx = end_alg.index[(q - p, ((p, a), (q, b)))]
                viadd(col, {col_idx: c})
        if col:
            out[i] = col
    return out


def change_basis(A: CurvedAlgebra, mats: dict, check=True) -> CurvedAlgebra:
    """Recompute structure constants in a new basis.

    mats[d] is an invertible matrix whose columns express the new degree-d
    basis in the old one; labels are kept.  Used to generate "generic"
    presentations of test algebras.
    """
    field, V = A.field, A.space
    fwd, bwd = {}, {}
    for d in V.degrees:
        m = mats.get(d, Matrix.identity(field, V.dim(d)))
        mi = inverse(m)
        if mi is None:
            raise ValueError(f"basis change at degree {d} is singular")
        fwd[d], bwd[d] = m, mi
    # new basis index -> old vector, and old basis index -> new vector
    old = GradedMap(field, V, V, 0, fwd).table()
    new = GradedMap(field, V, V, 0, bwd).table()

    mult = {}
    for i in range(A.dim):
        for j in range(A.dim):
            prod = A.mul(old[i], old[j])
            if prod:
                mult[(i, j)] = vapply(new, prod)
    diff = {}
    for i in range(A.dim):
        img = A.d(old[i])
        if img:
            diff[i] = vapply(new, img)
    return CurvedAlgebra(field, V, vapply(new, A.unit), mult, diff,
                         vapply(new, A.curvature), check=check)
