"""Word-length truncations of completed tensor algebras on dualized algebras.

Given a finite-dimensional dg algebra A and a linear functional eps with
eps(1) = 1 (a "fake augmentation", not required to be multiplicative or to
commute with d), the reduced bar construction is the completed tensor
algebra on the suspended dual of A_+ = ker(eps), truncated here at word
length W.  Its differential is dual to multiplication-and-projection; the
failure of eps to be multiplicative (resp. a chain map) shows up as a
curvature element with a quadratic part eps(ab) and a linear part eps(da).
The unreduced variant uses the full dual of A and is an honest dg algebra.

Sign conventions (fixed once here, audited by the validators downstream):

* a generator dual to a basis element of internal degree q sits in degree
  1 - q, and word degrees add;
* on generators,  d(g_i) = - sum (-1)^{q_j} mu^i_{jk} g_j g_k
                           - sum nu^i_j g_j,
  where c_j c_k = eps(c_j c_k) 1 + sum mu^i_{jk} c_i and
  d(c_j) = eps(d c_j) 1 + sum nu^i_j c_i; d extends as a derivation;
* the curvature is  h = - sum (-1)^{q_k} eps(c_j c_k) g_j g_k
                        - sum eps(d c_j) g_j;
* with a coefficient algebra C the product is
  (u (x) c)(v (x) c') = (-1)^{|c| |v|} uv (x) cc', words multiply by
  concatenation (zero past length W), and
  d(w (x) c) = d(w) (x) c + (-1)^{|w|} w (x) d(c);
* the canonical twisting element attached to a map delta: A -> C is
  xi = sum_i (-1)^{q_i (q_i + 1)/2} g_i (x) delta(c_i),
  which is Maurer-Cartan on the nose, at every truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .algebras import (CurvedAlgebra, CurvedModule, CurvedMorphism,
                       _flat_basis, change_basis, endomorphism_algebra,
                       identity_morphism, module_action_map, pullback_module)
from .graded import GradedVectorSpace
from .linalg import Matrix
from .sparse import viadd
from .twisting import twist_algebra


def trivial_algebra(field) -> CurvedAlgebra:
    """The ground field as a one-dimensional dg algebra."""
    space = GradedVectorSpace({0: ["1"]})
    one = field.one
    return CurvedAlgebra(field, space, {0: one}, {(0, 0): {0: one}}, {},
                         check=False)


@dataclass
class FakeAugmentation:
    """A splitting A = k.1 (+) A_+ defined by a linear eps with eps(1) = 1.

    The algebra is re-based (deterministically) so the unit is the basis
    vector `unit_idx`; eps reads off its coefficient and kills everything
    else.  `plus` lists the remaining basis indices, `iso` maps the
    re-based presentation back to the original one.
    """

    original: CurvedAlgebra
    algebra: CurvedAlgebra
    unit_idx: int
    plus: list
    iso: CurvedMorphism

    def eps(self, vec: dict):
        return vec.get(self.unit_idx, self.algebra.field.zero)

    def transport_module(self, M: CurvedModule, check=True) -> CurvedModule:
        """Rewrite a module over the original algebra over the re-based one."""
        if M.algebra is self.original and self.algebra is self.original:
            return M
        return pullback_module(M, self.iso, check=check)


def fake_augmentation(A: CurvedAlgebra) -> FakeAugmentation:
    """The deterministic fake augmentation of a unital dg algebra.

    If the unit is already a basis vector nothing moves; otherwise the
    first degree-0 basis vector carrying a nonzero unit coefficient is
    replaced by the unit itself.
    """
    if not A.is_uncurved():
        raise ValueError("fake augmentations are for honest dg algebras")
    unit_items = sorted(A.unit.items())
    if len(unit_items) == 1 and unit_items[0][1] == A.field.one:
        rebased = A
        unit_idx = unit_items[0][0]
        iso = identity_morphism(A)
    else:
        i0 = min(A.unit)
        d0 = A.by_degree[0]
        pos = {k: p for p, k in enumerate(d0)}
        m = Matrix.identity(A.field, len(d0))
        for c in range(len(d0)):
            m.data[pos[i0]][c] = A.field.zero
        for k, v in A.unit.items():
            m.data[pos[k]][pos[i0]] = v
        rebased = change_basis(A, {0: m}, check=True)
        unit_idx = i0
        f = {}
        for i in range(A.dim):
            if i == i0:
                f[i] = dict(A.unit)
            else:
                f[i] = A.basis_vec(i)
        iso = CurvedMorphism(rebased, A, f, {}, check=True)
    plus = [i for i in range(rebased.dim) if i != unit_idx]
    return FakeAugmentation(A, rebased, unit_idx, plus, iso)


def augmentation_defects(aug: FakeAugmentation):
    """(eps(c_j c_k), eps(d c_j)) on the complement basis.

    The first is the multiplicativity defect of eps, the second its chain
    defect; both vanish iff eps is a genuine dg augmentation.
    """
    A = aug.algebra
    pair = {}
    for pj, j in enumerate(aug.plus):
        for pk, k in enumerate(aug.plus):
            c = aug.eps(A.mult.get((j, k), {}))
            if c:
                pair[(pj, pk)] = c
    linear = {}
    for pj, j in enumerate(aug.plus):
        c = aug.eps(A.diff.get(j, {}))
        if c:
            linear[pj] = c
    return pair, linear


class TruncatedTensorAlgebra(CurvedAlgebra):
    """Word-length <= W quotient of a completed tensor algebra on duals.

    Basis labels are (word, coefficient index) with word a tuple of
    generator positions.  Carries the construction data needed by the
    duality functors.
    """

    def __init__(self, field, space, unit, mult, diff, curvature, *,
                 source, aug, coeff, delta, gens, W, kind, check=True):
        super().__init__(field, space, unit, mult, diff, curvature,
                         check=check)
        self.source = source
        self.aug = aug
        self.coeff = coeff
        self.delta = delta
        self.gens = gens          # list of (source basis index, degree)
        self.W = W
        self.kind = kind

    def arity(self, i: int) -> int:
        return len(self.basis[i][1][0])

    def word_coeff_index(self, word, ci) -> int:
        deg = sum(self.gens[g][1] for g in word) + self.coeff.degree[ci]
        return self.index[(deg, (word, ci))]

    def retwisted(self, diff, curvature, check=True):
        return TruncatedTensorAlgebra(
            self.field, self.space, self.unit, self.mult, diff, curvature,
            source=self.source, aug=self.aug, coeff=self.coeff,
            delta=self.delta, gens=self.gens, W=self.W, kind=self.kind,
            check=check)


def _sxi_sign(field, q: int):
    """(-1)^{q(q+1)/2}: the suspension sign in the canonical twist element."""
    return -field.one if (q * (q + 1) // 2) % 2 else field.one


def _build_truncated(field, source, aug, coeff, delta, gens, gen_mult,
                     gen_eps2, gen_diff1, gen_eps1, W, kind, check):
    """Shared assembly for the reduced and unreduced constructions.

    gen_mult[(j,k)] -> {i: mu}: structure constants of the projected product
    on the chosen complement, indexed by generator positions; gen_diff1[j]
    -> {i: nu} its projected differential; gen_eps2 / gen_eps1 the scalar
    defect parts feeding the curvature.
    """
    one = field.one
    G = len(gens)
    gdeg = [d for (_, d) in gens]

    words = []
    for length in range(W + 1):
        words.extend(iproduct(range(G), repeat=length))
    wdeg = {w: sum(gdeg[g] for g in w) for w in words}

    comp = {}
    for w in words:
        for ci in range(coeff.dim):
            comp.setdefault(wdeg[w] + coeff.degree[ci], []).append((w, ci))
    space = GradedVectorSpace(comp)
    basis = _flat_basis(space)
    index = {bl: i for i, bl in enumerate(basis)}

    def bidx(w, ci):
        return index[(wdeg[w] + coeff.degree[ci], (w, ci))]

    mult = {}
    by_len = {}
    for w in words:
        by_len.setdefault(len(w), []).append(w)
    for lu in range(W + 1):
        for lv in range(W + 1 - lu):
            for u in by_len.get(lu, ()):
                for v in by_len.get(lv, ()):
                    uv = u + v
                    vdeg = wdeg[v]
                    for (c, c2), prod in coeff.mult.items():
                        sgn = (-one if (coeff.degree[c] * vdeg) % 2
                               else one)
                        col = {}
                        for k, cc in prod.items():
                            col[bidx(uv, k)] = sgn * cc
                        if col:
                            mult[(bidx(u, c), bidx(v, c2))] = col

    # generator differential as replacement lists: pos g -> [(tuple, coeff)]
    gen_d = {g: [] for g in range(G)}
    for (j, k), out in gen_mult.items():
        s = -one if gdeg_internal(gens, j) % 2 else one
        for i, mu in out.items():
            gen_d[i].append(((j, k), -s * mu))
    for j, out in gen_diff1.items():
        for i, nu in out.items():
            gen_d[i].append(((j,), -nu))

    diff = {}
    for w in words:
        base_terms = []
        pref = 0
        for pos, g in enumerate(w):
            psgn = -one if pref % 2 else one
            for repl, cc in gen_d[g]:
                nw = w[:pos] + repl + w[pos + 1:]
                if len(nw) <= W:
                    base_terms.append((nw, psgn * cc))
            pref += gdeg[g]
        wsgn = -one if wdeg[w] % 2 else one
        for ci in range(coeff.dim):
            col = {}
            for nw, cc in base_terms:
                viadd(col, {bidx(nw, ci): cc})
            dc = coeff.diff.get(ci)
            if dc:
                for k, cc in dc.items():
                    viadd(col, {bidx(w, k): wsgn * cc})
            if col:
                diff[bidx(w, ci)] = col

    unit = {}
    for k, v in coeff.unit.items():
        unit[bidx((), k)] = v

    curv = {}
    for (j, k), c in gen_eps2.items():
        s = -one if gdeg_internal(gens, k) % 2 else one
        if W >= 2:
            for cu, vu in coeff.unit.items():
                viadd(curv, {bidx((j, k), cu): -s * c * vu})
    for j, c in gen_eps1.items():
        if W >= 1:
            for cu, vu in coeff.unit.items():
                viadd(curv, {bidx((j,), cu): -c * vu})
    for k, v in coeff.curvature.items():
        viadd(curv, {bidx((), k): v})

    return TruncatedTensorAlgebra(
        field, space, unit, mult, diff, curv, source=source, aug=aug,
        coeff=coeff, delta=delta, gens=gens, W=W, kind=kind, check=check)


def gdeg_internal(gens, pos):
    """Internal degree of the source basis element behind generator pos."""
    return 1 - gens[pos][1]


def reduced_bar(A: CurvedAlgebra, W: int, coeff: CurvedAlgebra | None = None,
                delta: dict | None = None, aug: FakeAugmentation | None = None,
                check=True) -> TruncatedTensorAlgebra:
    """Truncated reduced bar construction, optionally tensored with `coeff`.

    `delta` (source basis index -> coeff vector) is the algebra map used by
    the canonical twisting element; for coeff = the algebra itself pass the
    identity (see hochschild_via_twist).  Returns a curved algebra whose
    curvature encodes the defects of the fake augmentation.
    """
    if W < 0:
        raise ValueError("truncation length must be >= 0")
    aug = aug or fake_augmentation(A)
    R = aug.algebra
    field = R.field
    coeff = coeff or trivial_algebra(field)
    gens = [(i, 1 - R.degree[i]) for i in aug.plus]
    gpos = {i: p for p, (i, _) in enumerate(gens)}

    gen_mult = {}
    for pj, j in enumerate(aug.plus):
        for pk, k in enumerate(aug.plus):
            prod = R.mult.get((j, k), {})
            out = {gpos[i]: c for i, c in prod.items() if i != aug.unit_idx}
            if out:
                gen_mult[(pj, pk)] = out
    gen_diff1 = {}
    for pj, j in enumerate(aug.plus):
        col = R.diff.get(j, {})
        out = {gpos[i]: c for i, c in col.items() if i != aug.unit_idx}
        if out:
            gen_diff1[pj] = out
    gen_eps2, gen_eps1 = augmentation_defects(aug)

    return _build_truncated(field, R, aug, coeff, delta, gens, gen_mult,
                            gen_eps2, gen_diff1, gen_eps1, W, "reduced",
                            check)


def unreduced_bar(A: CurvedAlgebra, W: int,
                  coeff: CurvedAlgebra | None = None,
                  delta: dict | None = None,
                  check=True) -> TruncatedTensorAlgebra:
    """Truncated unreduced bar construction on the full dual of A.

    Uncurved (the full dual of multiplication is coassociative); acyclic
    in the stable window.
    """
    if W < 0:
        raise ValueError("truncation length must be >= 0")
    if not A.is_uncurved():
        raise ValueError("bar constructions are for honest dg algebras")
    field = A.field
    coeff = coeff or trivial_algebra(field)
    gens = [(i, 1 - A.degree[i]) for i in range(A.dim)]

    gen_mult = {}
    for j in range(A.dim):
        for k in range(A.dim):
            prod = A.mult.get((j, k), {})
            if prod:
                gen_mult[(j, k)] = dict(prod)
    gen_diff1 = {j: dict(col) for j, col in A.diff.items()}

    return _build_truncated(field, A, None, coeff, delta, gens, gen_mult,
                            {}, gen_diff1, {}, W, "unreduced", check)


def canonical_mc(bar: TruncatedTensorAlgebra) -> dict:
    """xi = sum_i (-1)^{q_i(q_i+1)/2} g_i (x) delta(c_i) in bar's degree 1.

    Requires the bar construction to carry a coefficient map delta.
    """
    if bar.delta is None:
        raise ValueError("no coefficient map attached to this bar algebra")
    field = bar.field
    xi = {}
    for pos, (src, gdeg) in enumerate(bar.gens):
        img = bar.delta.get(src, {})
        if not img:
            continue
        s = _sxi_sign(field, 1 - gdeg)
        if bar.W >= 1:
            for k, c in img.items():
                viadd(xi, {bar.word_coeff_index((pos,), k): s * c})
    return xi


def identity_delta(A: CurvedAlgebra) -> dict:
    return {i: A.basis_vec(i) for i in range(A.dim)}


def hochschild_via_twist(A: CurvedAlgebra, W: int, M: CurvedModule = None,
                         coeff_delta=None, reduced=True, check=True):
    """The Hochschild dg algebra of A as a twist of a bar construction.

    Coefficients are End(M) when a module M is given, a user-supplied
    (C, delta) pair, or A itself.  The returned algebra is uncurved: the
    canonical element is Maurer-Cartan and the twist kills the curvature.
    """
    aug = fake_augmentation(A) if reduced else None
    base = aug.algebra if reduced else A
    if M is not None:
        Mb = aug.transport_module(M, check=check) if reduced else M
        if Mb.dim == 0:
            raise ValueError("coefficient module must be non-zero")
        endm = endomorphism_algebra(Mb.space, Mb.diff_map(), A.field,
                                    check=check)
        coeff, delta = endm, module_action_map(Mb, endm)
    elif coeff_delta is not None:
        coeff, delta = coeff_delta
    else:
        coeff, delta = base, identity_delta(base)
    if reduced:
        bar = reduced_bar(A, W, coeff=coeff, delta=delta, aug=aug,
                          check=check)
    else:
        bar = unreduced_bar(A, W, coeff=coeff, delta=delta, check=check)
    xi = canonical_mc(bar)
    twisted = twist_algebra(bar, xi, check=check)
    out = bar.retwisted(twisted.diff, twisted.curvature, check=False)
    out.twist_element = xi
    return out


def hochschild_direct(A: CurvedAlgebra, M: CurvedModule, W: int,
                      check=True) -> TruncatedTensorAlgebra:
    """Reduced Hochschild cochains of A with coefficients in End(M),
    truncated at word length W, built directly (no twisting machinery).

    The differential is the sum of (1) internal duals on each letter,
    (2) the End(M) differential, (3) contraction duals splitting a letter,
    and the two end terms given by the commutator with the action map.
    Cross-checked against hochschild_via_twist term by term in the tests.
    """
    if W < 0:
        raise ValueError("truncation length must be >= 0")
    if M.dim == 0:
        raise ValueError("coefficient module must be non-zero")
    field = A.field
    one = field.one
    aug = fake_augmentation(A)
    R = aug.algebra
    Mb = aug.transport_module(M, check=check)
    endm = endomorphism_algebra(Mb.space, Mb.diff_map(), field, check=check)
    delta = module_action_map(Mb, endm)

    gens = [(i, 1 - R.degree[i]) for i in aug.plus]
    gpos = {i: p for p, (i, _) in enumerate(gens)}
    G = len(gens)
    gdeg = [d for (_, d) in gens]
    qdeg = [1 - d for d in gdeg]

    words = []
    for length in range(W + 1):
        words.extend(iproduct(range(G), repeat=length))
    wdeg = {w: sum(gdeg[g] for g in w) for w in words}

    comp = {}
    for w in words:
        for ci in range(endm.dim):
            comp.setdefault(wdeg[w] + endm.degree[ci], []).append((w, ci))
    space = GradedVectorSpace(comp)
    basis = _flat_basis(space)
    index = {bl: i for i, bl in enumerate(basis)}

    def bidx(w, ci):
        return index[(wdeg[w] + endm.degree[ci], (w, ci))]

    # cup product: (u (x) S)(v (x) T) = (-1)^{|S||v|} uv (x) S o T
    mult = {}
    for u in words:
        for v in words:
            if len(u) + len(v) > W:
                continue
            uv = u + v
            for (c, c2), prod in endm.mult.items():
                sgn = -one if (endm.degree[c] * wdeg[v]) % 2 else one
                col = {bidx(uv, k): sgn * cc for k, cc in prod.items()}
                mult[(bidx(u, c), bidx(v, c2))] = col

    # positional differential; both tables are keyed by the letter being
    # rewritten, i.e. they encode the duals of d and of multiplication
    nu = {}      # letter i -> {letter j: coeff of c_i in d(c_j)}
    for pj, j in enumerate(aug.plus):
        col = R.diff.get(j, {})
        for i, c in col.items():
            if i != aug.unit_idx:
                nu.setdefault(gpos[i], {})[pj] = c
    contract = {}  # letter -> [(pair, coeff)] from the projected product
    for pj in range(G):
        for pk in range(G):
            prod = R.mult.get((aug.plus[pj], aug.plus[pk]), {})
            for i, c in prod.items():
                if i != aug.unit_idx:
                    contract.setdefault(gpos[i], []).append(((pj, pk), c))

    sxi = [_sxi_sign(field, q) for q in qdeg]
    diff = {}
    for w in words:
        letter_terms = []
        pref = 0
        for pos, g in enumerate(w):
            psgn = -one if pref % 2 else one
            for i2, c in nu.get(g, {}).items():
                nw = w[:pos] + (i2,) + w[pos + 1:]
                letter_terms.append((nw, -psgn * c))
            for (pair, c) in contract.get(g, []):
                nw = w[:pos] + pair + w[pos + 1:]
                if len(nw) <= W:
                    # d2 carries -(-1)^{q of first letter}
                    s2 = (-one if (1 - gdeg[pair[0]]) % 2 else one)
                    letter_terms.append((nw, -psgn * s2 * c))
            pref += gdeg[g]
        wsgn = -one if wdeg[w] % 2 else one
        for ci in range(endm.dim):
            col = {}
            for nw, cc in letter_terms:
                viadd(col, {bidx(nw, ci): cc})
            dc = endm.diff.get(ci)
            if dc:
                for k, cc in dc.items():
                    viadd(col, {bidx(w, k): wsgn * cc})
            # end terms: [xi, -] for xi = sum s(q) g (x) delta(c)
            tdeg = endm.degree[ci]
            xdeg = wdeg[w] + tdeg
            for pos in range(G):
                img = delta.get(aug.plus[pos], {})
                if not img or len(w) + 1 > W:
                    continue
                s = sxi[pos]
                # left: (-1)^{q |w|} g.w (x) delta(c) o T
                lsgn = s * (-one if (qdeg[pos] * wdeg[w]) % 2 else one)
                for k, c in img.items():
                    prod = endm.mult.get((k, ci))
                    if prod:
                        for k2, c2 in prod.items():
                            viadd(col, {bidx((pos,) + w, k2):
                                        lsgn * c * c2})
                # right: -(-1)^{|x|} (-1)^{|T|(1-q)} w.g (x) T o delta(c)
                r = s
                if xdeg % 2:
                    r = -r
                if (tdeg * (1 - qdeg[pos])) % 2:
                    r = -r
                for k, c in img.items():
                    prod = endm.mult.get((ci, k))
                    if prod:
                        for k2, c2 in prod.items():
                            viadd(col, {bidx(w + (pos,), k2): -r * c * c2})
            if col:
                diff[bidx(w, ci)] = col

    unit = {bidx((), k): v for k, v in endm.unit.items()}
    out = TruncatedTensorAlgebra(
        field, space, unit, mult, diff, {}, source=R, aug=aug, coeff=endm,
        delta=delta, gens=gens, W=W, kind="reduced", check=check)
    return out


def bar_resolution_module(A: CurvedAlgebra, N: CurvedModule, W: int,
                          reduced=False, check=True):
    """The twisted module (bar(A) (x) N)^[xi] over the twisted bar of A.

    In the unreduced form this is the linear dual of the (augmented)
    standard bar resolution, hence acyclic in the stable window.  The
    reduced form is the dual reduced analogue; it computes derived homs
    into the coefficient field instead of vanishing.  Returns the pair
    (Hochschild algebra of A, twisted module).
    """
    field = A.field
    H = hochschild_via_twist(A, W, reduced=reduced, check=check)
    one = field.one
    Nb = H.aug.transport_module(N, check=check) if reduced else N
    srcs = [s for (s, _) in H.gens]

    # module basis: (word, module index); same word enumeration as H
    G = len(H.gens)
    gdeg = [d for (_, d) in H.gens]
    words = []
    for length in range(W + 1):
        words.extend(iproduct(range(G), repeat=length))
    wdeg = {w: sum(gdeg[g] for g in w) for w in words}
    comp = {}
    for w in words:
        for mi in range(Nb.dim):
            comp.setdefault(wdeg[w] + Nb.degree[mi], []).append((w, mi))
    space = GradedVectorSpace(comp)
    basis = _flat_basis(space)
    index = {bl: i for i, bl in enumerate(basis)}

    def midx(w, mi):
        return index[(wdeg[w] + Nb.degree[mi], (w, mi))]

    # action of (u (x) a) on (v (x) x): (-1)^{|a||v|} uv (x) a.x
    action = {}
    for i in range(H.dim):
        _, (u, ci) = H.basis[i]
        cdeg = H.coeff.degree[ci]
        for v in words:
            if len(u) + len(v) > W:
                continue
            sgn = -one if (cdeg * wdeg[v]) % 2 else one
            for mi in range(Nb.dim):
                out = Nb.action.get((ci, mi))
                if not out:
                    continue
                col = {midx(u + v, k): sgn * c for k, c in out.items()}
                action[(i, midx(v, mi))] = col
    # differential: bar part + internal + xi action
    gen_d = _generator_diff_table(H)
    sxi = [_sxi_sign(field, 1 - d) for d in gdeg]
    diff = {}
    for w in words:
        letter_terms = []
        pref = 0
        for pos, g in enumerate(w):
            psgn = -one if pref % 2 else one
            for repl, cc in gen_d[g]:
                nw = w[:pos] + repl + w[pos + 1:]
                if len(nw) <= W:
                    letter_terms.append((nw, psgn * cc))
            pref += gdeg[g]
        wsgn = -one if wdeg[w] % 2 else one
        for mi in range(Nb.dim):
            col = {}
            for nw, cc in letter_terms:
                viadd(col, {midx(nw, mi): cc})
            dm = Nb.diff.get(mi)
            if dm:
                for k, cc in dm.items():
                    viadd(col, {midx(w, k): wsgn * cc})
            if len(w) + 1 <= W:
                for pos in range(G):
                    src = srcs[pos]
                    out = Nb.action.get((src, mi))
                    if not out:
                        continue
                    lsgn = sxi[pos]
                    if ((1 - gdeg[pos]) * wdeg[w]) % 2:
                        lsgn = -lsgn
                    for k, c in out.items():
                        viadd(col, {midx((pos,) + w, k): lsgn * c})
            if col:
                diff[midx(w, mi)] = col
    return H, CurvedModule(H, space, action, diff, check=check)


def _generator_diff_table(bar: TruncatedTensorAlgebra):
    """Recover the generator-level differential replacements of a bar
    algebra (before any twist) from its construction data."""
    one = bar.field.one
    A = bar.source
    if bar.kind == "reduced":
        plus = bar.aug.plus
        unit_idx = bar.aug.unit_idx
    else:
        plus = [s for (s, _) in bar.gens]
        unit_idx = None
    gpos = {s: p for p, s in enumerate(plus)}
    gen_d = {g: [] for g in range(len(bar.gens))}
    for pj, j in enumerate(plus):
        for pk, k in enumerate(plus):
            prod = A.mult.get((j, k), {})
            s = -one if A.degree[j] % 2 else one
            for i, mu in prod.items():
                if unit_idx is not None and i == unit_idx:
                    continue
                gen_d[gpos[i]].append(((pj, pk), -s * mu))
    for pj, j in enumerate(plus):
        col = A.diff.get(j, {})
        for i, nuc in col.items():
            if unit_idx is not None and i == unit_idx:
                continue
            gen_d[gpos[i]].append(((pj,), -nuc))
    return gen_d
