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

Every construction here, and the functor F in `duality`, lives on one
`WordBasis`: words in the generators up to length W tensored with a
coefficient basis (C, a module N, or Hom(N, M)), with one index, one
concatenation product (u (x) a)(v (x) x) = (-1)^{|a||v|} uv (x) a.x and
one letter rewrite that applies the generator differential of
`_generator_diff_table` with the Koszul sign of the prefix.  Module
differentials get their left end term by twisting with the canonical
element.
`hochschild_direct` takes only the basis: its cup product, its dual
tables of d and of the product, and its end terms stay its own code,
because the `direct-equals-twist` checks certify them against the
twisted bar, and a shared kernel would certify itself.  Its cochain
complex, `hochschild_cochains`, is all that `koszul-check` builds, and
only through word length W-1, the top degree its H^0..H^{W-2} read; the
eager cup product is added on top only by `hochschild_direct`.  The
cochains compute each coefficient of their differential once, in both
signs, before the word loop, which only looks up indices and adds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .algebras import (CurvedAlgebra, CurvedModule, CurvedMorphism,
                       change_basis, endomorphism_algebra, identity_morphism,
                       module_action_map, pullback_module)
from .graded import Complex, GradedMap, GradedVectorSpace
from .linalg import Matrix
from .sparse import viadd, vleft, vright
from .twisting import twist_algebra, twist_module


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
        cols = [{c: A.field.one} for c in range(len(d0))]
        cols[pos[i0]] = {pos[k]: v for k, v in A.unit.items()}
        m = Matrix.from_columns(A.field, len(d0), cols)
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


class WordBasis:
    """Words of length <= W in generators, tensored with coefficient labels.

    `gdeg[g]` is the degree of generator g, `clabels` the coefficient
    labels in order and `cdeg[c]` the degree of label c.  Basis labels are
    (word, coefficient label), with words ordered by length and then
    lexicographically; `space`, `basis` and `index` are shared with every
    algebra or module built on this basis.
    """

    def __init__(self, gdeg, W, clabels, cdeg):
        self.gdeg = list(gdeg)
        self.W = W
        self.clabels = list(clabels)
        self.cdeg = cdeg
        self.words = [w for n in range(W + 1)
                      for w in iproduct(range(len(self.gdeg)), repeat=n)]
        self.wdeg = {w: sum(self.gdeg[g] for g in w) for w in self.words}
        comp = {}
        for w in self.words:
            for c in self.clabels:
                comp.setdefault(self.wdeg[w] + cdeg[c], []).append((w, c))
        self.space = GradedVectorSpace(comp)
        self.basis, self.index = self.space.flat

    def idx(self, word, c) -> int:
        return self.index[(self.wdeg[word] + self.cdeg[c], (word, c))]

    def concatenation(self, left: WordBasis, table: dict) -> dict:
        """{(left index, own index): vector} of
        (u (x) a)(v (x) x) = (-1)^{|a||v|} uv (x) a.x, with a.x read from
        `table` {(a, x): {y: coeff}} and words longer than W dropped.

        `left` is the word basis of the acting algebra (self for a product).
        """
        out = {}
        for u in left.words:
            for v in self.words:
                if len(u) + len(v) > self.W:
                    break
                uv = u + v
                vdeg = self.wdeg[v]
                for (a, x), prod in table.items():
                    if prod:
                        odd = (left.cdeg[a] * vdeg) % 2
                        out[(left.idx(u, a), self.idx(v, x))] = {
                            self.idx(uv, y): -c if odd else c
                            for y, c in prod.items()}
        return out

    def rewrite(self, word, table: dict) -> list:
        """[(word', coeff)]: every letter g of `word` replaced by each
        (replacement, coeff) in table[g], with the sign (-1)^{degree of the
        letters before it}; words longer than W are dropped."""
        out = []
        pref = 0
        for pos, g in enumerate(word):
            for repl, c in table[g]:
                nw = word[:pos] + repl + word[pos + 1:]
                if len(nw) <= self.W:
                    out.append((nw, -c if pref % 2 else c))
            pref += self.gdeg[g]
        return out

    def derivation(self, gen_d: dict, cdiff: dict) -> dict:
        """{index: column} of d(w (x) c) = d(w) (x) c + (-1)^{|w|} w (x) dc,
        with d(w) the letter rewrite through gen_d and dc read from cdiff
        {c: {c': coeff}}."""
        diff = {}
        for w in self.words:
            terms = self.rewrite(w, gen_d)
            odd = self.wdeg[w] % 2
            for c in self.clabels:
                col = {}
                for nw, cc in terms:
                    viadd(col, {self.idx(nw, c): cc})
                for k, cc in cdiff.get(c, {}).items():
                    viadd(col, {self.idx(w, k): -cc if odd else cc})
                if col:
                    diff[self.idx(w, c)] = col
        return diff


class TruncatedTensorAlgebra(CurvedAlgebra):
    """Word-length <= W quotient of a completed tensor algebra on duals.

    Basis labels are (word, coefficient index) with word a tuple of
    generator positions, laid out by `word_basis`.  Carries the
    construction data needed by the duality functors; `aug` is None for
    the unreduced construction.
    """

    def __init__(self, field, word_basis, unit, mult, diff, curvature, *,
                 source, aug, coeff, delta, gens, check=True):
        super().__init__(field, word_basis.space, unit, mult, diff,
                         curvature, check=check)
        self.word_basis = word_basis
        self.source = source
        self.aug = aug
        self.coeff = coeff
        self.delta = delta
        self.gens = gens          # list of (source basis index, degree)
        self.W = word_basis.W

    def arity(self, i: int) -> int:
        return len(self.basis[i][1][0])

    def word_coeff_index(self, word, ci) -> int:
        return self.word_basis.idx(word, ci)

    def retwisted(self, diff, curvature, check=True):
        return TruncatedTensorAlgebra(
            self.field, self.word_basis, self.unit, self.mult, diff,
            curvature, source=self.source, aug=self.aug, coeff=self.coeff,
            delta=self.delta, gens=self.gens, check=check)


def _sxi_sign(field, q: int):
    """(-1)^{q(q+1)/2}: the suspension sign in the canonical twist element."""
    return -field.one if (q * (q + 1) // 2) % 2 else field.one


def _generator_diff_table(A: CurvedAlgebra, aug: FakeAugmentation | None):
    """The bar differential on generators as letter rewrites, generator
    position -> [(replacement word, coeff)]:
    d(g_i) = - sum (-1)^{q_j} mu^i_{jk} g_j g_k - sum nu^i_j g_j.

    The generators are dual to the complement A_+ of `aug` (whose algebra
    is A), or to all of A when aug is None (the unreduced construction).
    """
    one = A.field.one
    plus = aug.plus if aug else range(A.dim)
    gpos = {s: p for p, s in enumerate(plus)}
    gen_d = {g: [] for g in range(len(gpos))}
    for pj, j in enumerate(plus):
        s = -one if A.degree[j] % 2 else one
        for pk, k in enumerate(plus):
            for i, mu in A.mult.get((j, k), {}).items():
                if i in gpos:
                    gen_d[gpos[i]].append(((pj, pk), -s * mu))
    for pj, j in enumerate(plus):
        for i, nu in A.diff.get(j, {}).items():
            if i in gpos:
                gen_d[gpos[i]].append(((pj,), -nu))
    return gen_d


def _build_truncated(source, aug, coeff, delta, W, check):
    """Shared assembly for the reduced (aug given, source = aug.algebra)
    and unreduced (aug None) constructions."""
    field = source.field
    coeff = coeff or trivial_algebra(field)
    plus = aug.plus if aug else range(source.dim)
    gens = [(i, 1 - source.degree[i]) for i in plus]
    words = WordBasis([d for (_, d) in gens], W, range(coeff.dim),
                      coeff.degree)
    mult = words.concatenation(words, coeff.mult)
    diff = words.derivation(_generator_diff_table(source, aug), coeff.diff)
    unit = {words.idx((), k): v for k, v in coeff.unit.items()}

    curv = {}
    if aug:
        # h = - sum (-1)^{q_k} eps(c_j c_k) g_j g_k - sum eps(d c_j) g_j
        eps2, eps1 = augmentation_defects(aug)
        h = [((j, k), c if source.degree[plus[k]] % 2 else -c)
             for (j, k), c in eps2.items()]
        h += [((j,), -c) for j, c in eps1.items()]
        for word, c in h:
            if len(word) <= W:
                for cu, vu in coeff.unit.items():
                    viadd(curv, {words.idx(word, cu): c * vu})
    for k, v in coeff.curvature.items():
        viadd(curv, {words.idx((), k): v})

    return TruncatedTensorAlgebra(
        field, words, unit, mult, diff, curv, source=source, aug=aug,
        coeff=coeff, delta=delta, gens=gens, check=check)


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
    return _build_truncated(aug.algebra, aug, coeff, delta, W, check)


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
    return _build_truncated(A, None, coeff, delta, W, check)


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
        endm = endomorphism_algebra(Mb.space, Mb.diff, A.field,
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


class HochschildCochains:
    """`hochschild_direct` without its product: End(M) is `coeff`, delta
    the action map A -> End(M), gens (source basis index, degree).  A
    plain class, since a dataclass costs about 0.5 ms at every import."""

    def __init__(self, aug, coeff, delta, gens, word_basis, diff):
        self.aug, self.coeff, self.delta = aug, coeff, delta
        self.gens, self.word_basis, self.diff = gens, word_basis, diff

    def as_complex(self) -> Complex:
        field, space = self.coeff.field, self.word_basis.space
        return Complex(field, space,
                       GradedMap.from_table(field, space, self.diff, 1))


def hochschild_cochains(A: CurvedAlgebra, M: CurvedModule, W: int,
                        check=True) -> HochschildCochains:
    """Reduced Hochschild cochains of A with coefficients in End(M),
    truncated at word length W, built directly (no twisting machinery).

    The differential is the sum of (1) internal duals on each letter,
    (2) the End(M) differential, (3) contraction duals splitting a letter,
    and the two end terms given by the commutator with the action map.
    Every coefficient of these terms is computed once, in both signs,
    before the word loop, which only picks a sign by parity, looks up
    indices and adds.
    """
    if W < 0:
        raise ValueError("truncation length must be >= 0")
    if M.dim == 0:
        raise ValueError("coefficient module must be non-zero")
    field = A.field
    aug = fake_augmentation(A)
    R = aug.algebra
    Mb = aug.transport_module(M, check=check)
    endm = endomorphism_algebra(Mb.space, Mb.diff, field, check=check)
    delta = module_action_map(Mb, endm)

    gens = [(i, 1 - R.degree[i]) for i in aug.plus]
    gpos = {i: p for p, (i, _) in enumerate(gens)}
    G = len(gens)
    gdeg = [d for (_, d) in gens]
    qdeg = [1 - d for d in gdeg]
    wb = WordBasis(gdeg, W, range(endm.dim), endm.degree)
    labels = range(endm.dim)

    # -d on a letter: the duals of d (nu) and of the projected product
    # (contraction, carrying -(-1)^{q of the first letter}), as
    # letter -> [(replacement, (after an even prefix, after an odd one))]
    rewrite = [[] for _ in range(G)]
    for pj, j in enumerate(aug.plus):
        for i, c in R.diff.get(j, {}).items():
            if i != aug.unit_idx:
                rewrite[gpos[i]].append(((pj,), (-c, c)))
    for pj, j in enumerate(aug.plus):
        for pk, k in enumerate(aug.plus):
            for i, c in R.mult.get((j, k), {}).items():
                if i != aug.unit_idx:
                    c = c if qdeg[pj] % 2 else -c
                    rewrite[gpos[i]].append(((pj, pk), (c, -c)))
    # the End(M) differential, signed (-1)^{|w|}: by the parity of |w|
    dend = ([], [])
    for t in labels:
        for k, c in endm.diff.get(t, {}).items():
            dend[0].append((t, k, c))
            dend[1].append((t, k, -c))
    # end terms [xi, -] for xi = sum s(q) g (x) delta(c), on a letter:
    # left (-1)^{q |w|} s.(delta(c) o T), by the parity of q|w|, and right
    # -(-1)^{|w| + |T| + |T|(1-q)} s.(T o delta(c)), by the parity of |w|
    ends = []
    for pos, (i, _) in enumerate(gens):
        img = delta.get(i)
        if img:
            s, q = _sxi_sign(field, qdeg[pos]), qdeg[pos]
            left, right = ([], []), ([], [])
            for t in labels:
                td = endm.degree[t]
                for k, c in vleft(endm.mult, img, t).items():
                    left[0].append((t, k, s * c))
                    left[1].append((t, k, -s * c))
                for k, c in vright(endm.mult, t, img).items():
                    c = s * c if (td + td * (1 - q)) % 2 else -s * c
                    right[0].append((t, k, c))
                    right[1].append((t, k, -c))
            ends.append((pos, q, left, right))

    rows = {}       # word -> [its index with each End(M) label]

    def at(word):
        r = rows.get(word)
        if r is None:
            r = rows[word] = [wb.idx(word, t) for t in labels]
        return r

    diff = {}
    for w in wb.words:
        wd, room = wb.wdeg[w], W + 1 - len(w)
        terms, pref = [], 0       # (label, row, coefficient)
        for pos, g in enumerate(w):
            for repl, cs in rewrite[g]:
                if len(repl) <= room:
                    r, c = at(w[:pos] + repl + w[pos + 1:]), cs[pref % 2]
                    terms += [(t, r[t], c) for t in labels]
            pref += gdeg[g]
        here = at(w)
        terms += [(t, here[k], c) for t, k, c in dend[wd % 2]]
        if room > 1:
            for pos, q, left, right in ends:
                lrow, rrow = at((pos,) + w), at(w + (pos,))
                terms += [(t, lrow[k], c) for t, k, c in left[q * wd % 2]]
                terms += [(t, rrow[k], c) for t, k, c in right[wd % 2]]
        cols = [{} for _ in labels]
        for t, i, c in terms:
            col = cols[t]
            v = col.get(i)
            if v is None:
                col[i] = c
            else:
                v = v + c
                if v:
                    col[i] = v
                else:
                    del col[i]
        for t, col in enumerate(cols):
            if col:
                diff[here[t]] = col

    return HochschildCochains(aug, endm, delta, gens, wb, diff)


def hochschild_direct(A: CurvedAlgebra, M: CurvedModule, W: int,
                      check=True) -> TruncatedTensorAlgebra:
    """`hochschild_cochains` plus the cup product, which is built eagerly:
    `direct-equals-twist.mult` certifies it against hochschild_via_twist,
    so every caller of the whole algebra reads it at once, and a lazy
    table would only move its cost into whichever stage reads it first."""
    H = hochschild_cochains(A, M, W, check=check)
    field, endm, wb = A.field, H.coeff, H.word_basis
    words, wdeg, idx, one = wb.words, wb.wdeg, wb.idx, field.one

    # cup product: (u (x) S)(v (x) T) = (-1)^{|S||v|} uv (x) S o T
    mult = {}
    for u in words:
        for v in words:
            if len(u) + len(v) > W:
                break       # the basis orders words by length
            uv = u + v
            for (c, c2), prod in endm.mult.items():
                sgn = -one if (endm.degree[c] * wdeg[v]) % 2 else one
                col = {idx(uv, k): sgn * cc for k, cc in prod.items()}
                mult[(idx(u, c), idx(v, c2))] = col

    unit = {idx((), k): v for k, v in endm.unit.items()}
    return TruncatedTensorAlgebra(
        field, wb, unit, mult, H.diff, {}, source=H.aug.algebra, aug=H.aug,
        coeff=endm, delta=H.delta, gens=H.gens, check=check)


def bar_resolution_module(A: CurvedAlgebra, N: CurvedModule, W: int,
                          reduced=False, check=True):
    """The twisted module (bar(A) (x) N)^[xi] over the twisted bar of A.

    In the unreduced form this is the linear dual of the (augmented)
    standard bar resolution, hence acyclic in the stable window.  The
    reduced form is the dual reduced analogue; it computes derived homs
    into the coefficient field instead of vanishing.  Returns the pair
    (Hochschild algebra of A, twisted module).
    """
    if N.algebra is not A:
        raise ValueError("N must be a module over A")
    H = hochschild_via_twist(A, W, reduced=reduced, check=check)
    Nb = H.aug.transport_module(N, check=check) if reduced else N
    words = WordBasis(H.word_basis.gdeg, W, range(Nb.dim), Nb.degree)
    action = words.concatenation(H.word_basis, Nb.action)
    diff = words.derivation(_generator_diff_table(H.source, H.aug), Nb.diff)
    # bar(A) (x) N before the twist: not a module over anything, it only
    # hands its action and differential to twist_module
    untwisted = CurvedModule(H, words.space, action, diff, check=False)
    return H, twist_module(untwisted, H.twist_element, algebra=H,
                           check=check)
