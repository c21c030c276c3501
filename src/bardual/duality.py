"""The duality functors between dg modules and pseudo-compact modules.

* functor_F sends a dg A-module N to the reduced Hochschild complex of A
  with coefficients in Hom(N, M), a left module over E = the reduced
  Hochschild algebra of A with coefficients in End(M);
* functor_G goes back: untwist by the canonical element, apply
  Hom_{End M}(-, M), tensor with A and twist again;
* morita_prime_F / morita_prime_G are the elementary covariant pair
  N -> N (x) M and L -> Hom_{End M}(M, L), with explicitly constructed
  natural isomorphisms for the round trips.

Hom spaces over End(M) are computed by solving the intertwiner equations
exactly.  Two derived sign rules do real work here (both audited by the
module validators):

* the left action of b on Hom_{End M}(K, M) by pre-composition is
  b . phi = (-1)^{|b|(|phi| + 1)} phi o (b . -), which is precisely what
  makes the Hom differential a Leibniz derivation with curvature -h;
* assembling A (x) Hom_{End M}(K, M), the twist operator is
  a (x) phi -> (-1)^{|a|} sum_i t(q_i) (a c_i) (x) (g_i . phi)
  over the canonical basis of the complement, with t as in _eta_sign.
"""

from __future__ import annotations

from .algebras import (CurvedModule, ModuleMap, TensorAlgebra,
                       endomorphism_algebra, invert_morphism,
                       module_action_map, pullback_module, tensor_algebras)
from .bar import (TruncatedTensorAlgebra, WordBasis, _generator_diff_table,
                  _sxi_sign, canonical_mc, hochschild_via_twist)
from .graded import GradedVectorSpace
from .linalg import ColumnEchelon, Matrix, eliminate
from .sparse import viadd, vleft, vneg, vright
from .twisting import twist_algebra, twist_module


# ---------------------------------------------------------------------------
# Hom over End(M)


class HomOverEnd:
    """Basis of End(M)-linear maps, solved degree by degree.

    mode "from": maps K -> M over End(M) acting on K through `end_embed`
    (End basis index -> element of K's algebra) and tautologically on M.
    mode "to": maps M -> L with L a module over an algebra containing
    End(M) through `end_embed`.

    Coordinates of a degree-n map live on `slots[n]`, a list of
    (source basis index, target basis index) pairs; `basis[n]` holds the
    solved kernel vectors (first-pivot convention, deterministic), sparse
    over those positions.
    """

    def __init__(self, module: CurvedModule, M: CurvedModule, end_embed,
                 end_labels, mode: str):
        self.module = module
        self.M = M
        self.field = module.field
        self.mode = mode
        self.end_embed = end_embed
        self.end_labels = end_labels
        self.slots = {}
        self.basis = {}
        self._echelons = {}
        K = module
        src, tgt = (K, M) if mode == "from" else (M, K)
        degrees = sorted({tgt.degree[b] - src.degree[a]
                          for a in range(src.dim) for b in range(tgt.dim)})
        for n in degrees:
            slots = [(a, b) for a in range(src.dim) for b in range(tgt.dim)
                     if tgt.degree[b] - src.degree[a] == n]
            if not slots:
                continue
            spos = {s: i for i, s in enumerate(slots)}
            rows = []
            for t in range(len(end_embed)):
                rows.extend(self._constraint_rows(n, spos, t))
            m = Matrix.from_columns(self.field, len(slots), rows).transpose()
            _, kernel, _ = eliminate(m)
            if kernel:
                self.slots[n] = slots
                self.basis[n] = kernel
                self._echelons[n] = ColumnEchelon(self.field, kernel,
                                                  track=True)

    def _unit(self, t):
        """End basis t as a matrix unit (M source index, M target index)."""
        (p, a), (q, b) = self.end_labels[t]
        return self.M.index[(p, a)], self.M.index[(q, b)], q - p

    def _constraint_rows(self, n, spos, t):
        """The constraints from End basis t, as sparse rows over slots."""
        field = self.field
        msrc, mtgt, tdeg = self._unit(t)
        sgn = -field.one if (n * tdeg) % 2 else field.one
        embed = self.end_embed[t]
        rows = []
        if self.mode == "from":
            K, M = self.module, self.M
            for j in range(K.dim):
                # phi(T x_j) - (-1)^{n|T|} T(phi(x_j)) = 0 in M
                img = vleft(K.action, embed, j)
                per_target = {}
                for k, c in img.items():
                    for b0 in range(M.dim):
                        if (k, b0) in spos:
                            viadd(per_target.setdefault(b0, {}),
                                  {spos[(k, b0)]: c})
                if (j, msrc) in spos:
                    viadd(per_target.setdefault(mtgt, {}),
                          {spos[(j, msrc)]: -sgn})
                rows.extend(row for row in per_target.values() if row)
        else:
            M, L = self.M, self.module
            for a in range(M.dim):
                # phi(T m_a) - (-1)^{n|T|} (embed T).phi(m_a) = 0 in L
                per_target = {}
                if a == msrc:
                    for l0 in range(L.dim):
                        if (mtgt, l0) in spos:
                            viadd(per_target.setdefault(l0, {}),
                                  {spos[(mtgt, l0)]: field.one})
                for l in range(L.dim):
                    if (a, l) not in spos:
                        continue
                    img = vleft(L.action, embed, l)
                    for l2, c in img.items():
                        viadd(per_target.setdefault(l2, {}),
                              {spos[(a, l)]: -sgn * c})
                rows.extend(row for row in per_target.values() if row)
        return rows

    def space(self) -> GradedVectorSpace:
        return GradedVectorSpace(
            {n: tuple(("h", n, i) for i in range(len(bs)))
             for n, bs in self.basis.items()})

    def dims(self):
        return {n: len(bs) for n, bs in self.basis.items()}

    def induced(self, shift, image):
        """The map of solved Hom spaces that sends the slot s of a degree-n
        map to `image(n, s)`, a list [(slot, coeff)] of degree n + shift.

        Returns {n: [coordinates, in the degree n + shift basis, of the
        image of each degree-n basis map]}.  Image slots outside the
        solved slots of degree n + shift are dropped.
        """
        out = {}
        for n, basis in self.basis.items():
            slots = self.slots[n]
            m = n + shift
            tpos = {s: i for i, s in enumerate(self.slots.get(m, ()))}
            cols = []
            for vec in basis:
                acc = {}
                for pos, c in vec.items():
                    for s, cc in image(n, slots[pos]):
                        t = tpos.get(s)
                        if t is not None:
                            viadd(acc, {t: c * cc})
                cols.append(self.coords(m, acc))
            out[n] = cols
        return out

    def coords(self, n, vec):
        """Sparse coordinates in the solved basis of a sparse slot vector,
        from the echelon of degree n built once."""
        E = self._echelons.get(n)
        if E is None:
            if vec:
                raise ValueError("map is not End-linear / wrong degree")
            return {}
        x = E.solve(vec)
        if x is None:
            raise ValueError("map is not in the solved Hom space")
        return x


def end_embed_bar(E0: TruncatedTensorAlgebra):
    """End(M) basis -> empty-word elements of a bar algebra with End coeffs."""
    return [{E0.word_coeff_index((), t): E0.field.one}
            for t in range(E0.coeff.dim)]


def end_embed_tensor(Ep: TensorAlgebra):
    """End(M) basis -> elements 1 (x) T of B (x) End(M)."""
    B, endm = Ep.left, Ep.right
    return [Ep.embed(B.unit, endm.basis_vec(t)) for t in range(endm.dim)]


# ---------------------------------------------------------------------------
# functor F


def _check_coefficients(E, Mb):
    """Refuse an E whose coefficients are not End(Mb) acted on by A
    through Mb: E was then built for another coefficient module."""
    endm = endomorphism_algebra(Mb.space, Mb.diff_map(), Mb.field,
                                check=False)
    C = E.coeff
    if C.basis != endm.basis:
        raise ValueError("E was built for another coefficient module: the "
                         "labels of E.coeff are not those of End(M)")
    if ((C.unit, C.mult, C.diff, C.curvature)
            != (endm.unit, endm.mult, endm.diff, endm.curvature)
            or E.delta != module_action_map(Mb, endm)):
        raise ValueError("E was built for another coefficient module: "
                         "E.coeff or its action map is not End(M)")


def functor_F(N: CurvedModule, M: CurvedModule, W: int, E=None, check=True):
    """F(N): reduced Hochschild cochains of A with coefficients Hom(N, M),
    a left module over E (the Hochschild algebra with End(M) coefficients).

    The words carry Hom(N, M) coefficients; E acts by concatenation and
    post-composition, the differential is the bar rewrite plus the Hom
    differential plus the right end term through the action on N, and the
    left end term comes from twisting by the canonical element of E.
    Returns (E, F(N)); F(N) carries the transported modules as .Nb / .Mb.
    """
    A = N.algebra
    if M.algebra is not A:
        raise ValueError("N and M must be modules over the same algebra")
    given = E is not None
    if not given:
        E = hochschild_via_twist(A, W, M=M, check=check)
    elif E.aug is None or E.aug.original is not A:
        raise ValueError("E must be a Hochschild algebra of the algebra of N")
    elif E.W != W:
        raise ValueError(f"E is truncated at W={E.W}, not at W={W}")
    field = A.field
    one = field.one
    aug = E.aug
    Nb = aug.transport_module(N, check=check)
    Mb = aug.transport_module(M, check=check)
    if given:
        _check_coefficients(E, Mb)
    Ew = E.word_basis

    hom_basis = [(j, b) for j in range(Nb.dim) for b in range(Mb.dim)]
    hdeg = {(j, b): Mb.degree[b] - Nb.degree[j] for (j, b) in hom_basis}
    words = WordBasis(Ew.gdeg, W, hom_basis, hdeg)

    # the End(M) matrix unit t = (s -> u) acts by post-composition,
    # t o phi_{j->s} = phi_{j->u}
    ends = [(Mb.index[s], Mb.index[u]) for (_, (s, u)) in E.coeff.basis]
    post = {(t, (j, s)): {(j, u): one}
            for t, (s, u) in enumerate(ends) for j in range(Nb.dim)}
    action = words.concatenation(Ew, post)

    # internal Hom differential: d_M o phi - (-1)^{|phi|} phi o d_N
    hom_d = {}
    for j, b in hom_basis:
        col = {(j, b2): c for b2, c in Mb.diff.get(b, {}).items()}
        for j0 in range(Nb.dim):
            c = Nb.diff.get(j0, {}).get(j)
            if c:
                viadd(col, {(j0, b): c if hdeg[(j, b)] % 2 else -c})
        if col:
            hom_d[(j, b)] = col
    diff = words.derivation(_generator_diff_table(E.source, aug), hom_d)

    # right end term through the action on N:
    # -(-1)^{|x|} (w (x) phi) . xi_A, phi o (c . -) on the last letter
    sxi = [_sxi_sign(field, 1 - d) for d in Ew.gdeg]
    for w in words.words:
        if len(w) == W:
            break
        for j, b in hom_basis:
            col = {}
            for pos, (src, gd) in enumerate(E.gens):
                r = sxi[pos]
                if (words.wdeg[w] + hdeg[(j, b)] * (1 + gd)) % 2:
                    r = -r
                for i2 in range(Nb.dim):
                    c = Nb.action.get((src, i2), {}).get(j)
                    if c:
                        viadd(col, {words.idx(w + (pos,), (i2, b)): -r * c})
            if col:
                viadd(diff.setdefault(words.idx(w, (j, b)), {}), col)

    # twist_module drops the columns that cancelled above
    F0 = CurvedModule(E, words.space, action, diff, check=False)
    FN = twist_module(F0, canonical_mc(E), algebra=E, check=check)
    FN.Nb, FN.Mb = Nb, Mb
    FN.hom_basis = hom_basis
    FN.word_basis = words
    return E, FN


def functor_F_on_map(f: ModuleMap, FN_src, FN_tgt, check=True) -> ModuleMap:
    """F is contravariant on morphisms: a map f: N -> N' of A-modules
    induces F(f): F(N') -> F(N) by pre-composition on the coefficient.

    FN_src must be F(N') and FN_tgt F(N), both over the same E.
    """
    words = FN_tgt.word_basis
    blocks = {}
    for i in range(FN_src.dim):
        _, (w, (j2, b)) = FN_src.basis[i]
        col = {}
        # phi_{j2 -> b} o f = sum_j f[j][j2] phi_{j -> b}
        for j, fcol in f.blocks.items():
            c = fcol.get(j2)
            if c:
                viadd(col, {words.idx(w, (j, b)): c})
        if col:
            blocks[i] = col
    return ModuleMap(FN_src, FN_tgt, blocks, check=check)


def right_hochschild_action(FN: CurvedModule, HA: TruncatedTensorAlgebra):
    """Right action of the Hochschild algebra of A (coefficients A) on F(N):
    (v (x) phi).(w (x) a) = (-1)^{|phi| wdeg(w)} vw (x) phi o (a . -).

    Returns the action table {(HA index, F index): F vector}.
    """
    one = FN.field.one
    Nb = FN.Nb
    words = FN.word_basis
    action = {}
    for i in range(HA.dim):
        _, (w, a) = HA.basis[i]
        wd = HA.word_basis.wdeg[w]
        for k in range(FN.dim):
            _, (v, (j, b)) = FN.basis[k]
            if len(v) + len(w) > words.W:
                continue
            sgn = -one if (words.cdeg[(j, b)] * wd) % 2 else one
            col = {}
            for j0 in range(Nb.dim):
                img = Nb.action.get((a, j0))
                if img and j in img:
                    viadd(col, {words.idx(v + w, (j0, b)): sgn * img[j]})
            if col:
                action[(i, k)] = col
    return action


def right_action_report(FN, HA, raction):
    """Check the right-module axioms, right Leibniz, and commutation with
    the left E-action; returns a list of failure descriptions."""
    failures = []
    one = FN.field.one

    # x.h is raction[(h, x)]: vleft over the HA side, vright over the F side
    def ract(f_idx, h_idx):
        return raction.get((h_idx, f_idx), {})

    for h1 in range(HA.dim):
        for h2 in range(HA.dim):
            prod = HA.mult.get((h1, h2), {})
            for x in range(FN.dim):
                lhs = vleft(raction, prod, x)
                rhs = vright(raction, h2, ract(x, h1))
                if lhs != rhs:
                    failures.append(("right-associativity", (h1, h2, x)))
    for h in range(HA.dim):
        dh = HA.diff.get(h, {})
        for x in range(FN.dim):
            lhs = FN.d(ract(x, h))
            rhs = vright(raction, h, FN.diff.get(x, {}))
            sgn = -one if FN.degree[x] % 2 else one
            viadd(rhs, vleft(raction, dh, x), sgn)
            if lhs != rhs:
                failures.append(("right-leibniz", (h, x)))
    for e in range(FN.algebra.dim):
        for h in range(HA.dim):
            for x in range(FN.dim):
                lhs = vright(raction, h, FN.action.get((e, x), {}))
                rhs = vright(FN.action, e, ract(x, h))
                if lhs != rhs:
                    failures.append(("left-right-commute", (e, h, x)))
    return failures


# ---------------------------------------------------------------------------
# functor G


def _eta_sign(field, q: int):
    """Per-degree sign (-1)^{q(q-1)/2} of the reverse twist element.

    Forced by the defect identity [d_H, beta_b] = -beta_{db} of the
    pre-composition action together with the curvature and structure
    constants of the bar construction; audited by the module validator.
    """
    return -field.one if (q * (q - 1) // 2) % 2 else field.one


def beta_table(H: HomOverEnd, K: CurvedModule, elems):
    """Left action b . phi = (-1)^{|b|(|phi|+1)} phi o (b . -) on a solved
    Hom space, for each (degree, element) in elems; coordinates in H."""
    one = H.field.one
    out = []
    for bdeg, bvec in elems:
        # phi o l_b at x_k2 is phi(b . x_k2): hits[k] = [(k2, c)] for the
        # terms c x_k of b . x_k2
        hits = {}
        for k2 in range(K.dim):
            for k, c in vleft(K.action, bvec, k2).items():
                hits.setdefault(k, []).append((k2, c))

        def image(n, slot):
            k, b = slot
            sgn = -one if (bdeg * (n + 1)) % 2 else one
            return [((k2, b), sgn * c) for k2, c in hits.get(k, ())]
        out.append(H.induced(bdeg, image))
    return out


def functor_G(L: CurvedModule, M: CurvedModule, check=True) -> CurvedModule:
    """G(L) for a left module L over E = the Hochschild algebra of A with
    End(M) coefficients: untwist by the canonical element, take
    Hom_{End M}(-, M), tensor with A, twist back.  Returns a dg A-module.
    """
    E = L.algebra
    if not isinstance(E, TruncatedTensorAlgebra) or E.delta is None:
        raise ValueError("L must be a module over a Hochschild algebra "
                         "built by hochschild_via_twist")
    field = E.field
    one = field.one
    aug = E.aug
    R = aug.algebra
    Mb = aug.transport_module(M, check=check)

    xi = canonical_mc(E)
    untw = twist_algebra(E, vneg(xi), check=check)
    E0 = E.retwisted(untw.diff, untw.curvature, check=False)
    K = twist_module(L, vneg(xi), algebra=E0, check=check)

    H = HomOverEnd(K, Mb, end_embed_bar(E0),
                   [lbl for (_, lbl) in E0.coeff.basis], "from")
    hdims = H.dims()

    # beta action of the generators and the Hom differential, in H coords
    gen_elems = []
    for pos, (src, gd) in enumerate(E0.gens):
        vec = {}
        for cu, vu in E0.coeff.unit.items():
            viadd(vec, {E0.word_coeff_index((pos,), cu): vu})
        gen_elems.append((gd, vec))
    betas = beta_table(H, K, gen_elems)

    # d_H phi = d_M o phi - (-1)^{|phi|} phi o d_K; hits[k] = [(k2, c)]
    # for the terms c x_k of d x_k2
    hits = {}
    for k2 in range(K.dim):
        for k, c in K.diff.get(k2, {}).items():
            hits.setdefault(k, []).append((k2, c))

    def d_image(n, slot):
        k, b = slot
        sgn = one if n % 2 else -one
        return ([((k, b2), c) for b2, c in Mb.diff.get(b, {}).items()]
                + [((k2, b), sgn * c) for k2, c in hits.get(k, ())])
    dH = H.induced(1, d_image)

    # assemble A (x) H over the re-based algebra, then pull back
    comp = {}
    for i in range(R.dim):
        for n, cnt in sorted(hdims.items()):
            for hi in range(cnt):
                comp.setdefault(R.degree[i] + n, []).append((i, (n, hi)))
    space = GradedVectorSpace(comp)
    index = space.flat[1]

    def gidx(i, n, hi):
        return index[(R.degree[i] + n, (i, (n, hi)))]

    action = {}
    for b in range(R.dim):
        for i in range(R.dim):
            prod = R.mult.get((b, i))
            if not prod:
                continue
            for n, cnt in hdims.items():
                for hi in range(cnt):
                    col = {gidx(k, n, hi): c for k, c in prod.items()}
                    action[(b, gidx(i, n, hi))] = col

    srcs = [s for (s, _) in E0.gens]
    etas = [_eta_sign(field, 1 - gd) for (_, gd) in E0.gens]
    diff = {}
    for i in range(R.dim):
        ideg = R.degree[i]
        isgn = -one if ideg % 2 else one
        for n, cnt in hdims.items():
            for hi in range(cnt):
                col = {}
                da = R.diff.get(i)
                if da:
                    for k, c in da.items():
                        viadd(col, {gidx(k, n, hi): c})
                for hj, c in dH[n][hi].items():
                    viadd(col, {gidx(i, n + 1, hj): isgn * c})
                for pos in range(len(srcs)):
                    prod = R.mult.get((i, srcs[pos]))
                    if not prod:
                        continue
                    cols = betas[pos].get(n)
                    if cols is None:
                        continue
                    m = n + E0.gens[pos][1]
                    for hj, c in cols[hi].items():
                        t = etas[pos] * c
                        if ideg % 2:
                            t = -t
                        for k, ck in prod.items():
                            viadd(col, {gidx(k, m, hj): t * ck})
                if col:
                    diff[gidx(i, n, hi)] = col

    GL = CurvedModule(R, space, action, diff, check=check)
    if R is not aug.original:
        GL = pullback_module(GL, invert_morphism(aug.iso, check=False),
                             check=check)
    return GL


# ---------------------------------------------------------------------------
# the covariant elementary pair for a plain coefficient space M


def morita_prime_F(N: CurvedModule, Mspace: GradedVectorSpace,
                   Ep=None, check=True):
    """F'(N) = N (x) M over E' = B (x) End(M), for a plain graded space M."""
    B = N.algebra
    field = B.field
    one = field.one
    if Ep is None:
        endm = endomorphism_algebra(Mspace, None, field, check=check)
        Ep = tensor_algebras(B, endm, check=check)
    endm = Ep.right
    end_labels = [lbl for (_, lbl) in endm.basis]
    mbasis, mindex = Mspace.flat

    comp = {}
    for j in range(N.dim):
        for a, (mdeg, mlbl) in enumerate(mbasis):
            comp.setdefault(N.degree[j] + mdeg, []).append((j, a))
    space = GradedVectorSpace(comp)
    index = space.flat[1]

    def pidx(j, a):
        return index[(N.degree[j] + mbasis[a][0], (j, a))]

    action = {}
    for e in range(Ep.dim):
        bi, ti = Ep.factors_of[e]
        (p, al), (q, bl) = end_labels[ti]
        src, tgt = mindex[(p, al)], mindex[(q, bl)]
        tdeg = q - p
        for j in range(N.dim):
            img = N.action.get((bi, j))
            if not img:
                continue
            sgn = -one if (tdeg * N.degree[j]) % 2 else one
            col = {}
            for j2, c in img.items():
                viadd(col, {pidx(j2, tgt): sgn * c})
            action[(e, pidx(j, src))] = col

    diff = {}
    for j in range(N.dim):
        dn = N.diff.get(j)
        if not dn:
            continue
        for a in range(len(mbasis)):
            col = {pidx(j2, a): c for j2, c in dn.items()}
            diff[pidx(j, a)] = col

    FpN = CurvedModule(Ep, space, action, diff, check=check)
    FpN.pair_index = pidx
    FpN.mspace = Mspace
    return Ep, FpN


def morita_prime_G(L: CurvedModule, Mspace: GradedVectorSpace,
                   check=True) -> CurvedModule:
    """G'(L) = Hom_{End M}(M, L) as a module over B, for L over B (x) End M."""
    Ep = L.algebra
    if not isinstance(Ep, TensorAlgebra):
        raise ValueError("L must be a module over B (x) End(M)")
    B, endm = Ep.left, Ep.right
    Mmod = _tautological_module(Mspace, B.field)
    H = HomOverEnd(L, Mmod, end_embed_tensor(Ep),
                   [lbl for (_, lbl) in endm.basis], "to")
    hspace = H.space()
    fpos = hspace.flat[1]

    def hidx(n, i):
        return fpos[(n, ("h", n, i))]

    def columns(shift, images):
        """(flat index, column) of each nonzero induced map, for the map
        of L that sends x_l to images[l], applied to phi(m_a)."""
        induced = H.induced(shift, lambda n, slot: [
            ((slot[0], l2), c) for l2, c in images[slot[1]].items()])
        for n, cols in induced.items():
            for i, x in enumerate(cols):
                if x:
                    yield hidx(n, i), {hidx(n + shift, hj): c
                                       for hj, c in x.items()}

    # B-action: (b.phi)(m) = (b (x) 1) . phi(m)
    action = {}
    for bi in range(B.dim):
        bvec = Ep.embed(B.basis_vec(bi), endm.unit)
        images = [vleft(L.action, bvec, l) for l in range(L.dim)]
        action.update(((bi, k), col)
                      for k, col in columns(B.degree[bi], images))
    diff = dict(columns(1, [L.diff.get(l, {}) for l in range(L.dim)]))

    GL = CurvedModule(B, hspace, action, diff, check=check)
    GL.hom = H
    return GL


def _tautological_module(Mspace: GradedVectorSpace, field) -> CurvedModule:
    """M as a module over a trivial algebra placeholder (only the graded
    structure matters to HomOverEnd)."""
    from .bar import trivial_algebra
    triv = trivial_algebra(field)
    action = {(0, j): {j: field.one} for j in range(Mspace.total_dim)}
    return CurvedModule(triv, Mspace, action, {}, check=False)


def prime_unit_iso(N: CurvedModule, Mspace: GradedVectorSpace, Ep, FpN,
                   GpFpN: CurvedModule, check=True) -> ModuleMap:
    """The natural isomorphism N -> G'F'(N), x -> (m -> x (x) m)."""
    one = N.field.one
    H = GpFpN.hom
    blocks = {}
    fpos = GpFpN.space.flat[1]
    for j in range(N.dim):
        n = N.degree[j]
        vec = {pos: one for pos, (a, l) in enumerate(H.slots.get(n, []))
               if l == FpN.pair_index(j, a)}
        col = {fpos[(n, ("h", n, hi))]: c
               for hi, c in H.coords(n, vec).items()}
        if col:
            blocks[j] = col
    return ModuleMap(N, GpFpN, blocks, check=check)


def prime_counit_iso(L: CurvedModule, Mspace: GradedVectorSpace, GpL,
                     FpGpL: CurvedModule, check=True) -> ModuleMap:
    """The natural isomorphism F'G'(L) -> L, phi (x) m -> phi(m)."""
    H = GpL.hom
    blocks = {}
    for i in range(FpGpL.dim):
        _, (j, a) = FpGpL.basis[i]
        n, lbl = GpL.basis[j]
        col = {}
        for pos, c in H.basis[n][lbl[2]].items():
            a2, l = H.slots[n][pos]
            if a2 == a:
                viadd(col, {l: c})
        if col:
            blocks[i] = col
    return ModuleMap(FpGpL, L, blocks, check=check)
