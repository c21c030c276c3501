"""The duality functors between dg modules and pseudo-compact modules.

* functor_F sends a dg A-module N to the reduced Hochschild complex of A
  with coefficients in Hom(N, M), a left module over E = the reduced
  Hochschild algebra of A with coefficients in End(M);
* functor_G goes back: untwist by the canonical element, apply
  Hom_{End M}(-, M), tensor with A and twist again;
* morita_prime_F / morita_prime_G are the elementary covariant pair
  N -> N (x) M and L -> Hom_{End M}(M, L), with explicitly constructed
  natural isomorphisms for the round trips.

A Hom over End(M) is a Hom between two modules over one algebra:
HomOverEnd(S, T) solves the intertwiner equations exactly, with M an
End(M)-module by its matrix units (end_module) and the other side acting
through its embedding of End(M) (restrict_to_end).  Its solved space is
a graded space like any other, and the maps it induces are tables over
that space's flat index.  The Hom differential is
`graded.hom_differential`, the one End(M)'s [d, -] is built from.
Two derived sign rules do real work here (both audited by the module
validators):

* the left action of b on Hom_{End M}(K, M) by pre-composition is
  b . phi = (-1)^{|b|(|phi| + 1)} phi o (b . -), which is precisely what
  makes the Hom differential a Leibniz derivation with curvature -h;
* assembling A (x) Hom_{End M}(K, M), the twist operator is
  a (x) phi -> (-1)^{|a|} sum_i t(q_i) (a c_i) (x) (g_i . phi)
  over the canonical basis of the complement, with t as in _eta_sign.
"""

from __future__ import annotations

from .algebras import (CurvedModule, ModuleMap, TensorAlgebra,
                       endomorphism_algebra, free_module, invert_morphism,
                       module_action_map, pullback_module, tensor_algebras)
from .bar import (TruncatedTensorAlgebra, WordBasis, _generator_diff_table,
                  _sxi_sign, canonical_mc, hochschild_via_twist)
from .graded import GradedVectorSpace, hom_differential, tensor_differential
from .linalg import ColumnEchelon, Matrix, eliminate
from .sparse import vec, viadd, vleft, vneg, vright
from .twisting import twist_algebra, twist_module


# ---------------------------------------------------------------------------
# Hom over an algebra


class HomOverEnd:
    """Basis of the C-linear maps S -> T between two left modules over one
    algebra C, solved degree by degree: a degree-n map phi is C-linear when
    phi(c . s) = (-1)^{n|c|} c . phi(s) for every basis element c of C.

    Coordinates of a degree-n map live on `slots[n]`, a list of
    (source basis index, target basis index) pairs; `basis[n]` holds the
    solved kernel vectors (first-pivot convention, deterministic), sparse
    over those positions.  `space` is the solved Hom space, with labels
    {n: range(len(basis[n]))}; maps between solved Hom spaces are tables
    over its flat index.
    """

    def __init__(self, S: CurvedModule, T: CurvedModule):
        if S.algebra is not T.algebra:
            raise ValueError("S and T must be modules over the same algebra")
        self.S, self.T = S, T
        self.field = S.field
        self.slots = {}
        self.basis = {}
        self._echelons = {}
        by_degree = {}
        for a in range(S.dim):
            for b in range(T.dim):
                by_degree.setdefault(T.degree[b] - S.degree[a], []).append(
                    (a, b))
        for n in sorted(by_degree):
            slots = by_degree[n]
            m = Matrix.from_columns(self.field, len(slots),
                                    self._constraint_rows(n, slots))
            _, kernel, _ = eliminate(m.transpose())
            if kernel:
                self.slots[n] = slots
                self.basis[n] = kernel
                self._echelons[n] = ColumnEchelon(self.field, kernel,
                                                  track=True)
        self.space = GradedVectorSpace(
            {n: range(len(bs)) for n, bs in self.basis.items()})
        index = self.space.flat[1]
        self._start = {n: index[(n, 0)] for n in self.basis}

    def _constraint_rows(self, n, slots):
        """phi(c . s_j) - (-1)^{n|c|} c . phi(s_j) = 0 in T for every basis
        element c of C and every s_j: one sparse row over the slots per
        (c, j, basis vector of T), read off the nonzero action entries."""
        by_source, by_target = {}, {}
        for pos, (a, b) in enumerate(slots):
            by_source.setdefault(a, []).append((b, pos))
            by_target.setdefault(b, []).append((a, pos))
        rows = {}
        for (c, j), img in self.S.action.items():
            for k, x in img.items():
                for b, pos in by_source.get(k, ()):
                    viadd(rows.setdefault((c, j, b), {}), {pos: x})
        cdeg = self.S.algebra.degree
        for (c, l), img in self.T.action.items():
            odd = (n * cdeg[c]) % 2
            for j, pos in by_target.get(l, ()):
                for b, x in img.items():
                    viadd(rows.setdefault((c, j, b), {}),
                          {pos: x if odd else -x})
        return [row for row in rows.values() if row]

    def dims(self):
        return {n: len(bs) for n, bs in self.basis.items()}

    def differential(self):
        """The Hom differential in the solved bases (see `induced`)."""
        return self.induced(1, hom_differential(self.S.diff, self.T.diff))

    def induced(self, shift, image):
        """The map of solved Hom spaces that sends the slot s of a degree-n
        map to `image(n, s)`, a list [(slot, coeff)] of degree n + shift.

        Returns the table {flat index of a basis map: flat coordinates of
        its image}, nonzero images only.  Image slots outside the solved
        slots of degree n + shift are dropped.
        """
        out = {}
        for n, basis in self.basis.items():
            slots = self.slots[n]
            m = n + shift
            tpos = {s: i for i, s in enumerate(self.slots.get(m, ()))}
            for p, vec in enumerate(basis):
                acc = {}
                for pos, c in vec.items():
                    for s, cc in image(n, slots[pos]):
                        t = tpos.get(s)
                        if t is not None:
                            viadd(acc, {t: c * cc})
                col = self.coords(m, acc)
                if col:
                    out[self._start[n] + p] = col
        return out

    def coords(self, n, vec):
        """Coordinates over the flat index of `space` of a sparse vector
        over the slots of degree n, from the echelon of degree n built
        once."""
        E = self._echelons.get(n)
        if E is None:
            if vec:
                raise ValueError("map is not C-linear / wrong degree")
            return {}
        x = E.solve(vec)
        if x is None:
            raise ValueError("map is not in the solved Hom space")
        start = self._start[n]
        return {start + i: c for i, c in x.items()}


def end_embed_bar(E0: TruncatedTensorAlgebra):
    """End(M) basis -> indices of the empty-word basis elements of a bar
    algebra with End coeffs."""
    return [E0.word_coeff_index((), t) for t in range(E0.coeff.dim)]


def end_embed_tensor(Ep: TensorAlgebra):
    """End(M) basis -> elements 1 (x) T of B (x) End(M)."""
    B, endm = Ep.left, Ep.right
    return [Ep.embed(B.unit, endm.basis_vec(t)) for t in range(endm.dim)]


def end_module(endm, space: GradedVectorSpace, diff) -> CurvedModule:
    """M as a left module over End(M) = endomorphism_algebra(space, ...):
    the matrix unit ((p, a), (q, b)) sends the basis vector (p, a) to
    (q, b).  `diff` is M's differential table."""
    index = space.flat[1]
    one = endm.field.one
    action = {(t, index[s]): {index[u]: one}
              for t, (_, (s, u)) in enumerate(endm.basis)}
    return CurvedModule(endm, space, action, diff, check=False)


def restrict_to_end(X: CurvedModule, endm, embed) -> CurvedModule:
    """X as a module over End(M), acting through `embed` (End basis index
    -> a basis index of X's algebra, from end_embed_bar, or an element of
    it, from end_embed_tensor).  A basis element's action is read by its
    index, so no coefficient is multiplied by one.

    Not validated: X's differential squares to the curvature of X's own
    algebra, which need not come from End(M)."""
    action = {}
    for t, e in enumerate(embed):
        for j in range(X.dim):
            img = (X.action.get((e, j)) if isinstance(e, int)
                   else vleft(X.action, e, j))
            if img:
                action[(t, j)] = img
    return CurvedModule(endm, X.space, action, X.diff, check=False)


# ---------------------------------------------------------------------------
# functor F


def _check_coefficients(E, Mb):
    """Refuse an E whose coefficients are not End(Mb) acted on by A
    through Mb: E was then built for another coefficient module."""
    endm = endomorphism_algebra(Mb.space, Mb.diff, Mb.field, check=False)
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
    aug = E.aug
    Nb = aug.transport_module(N, check=check)
    Mb = aug.transport_module(M, check=check)
    if given:
        _check_coefficients(E, Mb)
    Ew = E.word_basis

    hom_basis = [(j, b) for j in range(Nb.dim) for b in range(Mb.dim)]
    hdeg = {(j, b): Mb.degree[b] - Nb.degree[j] for (j, b) in hom_basis}
    words = WordBasis(Ew.gdeg, W, hom_basis, hdeg)

    # End(M) acts by post-composition, t o phi_{j->s} = sum (t.s)_u phi_{j->u}
    Me = end_module(E.coeff, Mb.space, Mb.diff)
    post = {(t, (j, s)): {(j, u): c for u, c in col.items()}
            for (t, s), col in Me.action.items() for j in range(Nb.dim)}
    action = words.concatenation(Ew, post)

    d_hom = hom_differential(Nb.diff, Mb.diff)
    hom_d = {}
    for jb in hom_basis:
        col = vec(*d_hom(hdeg[jb], jb))
        if col:
            hom_d[jb] = col
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
    aug = E.aug
    R = aug.algebra
    Mb = aug.transport_module(M, check=check)

    xi = canonical_mc(E)
    untw = twist_algebra(E, vneg(xi), check=check)
    E0 = E.retwisted(untw.diff, untw.curvature, check=False)
    K = twist_module(L, vneg(xi), algebra=E0, check=check)

    endm = E0.coeff
    H = HomOverEnd(restrict_to_end(K, endm, end_embed_bar(E0)),
                   end_module(endm, Mb.space, Mb.diff))

    # beta action of the generators g_i (x) 1, in H coords
    betas = beta_table(H, K, [
        (gd, vec(*((E0.word_coeff_index((pos,), cu), c)
                   for cu, c in endm.unit.items())))
        for pos, (_, gd) in enumerate(E0.gens)])

    # A (x) H over the re-based algebra, d(a (x) phi) = da (x) phi +
    # (-1)^{|a|} a (x) d_H phi, plus the twist operator (module docstring)
    AH = free_module(R, H.space, H.differential(), check=False)
    diff = AH.diff
    hbasis = H.space.flat[0]

    def gidx(i, h):
        return AH.index[(R.degree[i] + hbasis[h][0], (i, hbasis[h]))]

    for i in range(R.dim):
        for pos, (src, gd) in enumerate(E0.gens):
            prod = R.mult.get((i, src))
            if not prod:
                continue
            eta = _eta_sign(field, 1 - gd)
            if R.degree[i] % 2:
                eta = -eta
            for h, bcol in betas[pos].items():
                col = diff.setdefault(gidx(i, h), {})
                for h2, c in bcol.items():
                    t = eta * c
                    for k, ck in prod.items():
                        viadd(col, {gidx(k, h2): t * ck})

    diff = {g: col for g, col in diff.items() if col}
    GL = CurvedModule(R, AH.space, AH.action, diff, check=check)
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
    if Ep is None:
        endm = endomorphism_algebra(Mspace, {}, field, check=check)
        Ep = tensor_algebras(B, endm, check=check)
    endm = Ep.right
    mbasis = Mspace.flat[0]

    comp = {}
    for j in range(N.dim):
        for a, (mdeg, mlbl) in enumerate(mbasis):
            comp.setdefault(N.degree[j] + mdeg, []).append((j, a))
    space = GradedVectorSpace(comp)
    index = space.flat[1]

    def pidx(j, a):
        return index[(N.degree[j] + mbasis[a][0], (j, a))]

    # (b (x) t).(n (x) m) = (-1)^{|t||n|} b.n (x) t.m
    action = {}
    for (ti, s), tcol in end_module(endm, Mspace, {}).action.items():
        odd = endm.degree[ti] % 2
        for bi in range(B.dim):
            e = Ep.pair_index[(bi, ti)]
            for j in range(N.dim):
                img = N.action.get((bi, j))
                if img:
                    neg = odd and N.degree[j] % 2
                    action[(e, pidx(j, s))] = vec(*(
                        (pidx(j2, u), -c * cu if neg else c * cu)
                        for j2, c in img.items() for u, cu in tcol.items()))

    FpN = CurvedModule(Ep, space, action,
                       tensor_differential(N.diff, N.degree, {},
                                           len(mbasis), pidx), check=check)
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
    H = HomOverEnd(end_module(endm, Mspace, {}),
                   restrict_to_end(L, endm, end_embed_tensor(Ep)))

    # B-action: (b.phi)(m) = (b (x) 1) . phi(m)
    action = {}
    for bi in range(B.dim):
        bvec = Ep.embed(B.basis_vec(bi), endm.unit)
        images = [vleft(L.action, bvec, l) for l in range(L.dim)]
        induced = H.induced(B.degree[bi], lambda n, slot: [
            ((slot[0], l2), c) for l2, c in images[slot[1]].items()])
        action.update(((bi, h), col) for h, col in induced.items())

    GL = CurvedModule(B, H.space, action, H.differential(), check=check)
    GL.hom = H
    return GL


def prime_unit_iso(N: CurvedModule, Mspace: GradedVectorSpace, Ep, FpN,
                   GpFpN: CurvedModule, check=True) -> ModuleMap:
    """The natural isomorphism N -> G'F'(N), x -> (m -> x (x) m)."""
    one = N.field.one
    H = GpFpN.hom
    blocks = {}
    for j in range(N.dim):
        n = N.degree[j]
        vec = {pos: one for pos, (a, l) in enumerate(H.slots.get(n, []))
               if l == FpN.pair_index(j, a)}
        col = H.coords(n, vec)
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
        n, hi = GpL.basis[j]
        col = {}
        for pos, c in H.basis[n][hi].items():
            a2, l = H.slots[n][pos]
            if a2 == a:
                viadd(col, {l: c})
        if col:
            blocks[i] = col
    return ModuleMap(FpGpL, L, blocks, check=check)
