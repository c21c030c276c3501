import pytest

from bardual.algebras import (CurvedAlgebra, CurvedModule, CurvedMorphism,
                              compose_curved, identity_morphism,
                              invert_morphism, validate)
from bardual.bar import (augmentation_defects, bar_resolution_module,
                         canonical_mc, fake_augmentation, hochschild_direct,
                         hochschild_via_twist, identity_delta, reduced_bar,
                         trivial_algebra, unreduced_bar)
from bardual.catalog import BUILTIN_ALGEBRAS, builtin_algebra, builtin_module
from bardual.fields import QQ
from bardual.graded import GradedVectorSpace, cohomology, is_quasi_iso
from bardual.sampling import random_dg_algebra, random_free_module
from bardual.twisting import is_mc, twist_algebra


def test_fake_augmentation_of_ground_field():
    k = builtin_algebra("k")
    aug = fake_augmentation(k)
    assert aug.plus == [] and aug.eps(k.unit) == QQ(1)


def test_fake_augmentation_genuine_for_dual_numbers():
    aug = fake_augmentation(builtin_algebra("dual_numbers"))
    pair, linear = augmentation_defects(aug)
    assert pair == {} and linear == {}


def test_fake_augmentation_mat2_not_multiplicative():
    A = builtin_algebra("mat2")
    aug = fake_augmentation(A)
    # eps reads off the coefficient of e11 after re-basing 1 = e11 + e22
    assert aug.eps(A.basis_vec(A.idx(0, "e11"))) == QQ(1)
    pair, linear = augmentation_defects(aug)
    # eps(e12 e21) - eps(e12) eps(e21) = eps(e11) = 1
    plus_lbl = [aug.algebra.basis[i][1] for i in aug.plus]
    i12, i21 = plus_lbl.index("e12"), plus_lbl.index("e21")
    assert pair.get((i12, i21)) == QQ(1)
    assert linear == {}


def test_fake_augmentation_differentiator_for_acyclic():
    aug = fake_augmentation(builtin_algebra("acyclic2"))
    pair, linear = augmentation_defects(aug)
    assert linear and not pair


def test_unreduced_bar_of_ground_field():
    B = unreduced_bar(builtin_algebra("k"), 3)
    assert [B.space.dim(n) for n in range(4)] == [1, 1, 1, 1]
    coh = cohomology(B.as_complex(), (0, 2))
    assert coh[0].betti == 1          # the unit survives
    assert coh[1].betti == 0 and coh[2].betti == 0


def test_unreduced_bar_word_length_truncation():
    B = unreduced_bar(builtin_algebra("k"), 3)
    w1 = B.word_coeff_index((0,), 0)
    w2 = B.word_coeff_index((0, 0), 0)
    w3 = B.word_coeff_index((0, 0, 0), 0)
    assert B.mult[(w1, w2)] == {w3: QQ(1)}
    assert B.mult.get((w3, w1), {}) == {}
    assert B.word_coeff_index((), 0) in B.unit


def test_reduced_bar_uncurved_for_augmented():
    B = reduced_bar(builtin_algebra("dual_numbers"), 4)
    assert B.curvature == {} and validate(B).ok
    # with x^2 = 0 and a genuine augmentation the differential vanishes
    assert B.diff == {}


def test_reduced_bar_curved_for_mat2_and_acyclic():
    Bm = reduced_bar(builtin_algebra("mat2"), 3)
    assert Bm.curvature and validate(Bm).ok
    Ba = reduced_bar(builtin_algebra("acyclic2"), 3)
    assert Ba.curvature and validate(Ba).ok
    # differentiator: length-one word in the curvature
    assert any(Ba.arity(i) == 1 for i in Ba.curvature)


def test_canonical_mc_ground_field_is_zero():
    k = builtin_algebra("k")
    bar = reduced_bar(k, 3, coeff=k, delta=identity_delta(k))
    assert canonical_mc(bar) == {}


def test_canonical_mc_dual_numbers_single_term():
    A = builtin_algebra("dual_numbers")
    aug = fake_augmentation(A)
    bar = reduced_bar(A, 3, coeff=aug.algebra,
                      delta=identity_delta(aug.algebra), aug=aug)
    xi = canonical_mc(bar)
    assert len(xi) == 1
    assert bool(is_mc(bar, xi))


def test_canonical_mc_random_graded(field):
    for seed in (3, 11):
        A = random_dg_algebra(field, seed, max_dim=3)
        aug = fake_augmentation(A)
        bar = reduced_bar(A, 4, coeff=aug.algebra,
                          delta=identity_delta(aug.algebra), aug=aug)
        assert bool(is_mc(bar, canonical_mc(bar)))


def test_mc_for_all_builtins():
    for name in BUILTIN_ALGEBRAS:
        A = builtin_algebra(name)
        aug = fake_augmentation(A)
        bar = reduced_bar(A, 3, coeff=aug.algebra,
                          delta=identity_delta(aug.algebra), aug=aug)
        xi = canonical_mc(bar)
        assert bool(is_mc(bar, xi)), name
        assert twist_algebra(bar, xi).curvature == {}, name


def test_hochschild_of_ground_field_is_trivial():
    k = builtin_algebra("k")
    triv = trivial_algebra(QQ)
    H = hochschild_via_twist(k, 3, coeff_delta=(triv, {0: {0: QQ(1)}}))
    assert H.dim == 1 and H.diff == {} and H.curvature == {}


def test_hochschild_dual_numbers_end_k():
    A = builtin_algebra("dual_numbers")
    M = builtin_module(A, "dual_numbers", "k")
    H = hochschild_via_twist(A, 4, M=M)
    assert [H.space.dim(n) for n in range(5)] == [1, 1, 1, 1, 1]
    assert H.diff == {}


def test_hochschild_twist_valid_on_random(field):
    for seed in (5, 17):
        A = random_dg_algebra(field, seed, max_dim=3)
        H = hochschild_via_twist(A, 4)
        assert H.curvature == {}


def test_hochschild_direct_ground_field():
    k = builtin_algebra("k")
    M = builtin_module(k, "k", "k")
    E = hochschild_direct(k, M, 4)
    assert E.dim == 1


def test_hochschild_direct_dual_numbers_cohomology():
    A = builtin_algebra("dual_numbers")
    M = builtin_module(A, "dual_numbers", "k")
    E = hochschild_direct(A, M, 4)
    assert [E.space.dim(n) for n in range(5)] == [1, 1, 1, 1, 1]
    assert E.diff == {}
    coh = cohomology(E.as_complex(), (0, 3))
    assert all(coh[n].betti == 1 for n in range(4))


def test_hochschild_direct_rejects_zero_module():
    A = builtin_algebra("dual_numbers")
    Z = CurvedModule(A, GradedVectorSpace({}), {}, {})
    with pytest.raises(ValueError):
        hochschild_direct(A, Z, 3)


def test_hochschild_direct_rejects_negative_truncation():
    A = builtin_algebra("mat2")
    M = builtin_module(A, "mat2", "A")
    with pytest.raises(ValueError, match="truncation length must be >= 0"):
        reduced_bar(A, -1)
    with pytest.raises(ValueError, match="truncation length must be >= 0"):
        hochschild_direct(A, M, -1)


def test_direct_equals_twist_on_builtins():
    cases = [("dual_numbers", "k"), ("dual_numbers", "Adual"),
             ("kxk", "k"), ("upper_tri_2", "k"), ("acyclic2", "A"),
             ("acyclic2", "Adual")]
    for an, mn in cases:
        A = builtin_algebra(an)
        M = builtin_module(A, an, mn)
        E1 = hochschild_direct(A, M, 3, check=False)
        E2 = hochschild_via_twist(A, 3, M=M, check=False)
        assert E1.basis == E2.basis, (an, mn)
        assert E1.mult == E2.mult, (an, mn)
        assert E1.diff == E2.diff, (an, mn)
        assert E1.curvature == E2.curvature == {}, (an, mn)
        assert validate(E1).ok


def test_direct_equals_twist_on_random_algebra_and_module():
    for seed in (2, 9):
        A = random_dg_algebra(QQ, seed, max_dim=3)
        M = random_free_module(A, seed + 1, max_rank=1)
        if M.dim == 0:
            continue
        E1 = hochschild_direct(A, M, 3, check=False)
        E2 = hochschild_via_twist(A, 3, M=M, check=False)
        assert E1.mult == E2.mult and E1.diff == E2.diff
        assert validate(E1).ok


def test_direct_equals_twist_with_differential_in_the_complement():
    # regression: the re-based product algebra has d(c) landing in the
    # complement (nu terms), and the coefficient module is graded with a
    # nonzero differential
    from bardual.algebras import CurvedModule, acyclic_two_dim, product
    D = builtin_algebra("dual_numbers")
    C = acyclic_two_dim(QQ)
    P, _, pC = product(D, C)
    action = {}
    for i in range(P.dim):
        img = pC.apply(P.basis_vec(i))
        for j in range(C.dim):
            out = C.mul(img, C.basis_vec(j))
            if out:
                action[(i, j)] = out
    M = CurvedModule(P, C.space, action,
                     {i: dict(v) for i, v in C.diff.items()})
    E1 = hochschild_direct(P, M, 3, check=False)
    E2 = hochschild_via_twist(P, 3, M=M, check=False)
    assert E1.mult == E2.mult and E1.diff == E2.diff
    assert E1.curvature == E2.curvature == {}
    assert validate(E1).ok


def test_arity_filtration():
    for an in ("dual_numbers", "upper_tri_2", "acyclic2"):
        A = builtin_algebra(an)
        M = builtin_module(A, an, "A")
        E = hochschild_direct(A, M, 3, check=False)
        for i, col in E.diff.items():
            a = E.arity(i)
            assert all(E.arity(k) in (a, a + 1) for k in col), an
        for (i, j), col in E.mult.items():
            s = E.arity(i) + E.arity(j)
            assert all(E.arity(k) == s for k in col), an


def test_hochb_kk_is_k_and_hoch_kk_matches_hochb_kxk_k():
    k = builtin_algebra("k")
    Hbk = hochschild_via_twist(k, 4, M=builtin_module(k, "k", "k"))
    assert Hbk.dim == 1

    triv = trivial_algebra(QQ)
    Hk = hochschild_via_twist(k, 4, coeff_delta=(triv, {0: {0: QQ(1)}}),
                              reduced=False)
    kxk = builtin_algebra("kxk")
    Hb = hochschild_via_twist(kxk, 4, M=builtin_module(kxk, "kxk", "k"))
    f = {}
    for i in range(Hk.dim):
        deg, (word, ci) = Hk.basis[i]
        f[i] = {Hb.word_coeff_index(word, 0): QQ(1)}
    iso = CurvedMorphism(Hk, Hb, f, {})
    inv = invert_morphism(iso)
    rt = compose_curved(iso, inv)
    assert rt.a == {} and rt.f == identity_morphism(Hb).f
    assert Hk.mult.keys() == Hb.mult.keys()


def _embedding_into_unreduced(A, W):
    """(reduced bar, unreduced bar on the re-based basis, twist element,
    word embedding)"""
    aug = fake_augmentation(A)
    BR = reduced_bar(A, W, aug=aug)
    BA = unreduced_bar(aug.algebra, W)
    upos = [p for p, (s, _) in enumerate(BA.gens)
            if s == aug.unit_idx][0]
    xi = {BA.word_coeff_index((upos,), 0): QQ(1)}
    plus_pos = {s: p for p, (s, _) in enumerate(BA.gens)}

    def embed_word(w):
        return tuple(plus_pos[BR.gens[g][0]] for g in w)

    return BR, BA, xi, embed_word, upos


def test_unreduced_twist_extends_reduced_bar():
    # BA^xi contains the reduced bar as a curved subalgebra, and the
    # twisted differential of the unit letter x is x^2 + w.
    for name in ("dual_numbers", "kxk", "mat2"):
        A = builtin_algebra(name)
        BR, BA, xi, embed_word, upos = _embedding_into_unreduced(A, 3)
        BAx = twist_algebra(BA, xi)
        w_embed = {}
        for i, c in BR.curvature.items():
            _, (word, _) = BR.basis[i]
            w_embed[BA.word_coeff_index(embed_word(word), 0)] = c
        assert BAx.curvature == w_embed, name
        # strict inclusion of curved algebras
        f = {}
        for i in range(BR.dim):
            _, (word, _) = BR.basis[i]
            f[i] = {BA.word_coeff_index(embed_word(word), 0): QQ(1)}
        CurvedMorphism(BR, BAx, f, {})
        # d(x) = x^2 + w
        x1 = BA.word_coeff_index((upos,), 0)
        xx = BA.word_coeff_index((upos, upos), 0)
        want = dict(w_embed)
        want[xx] = want.get(xx, QQ(0)) + QQ(1)
        want = {k: v for k, v in want.items() if v}
        assert BAx.diff.get(x1, {}) == want, name


def test_free_product_presentation_round_trip():
    # build "reduced bar with one extra letter x, dx = x^2 + w" by hand and
    # check it coincides with BA^xi via the identity relabeling.
    A = builtin_algebra("mat2")
    W = 3
    BR, BA, xi, embed_word, upos = _embedding_into_unreduced(A, W)
    BAx = twist_algebra(BA, xi)
    # hand-made differential: derivation from generator values
    gen_vals = {}
    for p, (src, gdeg) in enumerate(BA.gens):
        gen_vals[p] = {}
    for p, (src, gdeg) in enumerate(BR.gens):
        tgt = embed_word((p,))[0]
        col = BR.diff.get(BR.word_coeff_index((p,), 0), {})
        gen_vals[tgt] = {BA.word_coeff_index(embed_word(BR.basis[i][1][0]),
                                             0): c
                         for i, c in col.items()}
    w_embed = {}
    for i, c in BR.curvature.items():
        _, (word, _) = BR.basis[i]
        w_embed[BA.word_coeff_index(embed_word(word), 0)] = c
    xval = dict(w_embed)
    xx = BA.word_coeff_index((upos, upos), 0)
    xval[xx] = xval.get(xx, QQ(0)) + QQ(1)
    gen_vals[upos] = {k: v for k, v in xval.items() if v}

    diff = {}
    one = QQ(1)
    for i in range(BA.dim):
        _, (word, ci) = BA.basis[i]
        col = {}
        pref = 0
        for pos, g in enumerate(word):
            sgn = -one if pref % 2 else one
            for k, c in gen_vals[g].items():
                _, (repl, _) = BA.basis[k]
                nw = word[:pos] + repl + word[pos + 1:]
                if len(nw) <= W:
                    t = BA.word_coeff_index(nw, ci)
                    v = col.get(t, QQ(0)) + sgn * c
                    if v:
                        col[t] = v
                    elif t in col:
                        del col[t]
            pref += BA.gens[g][1]
        if col:
            diff[i] = col
    byhand = CurvedAlgebra(QQ, BA.space, BA.unit, BA.mult, diff, w_embed,
                           check=True)
    assert byhand.diff == BAx.diff and byhand.curvature == BAx.curvature
    iso = CurvedMorphism(byhand, BAx, identity_morphism(BAx).f, {})
    rt = compose_curved(iso, invert_morphism(iso))
    assert rt.a == {} and rt.f == identity_morphism(BAx).f


def test_reduced_included_in_unreduced_is_quasi_iso_when_augmented():
    W = 4
    for name in ("dual_numbers", "kxk", "upper_tri_2"):
        A = builtin_algebra(name)
        BR, BA, xi, embed_word, _ = _embedding_into_unreduced(A, W)
        pair, linear = augmentation_defects(fake_augmentation(A))
        assert not pair and not linear, "test requires a genuine augmentation"
        BAx = twist_algebra(BA, xi)
        f = {}
        for i in range(BR.dim):
            _, (word, _) = BR.basis[i]
            f[i] = {BA.word_coeff_index(embed_word(word), 0): QQ(1)}
        m = CurvedMorphism(BR, BAx, f, {})
        assert is_quasi_iso(m.as_graded_map(), BR.as_complex(),
                            BAx.as_complex(), (0, W - 1)), name


def test_bar_resolution_module_ground_field():
    k = builtin_algebra("k")
    N = builtin_module(k, "k", "k")
    H, R = bar_resolution_module(k, N, 5)
    assert [R.space.dim(n) for n in range(6)] == [1] * 6
    coh = cohomology(R.as_complex(), (0, 4))
    assert all(coh[n].betti == 0 for n in range(5))


def test_bar_resolution_module_dual_numbers():
    A = builtin_algebra("dual_numbers")
    N = builtin_module(A, "dual_numbers", "k")
    H, R = bar_resolution_module(A, N, 4)
    coh = cohomology(R.as_complex(), (0, 3))
    assert all(coh[n].betti == 0 for n in range(4))


def test_bar_resolution_module_zero_module():
    A = builtin_algebra("dual_numbers")
    Z = CurvedModule(A, GradedVectorSpace({}), {}, {})
    H, R = bar_resolution_module(A, Z, 3)
    assert R.dim == 0


def test_bar_resolution_module_reduced_variant_validates():
    A = builtin_algebra("dual_numbers")
    N = builtin_module(A, "dual_numbers", "k")
    H, R = bar_resolution_module(A, N, 3, reduced=True)
    assert R.validate().ok
    # the reduced variant computes derived homs, so it is not acyclic here
    coh = cohomology(R.as_complex(), (0, 2))
    assert any(coh[n].betti for n in range(3))


def test_stability_under_truncation_growth():
    # cohomology numbers in the stable window agree between W and W+1
    for an, mn, W in [("dual_numbers", "k", 4), ("upper_tri_2", "Adual", 3),
                      ("acyclic2", "A", 3)]:
        A = builtin_algebra(an)
        M = builtin_module(A, an, mn)
        spread = (max(A.degree) - min(A.degree)
                  + max(M.degree or [0]) - min(M.degree or [0]))
        E1 = hochschild_direct(A, M, W, check=False)
        E2 = hochschild_direct(A, M, W + 1, check=False)
        hi = W - 1 - spread
        if hi < 0:
            continue
        c1 = cohomology(E1.as_complex(), (0, hi))
        c2 = cohomology(E2.as_complex(), (0, hi))
        for n in range(hi + 1):
            assert c1[n].betti == c2[n].betti, (an, mn, n)


def test_cup_product_ring_structure_on_cohomology():
    # for the dual numbers with one-dimensional coefficients the cohomology
    # of the Hochschild algebra is a polynomial ring on a degree-1 class:
    # powers of a degree-1 representative stay nonzero in cohomology
    from bardual.linalg import Matrix, solve_matrix
    A = builtin_algebra("dual_numbers")
    M = builtin_module(A, "dual_numbers", "k")
    W = 5
    E = hochschild_direct(A, M, W, check=False)
    coh = cohomology(E.as_complex(), (0, W - 1))
    assert coh[1].betti == 1
    # lift the degree-1 representative to a sparse algebra element
    idxs = E.by_degree[1]
    rep = {idxs[p]: c for p, c in coh[1].representatives[0].items()}
    power = dict(rep)
    for n in range(2, W - 1):
        power = E.mul(power, rep)
        assert power, n
        # not a coboundary: solve d(y) = power must fail
        rows = E.by_degree[n]
        cols = E.by_degree[n - 1]
        pos = {k: p for p, k in enumerate(rows)}
        m = Matrix.from_columns(E.field, len(rows), [
            {pos[k]: v for k, v in E.diff.get(i, {}).items()} for i in cols])
        target = {pos[k]: v for k, v in power.items()}
        assert solve_matrix(m, Matrix.from_columns(E.field, len(rows),
                                                   [target])) is None, n
        # and it is a cocycle
        assert E.d(power) == {}, n


def test_bar_resolution_module_rejects_a_module_over_another_algebra():
    # the kxk module k over upper_tri_2 would build an action that is not
    # unital; it is refused before anything is built
    A = builtin_algebra("upper_tri_2")
    K2 = builtin_algebra("kxk")
    N = builtin_module(K2, "kxk", "k")
    with pytest.raises(ValueError, match="module over A"):
        bar_resolution_module(A, N, 3, check=False)
