import pytest

from bardual.algebras import algebra_from_tables, product
from bardual.catalog import builtin_algebra
from bardual.fields import GF, QQ
from bardual.graded import cohomology, dual_complex
from bardual.morita import (OrdinaryAlgebra, _module_on_subspace,
                            _nilpotency_index, classical_F, count_simples,
                            decompose_regular_semisimple, ext_oracle,
                            free_resolution, gamma, global_dimension_probe,
                            hom_modules, injective_cogenerator, morita_unit,
                            radical, regular_ordinary, simple_modules)
from bardual.sampling import random_ordinary_module
from bardual.sparse import viadd


def ord_(name, field=QQ):
    return OrdinaryAlgebra(builtin_algebra(name, field))


def kx5():
    t = {}
    for a in range(1, 5):
        for b in range(1, 5):
            t[(f"x{a}", f"x{b}")] = \
                [(QQ(1), f"x{a+b}")] if a + b <= 4 else []
    return OrdinaryAlgebra(algebra_from_tables(
        QQ, {0: ["1"] + [f"x{i}" for i in range(1, 5)]}, "1", t, {}))


def quaternions():
    m = {("i", "i"): [(QQ(-1), "1")], ("j", "j"): [(QQ(-1), "1")],
         ("k", "k"): [(QQ(-1), "1")],
         ("i", "j"): [(QQ(1), "k")], ("j", "i"): [(QQ(-1), "k")],
         ("j", "k"): [(QQ(1), "i")], ("k", "j"): [(QQ(-1), "i")],
         ("k", "i"): [(QQ(1), "j")], ("i", "k"): [(QQ(-1), "j")]}
    return OrdinaryAlgebra(
        algebra_from_tables(QQ, {0: ["1", "i", "j", "k"]}, "1", m, {}))


# ---------------------------------------------------------------------------
# radical


def test_radical_semisimple_is_zero():
    assert radical(ord_("kxk")) == []
    assert radical(ord_("mat2")) == []


def test_radical_dual_numbers():
    A = ord_("dual_numbers")
    r = radical(A)
    assert len(r) == 1
    x = A.algebra.idx(0, "x")
    assert r[0][x] and A.algebra.idx(0, "1") not in r[0]


def test_radical_upper_triangular():
    A = ord_("upper_tri_2")
    r = radical(A)
    assert len(r) == 1
    e12 = A.algebra.idx(0, "e12")
    assert r[0][e12]


def test_radical_is_nilpotent():
    for name in ("dual_numbers", "upper_tri_2"):
        A = ord_(name)
        r = radical(A)
        k = _nilpotency_index(A, r)
        assert k is not None and k <= A.n + 1


def test_radical_char_guard():
    A = ord_("upper_tri_2", GF(3))
    with pytest.raises(ValueError):
        radical(A)


# ---------------------------------------------------------------------------
# simple modules


def test_count_simples_catalog():
    assert count_simples(ord_("k")) == 1
    assert count_simples(ord_("upper_tri_2")) == 2
    k = builtin_algebra("k")
    P3, _, _ = product(product(k, k)[0], k)
    assert count_simples(OrdinaryAlgebra(P3)) == 3
    assert count_simples(kx5()) == 1
    assert count_simples(ord_("mat2")) == 1


def test_count_simples_over_prime_field():
    assert count_simples(ord_("mat2", GF(11))) == 1
    assert count_simples(ord_("upper_tri_2", GF(7))) == 2


def test_count_simples_additive_over_products():
    U = builtin_algebra("upper_tri_2")
    K2 = builtin_algebra("kxk")
    P, _, _ = product(U, K2)
    assert count_simples(OrdinaryAlgebra(P)) == \
        count_simples(ord_("upper_tri_2")) + count_simples(ord_("kxk"))


def test_non_split_block_refused():
    with pytest.raises(ValueError, match="extend the field"):
        count_simples(quaternions())


def test_cross_check_enumeration():
    for name in ("k", "kxk", "dual_numbers", "upper_tri_2", "mat2"):
        A = ord_(name)
        assert decompose_regular_semisimple(A) == count_simples(A), name


def test_simple_modules_are_simple_sized():
    A = ord_("mat2")
    mods = simple_modules(A)
    assert len(mods) == 1 and mods[0].dim == 2
    A = ord_("upper_tri_2")
    assert sorted(m.dim for m in simple_modules(A)) == [1, 1]


def test_module_on_subspace_refuses_a_non_invariant_subspace():
    # in k[x]/x^2 acting on itself, x.1 = x: span{x} is a submodule and
    # span{1} is not
    A = ord_("dual_numbers")
    mats = regular_ordinary(A).mats
    one, x = A.algebra.idx(0, "1"), A.algebra.idx(0, "x")
    sub = _module_on_subspace(A, mats, [{x: QQ.one}])
    assert [m.columns() for m in sub] == [[{0: QQ.one}], [{}]]
    with pytest.raises(AssertionError, match="subspace is not invariant"):
        _module_on_subspace(A, mats, [{one: QQ.one}])


# ---------------------------------------------------------------------------
# injective cogenerator and classical Morita duality


def test_cogenerator_trivial_cases():
    A = ord_("k")
    M = injective_cogenerator(A)
    assert M.dim == 1
    A = ord_("kxk")
    M = injective_cogenerator(A)
    # semisimple: A* is isomorphic to A as a module
    assert len(hom_modules(A, regular_ordinary(A), M)) == \
        len(hom_modules(A, regular_ordinary(A), regular_ordinary(A)))


def test_every_simple_embeds_into_cogenerator():
    for name in ("upper_tri_2", "kxk", "dual_numbers", "mat2"):
        A = ord_(name)
        M = injective_cogenerator(A)
        for S in simple_modules(A):
            assert hom_modules(A, S, M), name


def test_gamma_of_ground_field():
    A = ord_("k")
    md = gamma(A, injective_cogenerator(A))
    assert md.gamma.n == 1


def test_gamma_of_upper_triangular_is_opposite_sized():
    A = ord_("upper_tri_2")
    md = gamma(A, injective_cogenerator(A))
    assert md.gamma.n == 3
    # Gamma is basic with two simples, like A itself
    assert count_simples(md.gamma) == 2


def test_double_dual_on_indecomposables():
    for name in ("upper_tri_2", "kxk"):
        A = ord_(name)
        md = gamma(A, injective_cogenerator(A))
        mods = simple_modules(A) + [regular_ordinary(A),
                                    injective_cogenerator(A)]
        for N in mods:
            _, iso = morita_unit(md, N)
            assert iso, (name, N.dim)


def test_duality_exchanges_simples_with_simples():
    A = ord_("upper_tri_2")
    md = gamma(A, injective_cogenerator(A))
    for S in simple_modules(A):
        FS, basis, _ = classical_F(md, S)
        assert FS.dim == 1  # one-dimensional, hence simple
        assert any(not m.is_zero() for m in basis)


def test_double_dual_on_random_modules():
    A = ord_("upper_tri_2")
    md = gamma(A, injective_cogenerator(A))
    done = 0
    seed = 0
    while done < 10:
        seed += 1
        N = random_ordinary_module(A, seed)
        if N is None or N.dim == 0 or N.dim > 4:
            continue
        _, iso = morita_unit(md, N)
        assert iso, seed
        done += 1


# ---------------------------------------------------------------------------
# Ext oracle


def test_ext_zero_is_hom():
    for name in ("dual_numbers", "upper_tri_2", "kxk"):
        A = ord_(name)
        M = injective_cogenerator(A)
        N = regular_ordinary(A)
        assert ext_oracle(A, M, N, 0)[0] == len(hom_modules(A, M, N)), name


def test_ext_periodicity_dual_numbers():
    A = ord_("dual_numbers")
    S = simple_modules(A)[0]
    assert ext_oracle(A, S, S, 6) == [1] * 7


def test_ext_vanishes_for_semisimple():
    A = ord_("mat2")
    S = simple_modules(A)[0]
    assert ext_oracle(A, S, S, 4) == [1, 0, 0, 0, 0]


def test_ext_of_injective_vanishes_positively():
    A = ord_("upper_tri_2")
    M = injective_cogenerator(A)
    assert ext_oracle(A, M, M, 4) == [3, 0, 0, 0, 0]


def test_free_resolution_of_free_module_over_local_algebra():
    # over a local algebra the top of A is one-dimensional, so the free
    # cover of the regular module is an isomorphism and the resolution stops
    A = ord_("dual_numbers")
    ranks, deltas = free_resolution(A, regular_ordinary(A), 4)
    assert ranks[0] == 1 and ranks[1] == 0 and deltas == []


def test_free_resolution_ranks_stay_bounded():
    # free covers of tops do not terminate in general, but their ranks
    # stay bounded at desk scale
    A = ord_("upper_tri_2")
    for S in simple_modules(A):
        ranks, _ = free_resolution(A, S, 5)
        assert all(r <= 2 for r in ranks)


def test_global_dimension_probe():
    assert global_dimension_probe(ord_("kxk"), 3) == 0
    assert global_dimension_probe(ord_("mat2"), 3) == 0
    assert global_dimension_probe(ord_("upper_tri_2"), 4) == 1
    assert global_dimension_probe(ord_("dual_numbers"), 4) is None


# ---------------------------------------------------------------------------
# linear duality carries complexes to complexes (finite global dimension)


def test_linear_duality_mirrors_cohomology():
    A = ord_("upper_tri_2")
    S = simple_modules(A)[1] if simple_modules(A)[0].dim else None
    # a two-term complex of A-modules: the free cover of a simple
    for S in simple_modules(A):
        ranks, deltas = free_resolution(A, S, 2)
        # build it as a plain complex and compare with its linear dual
        from bardual.graded import Complex, GradedMap, GradedVectorSpace
        from bardual.linalg import Matrix
        if len(ranks) < 2 or not deltas:
            continue
        n = A.n
        V = GradedVectorSpace({0: [("p0", i) for i in range(ranks[0] * n)],
                               -1: [("p1", i) for i in range(ranks[1] * n)]})
        cols = [{} for _ in range(ranks[1] * n)]
        for slot in range(ranks[0]):
            for g in range(ranks[1]):
                entry = deltas[0][slot][g]
                for k, c in entry.items():
                    # left multiplication column of the entry
                    L = A.left_mult_matrix({k: QQ(1)})
                    for s, col in enumerate(L.columns()):
                        viadd(cols[g * n + s],
                              {slot * n + r: v for r, v in col.items()}, c)
        m = Matrix.from_columns(QQ, ranks[0] * n, cols)
        d = GradedMap(QQ, V, V, 1, {-1: m})
        C = Complex(QQ, V, d)
        hc = cohomology(C)
        hd = cohomology(dual_complex(C))
        for deg, c in hc.items():
            assert hd[-deg].betti == c.betti
