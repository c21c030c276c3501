from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bardual.algebras import acyclic_two_dim
from bardual.fields import GF, QQ
from bardual.graded import (Complex, GradedMap, GradedVectorSpace,
                            cohomology, dual, dual_complex, hom, hom_complex,
                            is_quasi_iso, shift, tensor, tensor_complex,
                            truncate_complex)
from bardual.linalg import Matrix
from bardual.sampling import random_acyclic_complex, random_space, \
    random_square_zero


def _random_complex(field, V, rng):
    d = random_square_zero(field, V, rng)
    return Complex(field, V, GradedMap.from_table(field, V, d, 1))


def space(dims):
    return GradedVectorSpace(
        {n: [f"e{n}_{i}" for i in range(d)] for n, d in dims.items()})


def test_shift_raises_degree():
    V = space({0: 2})
    assert shift(V, 1).dim(1) == 2 and shift(V, 1).dim(0) == 0
    assert shift(V, 0) == V
    assert shift(shift(V, 1), -1) == V


def test_dual_negates_degrees():
    V = space({2: 3})
    assert dual(V).dim(-2) == 3
    assert dual(dual(V)) == V


def test_dual_of_identity_is_identity():
    # dual(V) keeps V's labels, so the identity's table is the identity
    # there too; and the dual of a complex with d = 0 has d = 0
    V = space({0: 2, 1: 1})
    assert GradedMap.from_table(
        QQ, dual(V), GradedMap.identity(QQ, V).table(), 0) == \
        GradedMap.identity(QQ, dual(V))
    C = Complex(QQ, V, GradedMap.zero(QQ, V, V, 1))
    assert dual_complex(C).d == GradedMap.zero(QQ, dual(V), dual(V), 1)


def test_dual_of_differential_squares_to_zero():
    C = acyclic_two_dim(QQ).as_complex()
    dd = dual_complex(C).d
    assert dd.degree == 1 and not dd.is_zero()
    assert dd.compose(dd).is_zero()
    assert dual_complex(C).space == dual(C.space)


def test_tensor_unit_and_dims():
    k = space({0: 1})
    W = space({0: 1, 1: 1})
    assert all(tensor(k, W).dim(n) == W.dim(n) for n in (0, 1))
    V = space({0: 1, 1: 1})
    T = tensor(V, W)
    assert (T.dim(0), T.dim(1), T.dim(2)) == (1, 2, 1)


def test_hom_into_ground_field_is_dual():
    V = space({-1: 2, 3: 1})
    H = hom(V, space({0: 1}))
    D = dual(V)
    assert {n: H.dim(n) for n in H.degrees} == \
        {n: D.dim(n) for n in D.degrees}


def test_cohomology_zero_differential():
    V = space({0: 2, 1: 3})
    C = Complex(QQ, V, GradedMap.zero(QQ, V, V, 1))
    coh = cohomology(C)
    assert coh[0].betti == 2 and coh[1].betti == 3


def test_acyclic_two_dim_is_acyclic():
    C = acyclic_two_dim(QQ).as_complex()
    assert all(c.betti == 0 for c in cohomology(C).values())


def test_quasi_iso_identity_and_zero():
    V = space({0: 2})
    C = Complex(QQ, V, GradedMap.zero(QQ, V, V, 1))
    idm = GradedMap.identity(QQ, V)
    assert is_quasi_iso(idm, C, C, (0, 0))
    zero = GradedMap.zero(QQ, V, V, 0)
    assert not is_quasi_iso(zero, C, C, (0, 0))


def test_non_chain_map_rejected():
    C = acyclic_two_dim(QQ).as_complex()
    V = C.space
    bad = GradedMap(QQ, V, V, 0, {0: Matrix.from_rows(QQ, [[Fraction(2)]]),
                                  -1: Matrix.from_rows(QQ, [[Fraction(1)]])})
    with pytest.raises(ValueError):
        is_quasi_iso(bad, C, C, (-1, 0))


def test_d_squared_checked_eagerly():
    V = space({0: 1, 1: 1, 2: 1})
    blocks = {0: Matrix.from_rows(QQ, [[Fraction(1)]]),
              1: Matrix.from_rows(QQ, [[Fraction(1)]])}
    with pytest.raises(ValueError):
        Complex(QQ, V, GradedMap(QQ, V, V, 1, blocks))


def test_kunneth_on_seeded_complexes():
    import random
    for seed in range(6):
        rng = random.Random(seed)
        V = random_space(rng, max_dim=3)
        W = random_space(rng, max_dim=3)
        C = _random_complex(QQ, V, rng)
        D = _random_complex(QQ, W, rng)
        T = tensor_complex(C, D)
        hc = {n: c.betti for n, c in cohomology(C).items()}
        hd = {n: c.betti for n, c in cohomology(D).items()}
        ht = {n: c.betti for n, c in cohomology(T).items()}
        conv = {}
        for a, x in hc.items():
            for b, y in hd.items():
                conv[a + b] = conv.get(a + b, 0) + x * y
        for n in set(conv) | set(ht):
            assert conv.get(n, 0) == ht.get(n, 0), (seed, n)


def test_dual_is_exact_involution_on_betti():
    for seed in range(5):
        import random
        rng = random.Random(100 + seed)
        V = random_space(rng, max_dim=4)
        C = _random_complex(QQ, V, rng)
        D = dual_complex(C)
        hc = cohomology(C)
        hd = cohomology(D)
        for n, c in hc.items():
            assert hd.get(-n).betti == c.betti if -n in hd else c.betti == 0


def test_truncate_identity_complex_stays_acyclic():
    V = space({0: 1, 1: 1})
    d = GradedMap(QQ, V, V, 1, {0: Matrix.from_rows(QQ, [[Fraction(1)]])})
    C = Complex(QQ, V, d)
    T = truncate_complex(C, 0, 1)
    assert all(c.betti == 0 for c in cohomology(T).values())


def test_truncate_zero_complex():
    V = GradedVectorSpace({})
    C = Complex(QQ, V, GradedMap.zero(QQ, V, V, 1))
    T = truncate_complex(C, 0, 2)
    assert T.space.total_dim == 0


def test_truncate_preserves_window_cohomology():
    import random
    rng = random.Random(7)
    V = random_space(rng, max_dim=4, lo=-2, hi=2)
    C = _random_complex(QQ, V, rng)
    T = truncate_complex(C, -1, 1)
    hc = cohomology(C)
    ht = cohomology(T)
    for n in (-1, 0, 1):
        want = hc[n].betti if n in hc else 0
        got = ht[n].betti if n in ht else 0
        assert got == want


def test_truncate_acyclic_cones():
    for seed in range(8):
        C = random_acyclic_complex(QQ, seed)
        degs = C.space.degrees
        if not degs:
            continue
        lo, hi = degs[0], degs[-1]
        for (a, b) in [(lo, hi), (lo + 1, hi), (lo, hi - 1)]:
            if a >= b:
                continue
            T = truncate_complex(C, a, b)
            assert T.d.compose(T.d).is_zero()
            assert all(c.betti == 0 for c in cohomology(T).values()), \
                (seed, a, b)


small = st.integers(min_value=-1, max_value=2)


@given(st.dictionaries(st.integers(min_value=-2, max_value=2),
                       st.integers(min_value=1, max_value=3), max_size=3),
       st.integers(min_value=-2, max_value=2))
def test_shift_dims_property(dims, k):
    V = space(dims)
    S = shift(V, k)
    for n in dims:
        assert S.dim(n + k) == V.dim(n)


def test_dual_numbers_as_complex_has_betti_two():
    from bardual.catalog import builtin_algebra
    C = builtin_algebra("dual_numbers").as_complex()
    assert cohomology(C)[0].betti == 2


def test_cohomology_representatives_are_pinned(field):
    # representatives pinned from the dense reduced-echelon implementation:
    # the first-pivot convention must survive the sparse elimination
    f = field
    V = space({0: 3, 1: 4, 2: 2})
    d0 = Matrix.from_rows(f, [[f(15, 2), f(0), f(-15)], [f(-3), f(0), f(6)],
                              [f(0), f(0), f(0)], [f(3), f(0), f(-6)]])
    d1 = Matrix.from_rows(f, [[f(v) for v in r]
                              for r in ([2, 4, 0, -1], [0, 3, 1, 3])])
    C = Complex(f, V, GradedMap(f, V, V, 1, {0: d0, 1: d1}))
    coh = cohomology(C)
    got = {n: [[str(r.get(i, f.zero)) for i in range(V.dim(n))]
               for r in h.representatives]
           for n, h in coh.items()}
    h1 = ["2/3", "-1/3", "1", "0"] if f is QQ else ["3", "2", "1", "0"]
    assert got == {0: [["0", "1", "0"], ["2", "0", "1"]], 1: [h1], 2: []}
    assert {n: h.betti for n, h in coh.items()} == {0: 2, 1: 1, 2: 0}


@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from([QQ, GF(7)]))
def test_hom_complex_betti_numbers(seed, field):
    import random
    rng = random.Random(seed)
    V = random_space(rng, max_dim=3)
    W = random_space(rng, max_dim=3, lo=-1, hi=2)
    C = _random_complex(field, V, rng)
    D = _random_complex(field, W, rng)
    # building the complex runs the eager d^2 check on the Koszul sign
    H = hom_complex(C, D)
    bC = {n: h.betti for n, h in cohomology(C).items()}
    bD = {n: h.betti for n, h in cohomology(D).items()}
    bH = {n: h.betti for n, h in cohomology(H).items()}
    # over a field, H^n Hom(C, D) = prod over j of Hom(H^j C, H^{j+n} D)
    for n in set(bH) | {m - j for j in bC for m in bD}:
        want = sum(b * bD.get(j + n, 0) for j, b in bC.items())
        assert bH.get(n, 0) == want, (seed, n)
