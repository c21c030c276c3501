"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with `pytest -s tests/test_acceptance.py` to see them live).
All arithmetic is exact; every comparison below is zero-tolerance.
"""

import random
import time
from contextlib import contextmanager

from bardual.algebras import (CurvedModule, CurvedMorphism, acyclic_two_dim,
                              compose_curved, dual_regular_module,
                              identity_morphism, invert_morphism, product,
                              regular_module, validate)
from bardual.bar import (canonical_mc, fake_augmentation,
                         hochschild_direct, hochschild_via_twist,
                         identity_delta, reduced_bar, trivial_algebra)
from bardual.catalog import BUILTIN_ALGEBRAS, builtin_algebra, builtin_module
from bardual.duality import (morita_prime_F, morita_prime_G,
                             prime_counit_iso, prime_unit_iso)
from bardual.fields import QQ
from bardual.graded import GradedVectorSpace, cohomology, is_quasi_iso, \
    truncate_complex
from bardual.morita import (OrdinaryAlgebra, OrdinaryModule, count_simples,
                            ext_oracle, gamma, injective_cogenerator,
                            morita_unit, regular_ordinary, simple_modules,
                            _submodule_span, _module_on_subspace)
from bardual.sampling import (random_acyclic_complex, random_curved_setup,
                              random_dg_algebra, random_free_module,
                              random_ordinary_module)
from bardual.sparse import vadd, vneg
from bardual.twisting import is_mc, twist_algebra, twist_module


@contextmanager
def criterion(num, name, budget=None):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        dt = time.monotonic() - t0
        print(f"[acceptance] criterion {num:2d} ({name}): FAIL ({dt:.1f}s)")
        raise
    dt = time.monotonic() - t0
    print(f"[acceptance] criterion {num:2d} ({name}): PASS ({dt:.1f}s)")
    if budget is not None:
        assert dt < budget, f"criterion {num} exceeded {budget}s ({dt:.1f}s)"


def _valid_builtin_modules(name):
    out = []
    for mn in ("k", "A", "Adual"):
        try:
            out.append((mn, builtin_module(builtin_algebra(name), name, mn)))
        except ValueError:
            pass
    return out


def test_c01_axiom_suite():
    with criterion(1, "axiom suite", budget=30.0):
        for name in BUILTIN_ALGEBRAS:
            A = builtin_algebra(name)
            assert validate(A).ok, name
            assert dual_regular_module(A, check=False).validate().ok, name
            aug = fake_augmentation(A)
            bar = reduced_bar(A, 4, coeff=aug.algebra,
                              delta=identity_delta(aug.algebra), aug=aug,
                              check=False)
            r = validate(bar)
            assert r.ok, (name, r.failures[:3])
            tw = twist_algebra(bar, canonical_mc(bar), check=False)
            assert validate(tw).ok, name
        for seed in range(50):
            A = random_dg_algebra(QQ, seed)
            assert A.dim <= 4 and all(-1 <= d <= 1 for d in A.degree)
            assert validate(A).ok, seed
            aug = fake_augmentation(A)
            bar = reduced_bar(A, 3, coeff=aug.algebra,
                              delta=identity_delta(aug.algebra), aug=aug,
                              check=False)
            assert validate(bar).ok, seed
            tw = twist_algebra(bar, canonical_mc(bar), check=False)
            assert validate(tw).ok, seed


def test_c02_mc_certification():
    with criterion(2, "Maurer-Cartan certification", budget=10.0):
        for name in BUILTIN_ALGEBRAS:
            A = builtin_algebra(name)
            aug = fake_augmentation(A)
            bar = reduced_bar(A, 4, coeff=aug.algebra,
                              delta=identity_delta(aug.algebra), aug=aug,
                              check=False)
            xi = canonical_mc(bar)
            res = is_mc(bar, xi)
            assert bool(res), (name, res.residual)
            tw = twist_algebra(bar, xi, check=False)
            assert tw.curvature == {}, name


def test_c03_cross_construction_equality():
    with criterion(3, "direct Hochschild equals twisted bar"):
        for name in BUILTIN_ALGEBRAS:
            for mn, M in _valid_builtin_modules(name):
                A = builtin_algebra(name)
                Mc = builtin_module(A, name, mn)
                E1 = hochschild_direct(A, Mc, 3, check=False)
                E2 = hochschild_via_twist(A, 3, M=Mc, check=False)
                assert E1.basis == E2.basis, (name, mn)
                assert E1.mult == E2.mult, (name, mn)
                assert E1.diff == E2.diff, (name, mn)
                assert E1.curvature == E2.curvature == {}, (name, mn)


def test_c04_ext_oracle_equivalence():
    with criterion(4, "H(E) matches the Ext oracle", budget=120.0):
        W = 5
        cases = [("dual_numbers", "k"), ("upper_tri_2", "Adual"),
                 ("kxk", "k")]
        for an, mn in cases:
            A = builtin_algebra(an)
            M = builtin_module(A, an, mn)
            E = hochschild_direct(A, M, W, check=False)
            coh = cohomology(E.as_complex(), (0, W - 2))
            Ao = OrdinaryAlgebra(A)
            Mo = OrdinaryModule.from_curved(Ao, M)
            ext = ext_oracle(Ao, Mo, Mo, W - 2)  # derived, never hand-typed
            for n in range(W - 1):
                assert coh[n].betti == ext[n], (an, mn, n)
            if an == "dual_numbers":
                assert ext == [1, 1, 1, 1]
            if an == "kxk":
                assert ext == [1, 0, 0, 0]


def test_c05_reduced_vs_unreduced_instance():
    with criterion(5, "reduced/unreduced comparison instance"):
        k = builtin_algebra("k")
        Hbk = hochschild_via_twist(k, 4, M=builtin_module(k, "k", "k"),
                                   check=False)
        assert Hbk.dim == 1
        triv = trivial_algebra(QQ)
        Hk = hochschild_via_twist(k, 4, coeff_delta=(triv, {0: {0: QQ(1)}}),
                                  reduced=False, check=False)
        kxk = builtin_algebra("kxk")
        Hb = hochschild_via_twist(kxk, 4,
                                  M=builtin_module(kxk, "kxk", "k"),
                                  check=False)
        f = {}
        for i in range(Hk.dim):
            _, (word, _) = Hk.basis[i]
            f[i] = {Hb.word_coeff_index(word, 0): QQ(1)}
        iso = CurvedMorphism(Hk, Hb, f, {})        # validates both rules
        rt = compose_curved(iso, invert_morphism(iso))
        assert rt.a == {} and rt.f == identity_morphism(Hb).f


def test_c06_covariant_round_trips():
    with criterion(6, "covariant module/End(M) round trips"):
        from bardual.algebras import endomorphism_algebra, tensor_algebras
        # the required bases, plus a third whose bar differential is
        # nonzero (contraction terms of the upper-triangular algebra)
        bases = [builtin_algebra("k"),
                 reduced_bar(builtin_algebra("dual_numbers"), 3),
                 reduced_bar(builtin_algebra("upper_tri_2"), 2)]
        mspaces = [GradedVectorSpace({0: ["m1"]}),
                   GradedVectorSpace({0: ["m1", "m2"]})]
        eps = {}
        for bi, B in enumerate(bases):
            for mi, Mspace in enumerate(mspaces):
                endm = endomorphism_algebra(Mspace, {}, QQ, check=False)
                eps[(bi, mi)] = tensor_algebras(B, endm, check=False)
        n_done = l_done = 0
        seed = 0
        while n_done < 20 or l_done < 20:
            seed += 1
            bi, mi = seed % 3, (seed // 3) % 2
            B, Mspace = bases[bi], mspaces[mi]
            Ep = eps[(bi, mi)]
            N = random_free_module(B, seed, max_rank=2)
            if N.dim == 0 or N.dim > 16:
                continue
            _, FpN = morita_prime_F(N, Mspace, Ep=Ep)
            if n_done < 20:
                GpFp = morita_prime_G(FpN, Mspace)
                u = prime_unit_iso(N, Mspace, Ep, FpN, GpFp)
                assert u.is_iso(), seed
                n_done += 1
            if l_done < 20:
                # alternate the L pool between images of F' and free
                # E'-modules with a seeded random differential
                if l_done % 2:
                    L = FpN
                else:
                    L = random_free_module(Ep, seed + 7000, max_rank=1)
                    if L.dim == 0 or L.dim > 24:
                        continue
                GpL = morita_prime_G(L, Mspace)
                _, FpGpL = morita_prime_F(GpL, Mspace, Ep=Ep)
                c = prime_counit_iso(L, Mspace, GpL, FpGpL)
                assert c.is_iso(), seed
                l_done += 1


def test_c07_twist_round_trips():
    with criterion(7, "twisting round trips exactly"):
        done = 0
        seed = 0
        while done < 20:
            seed += 1
            try:
                Ax, Nx, xi = random_curved_setup(QQ, seed)
            except ValueError:
                continue
            rng = random.Random(seed + 900)
            eta = {i: QQ(rng.randint(-1, 1))
                   for i in Ax.by_degree.get(1, [])}
            eta = {i: c for i, c in eta.items() if c}
            N2 = twist_module(Nx, eta)
            N3 = twist_module(N2, vneg(eta))
            assert N3.diff == Nx.diff and N3.action == Nx.action, seed
            done += 1
        # module twist of an uncurved algebra over itself differs from the
        # algebra twist exactly by Koszul right multiplication by xi
        for seed in range(5):
            A = random_dg_algebra(QQ, seed + 300)
            ones = A.by_degree.get(1, [])
            rng = random.Random(seed)
            xi = {i: QQ(rng.randint(-1, 1)) for i in ones}
            xi = {i: c for i, c in xi.items() if c}
            Ax = twist_algebra(A, xi)
            Nx = twist_module(regular_module(A), xi, algebra=Ax, check=False)
            for i in range(A.dim):
                rhs = dict(Ax.diff.get(i, {}))
                term = A.mul(A.basis_vec(i), xi)
                sgn = -QQ(1) if A.degree[i] % 2 else QQ(1)
                rhs = vadd(rhs, {k: sgn * c for k, c in term.items()})
                assert Nx.diff.get(i, {}) == rhs, (seed, i)


def _principal_submodule(A, idx):
    reg = regular_ordinary(A)
    basis = _submodule_span(A, reg.mats, [{idx: A.field.one}])
    mats = _module_on_subspace(A, reg.mats, basis)
    return OrdinaryModule(A, mats)


def test_c08_classical_morita():
    with criterion(8, "classical double-dual on indecomposables"):
        for name in ("upper_tri_2", "kxk"):
            A = OrdinaryAlgebra(builtin_algebra(name))
            M = injective_cogenerator(A)
            md = gamma(A, M)
            simples = simple_modules(A)
            assert len(simples) == 2
            if name == "upper_tri_2":
                alg = A.algebra
                projectives = [
                    _principal_submodule(A, alg.idx(0, "e11")),
                    _principal_submodule(A, alg.idx(0, "e22"))]
            else:
                alg = A.algebra
                projectives = [
                    _principal_submodule(A, alg.idx(0, "e1")),
                    _principal_submodule(A, alg.idx(0, "e2"))]
            for N in simples + projectives:
                _, iso = morita_unit(md, N)
                assert iso, (name, N.dim)
            done = 0
            seed = 0
            while done < 10:
                seed += 1
                N = random_ordinary_module(A, seed)
                if N is None or N.dim == 0 or N.dim > 4:
                    continue
                _, iso = morita_unit(md, N)
                assert iso, (name, seed)
                done += 1


def test_c09_simple_module_counts():
    with criterion(9, "simple-module counts"):
        from bardual.algebras import algebra_from_tables
        k = builtin_algebra("k")
        P3, _, _ = product(product(k, k)[0], k)
        t = {}
        for a in range(1, 5):
            for b in range(1, 5):
                t[(f"x{a}", f"x{b}")] = \
                    [(QQ(1), f"x{a+b}")] if a + b <= 4 else []
        kx5 = algebra_from_tables(
            QQ, {0: ["1"] + [f"x{i}" for i in range(1, 5)]}, "1", t, {})
        got = [count_simples(OrdinaryAlgebra(builtin_algebra("k"))),
               count_simples(OrdinaryAlgebra(builtin_algebra("upper_tri_2"))),
               count_simples(OrdinaryAlgebra(P3)),
               count_simples(OrdinaryAlgebra(kx5)),
               count_simples(OrdinaryAlgebra(builtin_algebra("mat2")))]
        assert got == [1, 2, 3, 1, 1]


def test_c10_truncation_of_acyclic_complexes():
    with criterion(10, "two-sided truncation preserves acyclicity"):
        for seed in range(20):
            C = random_acyclic_complex(QQ, seed)
            degs = C.space.degrees
            if not degs:
                continue
            lo, hi = degs[0] - 1, degs[-1] + 1
            for a in range(lo, hi):
                for b in range(a + 1, hi + 1):
                    T = truncate_complex(C, a, b)
                    assert T.d.compose(T.d).is_zero(), (seed, a, b)
                    bad = {n: c.betti for n, c in cohomology(T).items()
                           if c.betti}
                    assert not bad, (seed, a, b, bad)


def test_c11_truncation_stability():
    with criterion(11, "cohomology stable under W -> W+1"):
        for name in BUILTIN_ALGEBRAS:
            A = builtin_algebra(name)
            spread_a = max(A.degree) - min(A.degree)
            # the bar construction itself
            W = 4
            b1 = reduced_bar(A, W, check=False)
            hi = W - 1 - spread_a
            if not b1.curvature and hi >= 0:
                # curved bars have no cohomology to stabilise
                b2 = reduced_bar(A, W + 1, check=False)
                c1 = cohomology(b1.as_complex(), (0, hi))
                c2 = cohomology(b2.as_complex(), (0, hi))
                for n in range(hi + 1):
                    assert c1[n].betti == c2[n].betti, (name, "bar", n)
            # the Hochschild algebra with its canonical coefficients
            mods = _valid_builtin_modules(name)
            mn, M = mods[0]
            spread = spread_a + (max(M.degree) - min(M.degree) if M.degree
                                 else 0)
            W = 2 if A.dim >= 4 else 4
            E1 = hochschild_direct(A, M, W, check=False)
            E2 = hochschild_direct(A, M, W + 1, check=False)
            hi = W - 1 - spread
            if hi < 0:
                continue
            c1 = cohomology(E1.as_complex(), (0, hi))
            c2 = cohomology(E2.as_complex(), (0, hi))
            for n in range(hi + 1):
                assert c1[n].betti == c2[n].betti, (name, mn, n)


def test_c12_acyclic_coefficients_shadow():
    with criterion(12, "acyclic two-dimensional coefficients"):
        C = acyclic_two_dim(QQ)
        assert all(c.betti == 0 for c in cohomology(C.as_complex()).values())
        D = builtin_algebra("dual_numbers")
        P, pA, pC = product(D, C)
        assert is_quasi_iso(pA.as_graded_map(), P.as_complex(),
                            D.as_complex(), (-1, 1))
        # M = C through the projection; E built from (A x C, M) at W = 3
        action = {}
        for i in range(P.dim):
            img = pC.apply(P.basis_vec(i))
            for j in range(C.dim):
                out = C.mul(img, C.basis_vec(j))
                if out:
                    action[(i, j)] = out
        M = CurvedModule(P, C.space, action,
                         {i: dict(v) for i, v in C.diff.items()})
        E = hochschild_direct(P, M, 3, check=False)
        r = validate(E)
        assert r.ok, r.failures[:3]
        assert E.curvature == {}
