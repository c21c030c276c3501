import random

import pytest

from bardual.algebras import (CurvedModule, acyclic_two_dim, free_module,
                              product)
from bardual.bar import hochschild_via_twist, reduced_bar
from bardual.catalog import builtin_algebra, builtin_module
from bardual.duality import (HomOverEnd, end_embed_tensor, end_module,
                             functor_F, functor_G, morita_prime_F,
                             morita_prime_G, prime_counit_iso, prime_unit_iso,
                             restrict_to_end, right_action_report,
                             right_hochschild_action)
from bardual.fields import QQ
from bardual.graded import GradedVectorSpace, cohomology
from bardual.linalg import Matrix, eliminate
from bardual.sampling import random_free_module
from bardual.sparse import viadd


def test_F_of_zero_module_is_zero():
    A = builtin_algebra("dual_numbers")
    M = builtin_module(A, "dual_numbers", "k")
    Z = CurvedModule(A, GradedVectorSpace({}), {}, {})
    E, FZ = functor_F(Z, M, 3)
    assert FZ.dim == 0


def test_F_all_trivial():
    k = builtin_algebra("k")
    Mk = builtin_module(k, "k", "k")
    E, F = functor_F(Mk, Mk, 3)
    assert E.dim == 1 and F.dim == 1
    assert F.diff == {}


def test_F_of_regular_module_dimensions():
    A = builtin_algebra("dual_numbers")
    M = builtin_module(A, "dual_numbers", "k")
    N = builtin_module(A, "dual_numbers", "A")
    E, FN = functor_F(N, M, 3)
    # dim Hom(A, k) = 2 per word
    assert [FN.space.dim(n) for n in range(4)] == [2, 2, 2, 2]
    assert FN.validate().ok


def test_F_computes_derived_homs():
    A = builtin_algebra("dual_numbers")
    M = builtin_module(A, "dual_numbers", "k")
    E, FN = functor_F(M, M, 5)
    coh = cohomology(FN.as_complex(), (0, 4))
    assert all(coh[n].betti == 1 for n in range(5))


def test_right_hochschild_action_commutes():
    A = builtin_algebra("dual_numbers")
    M = builtin_module(A, "dual_numbers", "k")
    N = builtin_module(A, "dual_numbers", "A")
    E, FN = functor_F(N, M, 2)
    HA = hochschild_via_twist(A, 2)
    ra = right_hochschild_action(FN, HA)
    assert right_action_report(FN, HA, ra) == []


def test_right_action_commutes_on_graded_example():
    A = builtin_algebra("acyclic2")
    M = builtin_module(A, "acyclic2", "A")
    N = builtin_module(A, "acyclic2", "Adual")
    E, FN = functor_F(N, M, 2)
    HA = hochschild_via_twist(A, 2)
    ra = right_hochschild_action(FN, HA)
    assert right_action_report(FN, HA, ra) == []


def test_G_round_trip_dual_numbers():
    A = builtin_algebra("dual_numbers")
    M = builtin_module(A, "dual_numbers", "k")
    E, FN = functor_F(M, M, 4)
    GL = functor_G(FN, M)
    coh = cohomology(GL.as_complex(), (-3, 0))
    assert coh[0].betti == 1
    assert all(coh[n].betti == 0 for n in range(-3, 0))


def test_G_round_trip_product_algebra_with_acyclic_coefficients():
    D = builtin_algebra("dual_numbers")
    C = acyclic_two_dim(QQ)
    P, pA, pC = product(D, C)
    action = {}
    for i in range(P.dim):
        img = pC.apply(P.basis_vec(i))
        for j in range(C.dim):
            out = C.mul(img, C.basis_vec(j))
            if out:
                action[(i, j)] = out
    M = CurvedModule(P, C.space, action,
                     {i: dict(v) for i, v in C.diff.items()})
    nact = {}
    for i, (deg, lbl) in enumerate(P.basis):
        if lbl == ("L", "1"):
            nact[(i, 0)] = {0: QQ(1)}
    N = CurvedModule(P, GradedVectorSpace({0: ["m"]}), nact, {})
    E, FN = functor_F(N, M, 3)
    GL = functor_G(FN, M)
    coh = cohomology(GL.as_complex(), (-1, 0))
    assert coh[0].betti == 1 and coh[-1].betti == 0


def test_G_preserves_acyclicity():
    A = builtin_algebra("acyclic2")
    M = builtin_module(A, "acyclic2", "A")
    N = builtin_module(A, "acyclic2", "Adual")
    E, FN = functor_F(N, M, 3)
    GL = functor_G(FN, M)
    assert all(c.betti == 0 for c in cohomology(GL.as_complex()).values())


# ---------------------------------------------------------------------------
# the covariant pair


def _module_k(B):
    V = GradedVectorSpace({0: ["n"]})
    act = {}
    for u, cu in B.unit.items():
        act[(u, 0)] = {0: cu}
    return CurvedModule(B, V, act, {})


def test_prime_functors_trivial_case():
    k = builtin_algebra("k")
    N = _module_k(k)
    M1 = GradedVectorSpace({0: ["m"]})
    Ep, FpN = morita_prime_F(N, M1)
    GpFp = morita_prime_G(FpN, M1)
    assert GpFp.dim == 1
    assert prime_unit_iso(N, M1, Ep, FpN, GpFp).is_iso()


def test_prime_round_trip_k_with_two_dim_M():
    k = builtin_algebra("k")
    N = _module_k(k)
    M2 = GradedVectorSpace({0: ["m1", "m2"]})
    Ep, FpN = morita_prime_F(N, M2)
    assert FpN.dim == 2
    GpFp = morita_prime_G(FpN, M2)
    assert GpFp.dim == 1
    assert prime_unit_iso(N, M2, Ep, FpN, GpFp).is_iso()
    _, FpGpFp = morita_prime_F(GpFp, M2, Ep=Ep)
    assert prime_counit_iso(FpN, M2, GpFp, FpGpFp).is_iso()


def test_prime_round_trips_over_bar_of_dual_numbers():
    B = reduced_bar(builtin_algebra("dual_numbers"), 3)
    M2 = GradedVectorSpace({0: ["m1", "m2"]})
    rng = random.Random(12)
    count = 0
    seed = 0
    while count < 6:
        seed += 1
        N = random_free_module(B, seed, max_rank=1)
        if N.dim == 0 or N.dim > 8:
            continue
        Ep, FpN = morita_prime_F(N, M2)
        GpFp = morita_prime_G(FpN, M2)
        assert prime_unit_iso(N, M2, Ep, FpN, GpFp).is_iso(), seed
        _, FpGpFp = morita_prime_F(GpFp, M2, Ep=Ep)
        assert prime_counit_iso(FpN, M2, GpFp, FpGpFp).is_iso(), seed
        count += 1


def test_prime_counit_on_free_modules():
    # L a free E'-module (not in the image of F'): F'G'(L) ~ L still
    B = reduced_bar(builtin_algebra("dual_numbers"), 2)
    M2 = GradedVectorSpace({0: ["m1", "m2"]})
    from bardual.algebras import endomorphism_algebra, tensor_algebras
    endm = endomorphism_algebra(M2, {}, QQ)
    Ep = tensor_algebras(B, endm)
    L = free_module(Ep, GradedVectorSpace({0: ["v"]}), {})
    GpL = morita_prime_G(L, M2)
    _, FpGpL = morita_prime_F(GpL, M2, Ep=Ep)
    assert prime_counit_iso(L, M2, GpL, FpGpL).is_iso()


def test_hom_dual_pairing_is_perfect():
    # Hom_{End M}(M, K)* = Hom_{End M}(K, M): the composition pairing
    # (phi, psi) -> psi o phi in End_{End M}(M) = k is perfect.
    from bardual.algebras import endomorphism_algebra, tensor_algebras
    from bardual.bar import trivial_algebra
    M2 = GradedVectorSpace({0: ["m1", "m2"]})
    endm = endomorphism_algebra(M2, {}, QQ)
    triv = trivial_algebra(QQ)
    Ep = tensor_algebras(triv, endm)
    # K = End(M) itself as an Ep-module: Hom(M, K) and Hom(K, M) are both
    # two-dimensional and the pairing between them is perfect
    K = free_module(Ep, GradedVectorSpace({0: ["v"]}), {})
    Mmod = end_module(endm, M2, {})
    Kend = restrict_to_end(K, endm, end_embed_tensor(Ep))
    to_h = HomOverEnd(Mmod, Kend)
    from_h = HomOverEnd(Kend, Mmod)
    dims_to = to_h.dims()
    dims_from = from_h.dims()
    assert dims_to.get(0, 0) == dims_from.get(0, 0) == 2
    # pairing matrix: (psi o phi) is a scalar multiple of id_M
    n = dims_to[0]
    pm = []
    for a in range(n):
        phi = to_h.basis[0][a]          # slots (m index, K index)
        pm.append([])
        for b in range(n):
            psi = from_h.basis[0][b]    # slots (K index, m index)
            # compose: M -> K -> M, read the coefficient of id
            cols = [{}, {}]
            for p1, c1 in phi.items():
                mi, ki = to_h.slots[0][p1]
                for p2, c2 in psi.items():
                    kj, mj = from_h.slots[0][p2]
                    if kj == ki:
                        viadd(cols[mi], {mj: c1 * c2})
            assert 0 not in cols[1] and 1 not in cols[0]
            assert cols[0].get(0, 0) == cols[1].get(1, 0)
            pm[a].append(cols[0].get(0, QQ.zero))
    r, _, _ = eliminate(Matrix.from_rows(QQ, pm))
    assert r == n


ORDINARY = ("k", "kxk", "dual_numbers", "upper_tri_2", "mat2")


@pytest.mark.parametrize("name", ORDINARY)
def test_hom_solver_agrees_with_the_oracle(field, name):
    # Hom_A(S, T) from HomOverEnd against the independent intertwiner
    # solve of morita.hom_modules, for S, T among k, A and Adual
    from bardual.morita import OrdinaryAlgebra, OrdinaryModule, hom_modules
    A = builtin_algebra(name, field)
    Ao = OrdinaryAlgebra(A)
    mods = {}
    for m in ("k", "A", "Adual"):
        try:
            mods[m] = builtin_module(A, name, m)
        except ValueError:
            pass
    assert len(mods) == (2 if name == "mat2" else 3)
    for S in mods.values():
        for T in mods.values():
            want = len(hom_modules(Ao, OrdinaryModule.from_curved(Ao, S),
                                   OrdinaryModule.from_curved(Ao, T)))
            assert HomOverEnd(S, T).dims().get(0, 0) == want


def test_F_is_contravariant_on_morphisms():
    from bardual.algebras import ModuleMap
    from bardual.duality import functor_F_on_map
    A = builtin_algebra("dual_numbers")
    M = builtin_module(A, "dual_numbers", "k")
    NA = builtin_module(A, "dual_numbers", "A")
    Nk = builtin_module(A, "dual_numbers", "k")
    # f: A -> k, the augmentation (an A-module map onto the simple)
    x = A.idx(0, "x")
    one = A.idx(0, "1")
    # regular module basis order matches the algebra's
    f = ModuleMap(NA, Nk, {one: {0: QQ(1)}})
    E, FA = functor_F(NA, M, 3)
    _, Fk = functor_F(Nk, M, 3, E=E)
    # F(f): F(k) -> F(A) is a validated map of E-modules (chain + action)
    Ff = functor_F_on_map(f, Fk, FA)
    assert Ff.blocks
    idk = ModuleMap(Nk, Nk, {0: {0: QQ(1)}})
    Fid = functor_F_on_map(idk, Fk, Fk)
    assert Fid.blocks == {i: {i: QQ(1)} for i in range(Fk.dim)}


def test_twist_is_identity_on_morphisms():
    # a module map survives twisting on both sides with the same blocks
    from bardual.algebras import ModuleMap
    from bardual.twisting import twist_module
    import random as _r
    for seed in (1, 4):
        try:
            Ax, Nx, xi = __import__("bardual.sampling",
                                    fromlist=["random_curved_setup"]) \
                .random_curved_setup(QQ, seed)
        except ValueError:
            continue
        # f = action of a degree-0 central-ish element: the unit works
        f = ModuleMap(Nx, Nx, {i: {i: QQ(1)} for i in range(Nx.dim)})
        rng = _r.Random(seed)
        eta = {i: QQ(rng.randint(-1, 1)) for i in Ax.by_degree.get(1, [])}
        eta = {i: c for i, c in eta.items() if c}
        N2 = twist_module(Nx, eta)
        f2 = ModuleMap(N2, N2, f.blocks)   # same blocks, still valid
        assert f2.validate().ok


def test_G_trivial_case_everything_is_k():
    k = builtin_algebra("k")
    Mk = builtin_module(k, "k", "k")
    E, Fk = functor_F(Mk, Mk, 3)
    GL = functor_G(Fk, Mk)
    assert GL.dim == 1 and GL.diff == {}
    coh = cohomology(GL.as_complex())
    assert coh[0].betti == 1


def test_G_of_zero_module_is_zero():
    A = builtin_algebra("dual_numbers")
    M = builtin_module(A, "dual_numbers", "k")
    E = __import__("bardual.bar", fromlist=["hochschild_via_twist"]) \
        .hochschild_via_twist(A, 3, M=M)
    Z = CurvedModule(E, GradedVectorSpace({}), {}, {})
    GZ = functor_G(Z, M)
    coh = cohomology(GZ.as_complex())
    assert all(c.betti == 0 for c in coh.values())


def test_functor_F_rejects_E_at_another_truncation():
    # W=4 against E built at W=3 would give an action that is not
    # associative; it is refused before anything is built
    A = builtin_algebra("dual_numbers")
    M = builtin_module(A, "dual_numbers", "k")
    E = hochschild_via_twist(A, 3, M=M, check=False)
    with pytest.raises(ValueError, match="W=3"):
        functor_F(M, M, 4, E=E, check=False)


def test_functor_F_rejects_E_for_another_coefficient_module():
    A = builtin_algebra("dual_numbers")
    k, MA, MD = (builtin_module(A, "dual_numbers", name)
                 for name in ("k", "A", "Adual"))
    # End(k) and End(A) have different labels
    E = hochschild_via_twist(A, 3, M=k, check=False)
    with pytest.raises(ValueError, match="another coefficient module"):
        functor_F(k, MA, 3, E=E, check=False)
    # A and Adual share their labels and End algebra, but not the action
    E = hochschild_via_twist(A, 3, M=MD, check=False)
    with pytest.raises(ValueError, match="another coefficient module"):
        functor_F(MA, MA, 3, E=E, check=False)
    # the E built for M itself is accepted
    E = hochschild_via_twist(A, 3, M=MA, check=False)
    assert functor_F(k, MA, 3, E=E, check=False)[0] is E
