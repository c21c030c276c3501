import functools
import itertools
import random

import pytest

from bardual.algebras import (CurvedAlgebra, CurvedModule, CurvedMorphism,
                              ValidationError,
                              acyclic_two_dim, algebra_from_tables,
                              bimodule_envelope, compose_curved,
                              dual_regular_module, endomorphism_algebra,
                              free_module, identity_morphism,
                              invert_morphism, opposite, product,
                              regular_bimodule, regular_module, validate)
from bardual.bar import hochschild_direct
from bardual.catalog import builtin_algebra, builtin_module, BUILTIN_ALGEBRAS
from bardual.fields import GF, QQ
from bardual.graded import (GradedMap, GradedVectorSpace, cohomology,
                            is_quasi_iso)
from bardual.sampling import random_dg_algebra
from bardual.sparse import viadd
from bardual.twisting import twist_algebra


def dual_numbers(field=QQ):
    return algebra_from_tables(field, {0: ["1", "x"]}, "1",
                               {("x", "x"): []}, {})


def test_dual_numbers_valid():
    assert validate(dual_numbers()).ok


@functools.lru_cache(maxsize=None)
def hochschild_mat2():
    """The mat2/A Hochschild algebra at W = 3: dim 640, 640^3 triples."""
    A = builtin_algebra("mat2")
    return hochschild_direct(A, builtin_module(A, "mat2", "A"), 3,
                             check=False)


def bumped(table, key, target, c=QQ(1)):
    """A copy of a structure table with c added to table[key][target]."""
    out = dict(table)
    col = dict(out.get(key, {}))
    viadd(col, {target: c})
    if col:
        out[key] = col
    else:
        out.pop(key, None)
    return out


def x_squared_is_x():
    # x^2 = x with dx = 1 breaks the Leibniz rule: d(x.x) = 2x != 1
    return algebra_from_tables(QQ, {0: ["1"], -1: ["x"]}, "1",
                               {("x", "x"): [(QQ(1), "x")]},
                               {"x": [(QQ(1), "1")]}, check=False)


def hochschild_with_bumped_differential():
    E = hochschild_mat2()
    i = E.idx(0, ((), 1))
    diff = bumped(E.diff, i, min(E.diff[i]))
    return CurvedAlgebra(E.field, E.space, E.unit, E.mult, diff, check=False)


def test_corrupted_leibniz_reported():
    for build in (x_squared_is_x, hochschild_with_bumped_differential):
        with pytest.raises(ValidationError) as exc:
            build().validate().raise_if_failed("algebra")
        assert any(f.identity in ("leibniz", "mult-degree")
                   for f in exc.value.report.failures), build.__name__


# One product constant e_a e_b = e_c of the mat2/A Hochschild algebra,
# bumped to 2 e_c.  It breaks associativity on 22 of the 640^3 triples
# (20 for the regular module) and leaves every other identity intact, so
# only a check that decides every triple can see it.
BUMPED_PRODUCT = ((0, ((), 1)), (3, ((1, 1, 1), 8)))


def test_exhaustive_associativity_above_the_old_budget():
    E = hochschild_mat2()
    key = tuple(E.idx(*bl) for bl in BUMPED_PRODUCT)
    mult = bumped(E.mult, key, min(E.mult[key]))
    bad = CurvedAlgebra(E.field, E.space, E.unit, mult, E.diff,
                        check=False).validate()
    assert f"associativity: all {640 ** 3} triples" in bad.notes
    assert {f.identity for f in bad.failures} == {"associativity"}
    assert len(bad.failures) == 22


def test_exhaustive_action_associativity_above_the_old_budget():
    E = hochschild_mat2()
    M = regular_module(E, check=False)
    key = tuple(E.idx(*bl) for bl in BUMPED_PRODUCT)
    action = bumped(M.action, key, min(M.action[key]))
    bad = CurvedModule(E, M.space, action, M.diff, check=False).validate()
    assert f"action associativity: all {640 ** 3} triples" in bad.notes
    assert {f.identity for f in bad.failures} == {"action-associativity"}
    assert len(bad.failures) == 20


def brute_force_failures(mult, action, adiff, xdiff, adeg, na, nx):
    """Associativity triples and Leibniz pairs that fail, one at a time."""
    assoc, leibniz = [], []
    for i in range(na):
        for j in range(na):
            for k in range(nx):
                lhs, rhs = {}, {}
                for t, c in mult.get((i, j), {}).items():
                    viadd(lhs, action.get((t, k), {}), c)
                for t, c in action.get((j, k), {}).items():
                    viadd(rhs, action.get((i, t), {}), c)
                if lhs != rhs:
                    assoc.append((i, j, k))
    for i in range(na):
        sign = -1 if adeg[i] % 2 else 1
        for j in range(nx):
            lhs, rhs = {}, {}
            for t, c in action.get((i, j), {}).items():
                viadd(lhs, xdiff.get(t, {}), c)
            for t, c in adiff.get(i, {}).items():
                viadd(rhs, action.get((t, j), {}), c)
            for t, c in xdiff.get(j, {}).items():
                viadd(rhs, action.get((i, t), {}), sign * c)
            if lhs != rhs:
                leibniz.append((i, j))
    return assoc, leibniz


def random_bump(rng, table, key_degrees, target_degrees, shift, draw=None):
    """`table` with a random nonzero constant added at a random place whose
    target degree is the sum of the key degrees plus `shift`.  `draw(rng)`
    gives the constant; by default it is drawn from {-2, -1, 1, 3}/{1, 2}."""
    places = []
    for key in itertools.product(*(range(len(d)) for d in key_degrees)):
        want = sum(d[k] for d, k in zip(key_degrees, key)) + shift
        places += [(key if len(key) > 1 else key[0], t)
                   for t, d in enumerate(target_degrees) if d == want]
    if not places:
        return None
    key, target = rng.choice(places)
    if draw is None:
        c = QQ(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2]))
    else:
        c = draw(rng)
    return bumped(table, key, target, c)


def test_joined_validation_matches_brute_force():
    rng = random.Random(11)
    cases = []
    for seed in range(30):
        A = random_dg_algebra(QQ, seed)
        M = dual_regular_module(A, check=False)
        n, deg, mdeg = A.dim, A.degree, M.degree
        mult = random_bump(rng, A.mult, (deg, deg), deg, 0)
        diff = random_bump(rng, A.diff, (deg,), deg, 1)
        for m, d in ((mult, A.diff), (A.mult, diff)):
            if m is not None and d is not None:
                rep = CurvedAlgebra(QQ, A.space, A.unit, m, d,
                                    check=False).validate()
                assert rep.notes == [f"associativity: all {n ** 3} triples"]
                cases.append((rep, "",
                              brute_force_failures(m, m, d, d, deg, n, n)))
        action = random_bump(rng, M.action, (deg, mdeg), mdeg, 0)
        mdiff = random_bump(rng, M.diff, (mdeg,), mdeg, 1)
        for act, md in ((action, M.diff), (M.action, mdiff)):
            if act is not None and md is not None:
                rep = CurvedModule(A, M.space, act, md, check=False).validate()
                assert rep.notes == [
                    f"action associativity: all {n * n * M.dim} triples"]
                cases.append((rep, "module-", brute_force_failures(
                    A.mult, act, A.diff, md, deg, n, M.dim)))
        # k with only the unit acting: every other e_i acts by zero, while
        # d(e_i) may not
        act = {(u, 0): {0: c} for u, c in A.unit.items()}
        N = CurvedModule(A, GradedVectorSpace({0: ["m"]}), act, {},
                         check=False)
        cases.append((N.validate(), "module-", brute_force_failures(
            A.mult, act, A.diff, {}, deg, n, 1)))
    failing = 0
    for rep, prefix, (assoc, leibniz) in cases:
        witnesses = {}
        for f in rep.failures:
            witnesses.setdefault(f.identity, []).append(f.witness)
        assoc_name = "action-associativity" if prefix else "associativity"
        assert witnesses.get(assoc_name, []) == assoc, rep
        assert witnesses.get(prefix + "leibniz", []) == leibniz, rep
        failing += bool(assoc or leibniz)
    assert failing >= len(cases) // 2, (failing, len(cases))


# Over F_7 the integer joins reduce a difference mod 7 only when they
# test it; over Q the bumps bring in the denominators 2, 3 and 6, so the
# common denominator the joins clear is larger than 2.
@pytest.mark.parametrize("field, draw", [
    (GF(7), lambda rng: GF(7)(rng.randrange(1, 7))),
    (QQ, lambda rng: rng.choice([QQ(1, 3), QQ(-3, 2), QQ(5, 6)])),
], ids=["F7", "Q-mixed-denominators"])
def test_integer_joins_match_brute_force(field, draw):
    rng = random.Random(23)
    cases = []
    for seed in range(30):
        A = random_dg_algebra(field, seed)
        M = dual_regular_module(A, check=False)
        n, deg, mdeg = A.dim, A.degree, M.degree
        mult = random_bump(rng, A.mult, (deg, deg), deg, 0, draw)
        diff = random_bump(rng, A.diff, (deg,), deg, 1, draw)
        for m, d in ((mult, A.diff), (A.mult, diff)):
            if m is not None and d is not None:
                rep = CurvedAlgebra(field, A.space, A.unit, m, d,
                                    check=False).validate()
                cases.append((rep, "",
                              brute_force_failures(m, m, d, d, deg, n, n)))
        action = random_bump(rng, M.action, (deg, mdeg), mdeg, 0, draw)
        mdiff = random_bump(rng, M.diff, (mdeg,), mdeg, 1, draw)
        for act, md in ((action, M.diff), (M.action, mdiff)):
            if act is not None and md is not None:
                rep = CurvedModule(A, M.space, act, md, check=False).validate()
                cases.append((rep, "module-", brute_force_failures(
                    A.mult, act, A.diff, md, deg, n, M.dim)))
    failing = 0
    for rep, prefix, (assoc, leibniz) in cases:
        witnesses = {}
        for f in rep.failures:
            witnesses.setdefault(f.identity, []).append(f.witness)
        assoc_name = "action-associativity" if prefix else "associativity"
        assert witnesses.get(assoc_name, []) == assoc, rep
        assert witnesses.get(prefix + "leibniz", []) == leibniz, rep
        failing += bool(assoc or leibniz)
    assert failing >= len(cases) // 2, (failing, len(cases))


def test_curvature_degree_guard():
    with pytest.raises(ValidationError) as exc:
        algebra_from_tables(QQ, {0: ["1"], 3: ["h"]}, "1",
                            {("h", "h"): []}, {}, curvature=[(QQ(1), "h")])
    assert any(f.identity == "curvature-degree"
               for f in exc.value.report.failures)


def test_all_builtins_validate(field):
    for name in BUILTIN_ALGEBRAS:
        assert validate(builtin_algebra(name, field)).ok, name


def test_product_of_fields_has_orthogonal_idempotents():
    k = builtin_algebra("k")
    P, pA, pC = product(k, k)
    assert P.dim == 2
    e1, e2 = P.basis_vec(0), P.basis_vec(1)
    assert P.mul(e1, e2) == {} and P.mul(e1, e1) == e1
    assert P.unit == {0: QQ(1), 1: QQ(1)}


def test_projection_to_factor_is_quasi_iso():
    D = dual_numbers()
    C = acyclic_two_dim(QQ)
    P, pA, _ = product(D, C)
    assert validate(P).ok
    f = pA.as_graded_map()
    assert is_quasi_iso(f, P.as_complex(), D.as_complex(), (-1, 1))
    # from_table and table() invert each other on a map between two spaces
    assert f.table() == {i: v for i, v in pA.f.items() if v}
    assert GradedMap.from_table(QQ, P.space, f.table(), 0, D.space) == f


def test_acyclic_two_dim_structure():
    C = acyclic_two_dim(QQ)
    x = C.idx(-1, "x")
    one = C.idx(0, "1")
    assert C.diff[x] == {one: QQ(1)}
    assert C.mult.get((x, x), {}) == {}
    assert all(c.betti == 0 for c in cohomology(C.as_complex()).values())


def test_endomorphism_algebra_of_point():
    V = GradedVectorSpace({0: ["m"]})
    E = endomorphism_algebra(V, {}, QQ)
    assert E.dim == 1 and validate(E).ok


def test_endomorphism_algebra_dims_and_dg():
    V = GradedVectorSpace({0: ["a"], 1: ["b"]})
    E = endomorphism_algebra(V, {}, QQ)
    dims = {n: E.space.dim(n) for n in E.space.degrees}
    assert dims == {-1: 1, 0: 2, 1: 1}
    assert not E.diff and validate(E).ok


def test_endomorphism_differential_squares_to_zero():
    M = acyclic_two_dim(QQ)
    E = endomorphism_algebra(M.space, M.diff, QQ)
    assert validate(E).ok and not E.curvature
    for i in range(E.dim):
        assert E.d(E.diff.get(i, {})) == {}


def test_opposite_of_commutative_is_equal():
    D = dual_numbers()
    O = opposite(D)
    assert O.mult == D.mult


def test_envelope_curvature_and_bimodule():
    # curved algebra: y in degree 1 with y^2 = z, twisted structure
    A = algebra_from_tables(
        QQ, {0: ["1"], 1: ["y"], 2: ["z"]}, "1",
        {("y", "y"): [(QQ(1), "z")], ("y", "z"): [], ("z", "y"): [],
         ("z", "z"): []}, {})
    Ax = twist_algebra(A, {A.idx(1, "y"): QQ(1)})
    assert Ax.curvature
    env = bimodule_envelope(Ax)
    # curvature is h (x) 1 - 1 (x) h
    assert env.curvature and validate(env).ok
    B = regular_bimodule(Ax, env)
    assert B.validate().ok
    # ... while A is not a module over itself when curved
    with pytest.raises(ValidationError):
        regular_module(Ax)


def test_envelope_curvature_zero_when_uncurved():
    env = bimodule_envelope(dual_numbers())
    assert env.curvature == {}


def test_compose_identity_and_inverse():
    A = builtin_algebra("kxk")
    ida = identity_morphism(A)
    assert compose_curved(ida, ida).f == ida.f
    # an inner twisted automorphism and its inverse
    C = acyclic_two_dim(QQ)
    xi = {C.idx(-1, "x"): QQ(1)} if False else {}
    m = identity_morphism(C)
    inv = invert_morphism(m)
    comp = compose_curved(m, inv)
    assert comp.a == {} and comp.f == identity_morphism(C).f


def test_inner_conjugation_is_curved_morphism():
    A = algebra_from_tables(
        QQ, {0: ["1"], 1: ["y"], 2: ["z"]}, "1",
        {("y", "y"): [(QQ(1), "z")], ("y", "z"): [], ("z", "y"): [],
         ("z", "z"): []}, {})
    xi = {A.idx(1, "y"): QQ(1)}
    Ax = twist_algebra(A, xi)
    f = {i: A.basis_vec(i) for i in range(A.dim)}
    m = CurvedMorphism(Ax, A, f, xi)      # (id, xi): A^xi -> A
    inv = invert_morphism(m)              # (id, -xi)
    assert inv.a == {k: -v for k, v in xi.items()}
    rt = compose_curved(m, inv)
    assert rt.a == {} and rt.f == identity_morphism(A).f


def test_composition_associative_on_seeded_morphisms():
    rng = random.Random(4)
    A = random_dg_algebra(QQ, 21)
    # three inner automorphisms (id, xi_i) from A^{xi} towers
    ones = A.by_degree.get(1, [])
    ms = []
    cur = A
    for step in range(3):
        xi = {i: QQ(rng.randint(-1, 1)) for i in ones}
        xi = {i: c for i, c in xi.items() if c}
        nxt = twist_algebra(cur, xi)
        f = {i: cur.basis_vec(i) for i in range(cur.dim)}
        ms.append(CurvedMorphism(nxt, cur, f, xi))
        cur = nxt
    p, q, r = ms
    lhs = compose_curved(compose_curved(p, q), r)
    rhs = compose_curved(p, compose_curved(q, r))
    assert lhs.f == rhs.f and lhs.a == rhs.a


def test_dual_regular_module_validates(field):
    for name in BUILTIN_ALGEBRAS:
        A = builtin_algebra(name, field)
        M = dual_regular_module(A)
        assert M.validate().ok, name


def test_free_module_validates():
    A = builtin_algebra("acyclic2")
    V = GradedVectorSpace({0: ["v0"], 1: ["v1"]})
    N = free_module(A, V, {})
    assert N.validate().ok
    assert N.dim == A.dim * 2


def test_random_algebras_validate():
    for seed in range(10):
        A = random_dg_algebra(QQ, seed)
        assert validate(A).ok, seed
        assert A.dim <= 4
        assert all(-1 <= d <= 1 for d in A.degree)


def test_identity_is_left_unit_for_composition():
    A = algebra_from_tables(
        QQ, {0: ["1"], 1: ["y"], 2: ["z"]}, "1",
        {("y", "y"): [(QQ(1), "z")], ("y", "z"): [], ("z", "y"): [],
         ("z", "z"): []}, {})
    xi = {A.idx(1, "y"): QQ(1)}
    Ax = twist_algebra(A, xi)
    g = CurvedMorphism(Ax, A, {i: A.basis_vec(i) for i in range(A.dim)}, xi)
    comp = compose_curved(identity_morphism(A), g)
    assert comp.f == g.f and comp.a == g.a


# The O(n) identities of the two validators: units, degrees and d^2.
# Each case changes one entry of a small valid algebra or module (or none)
# and pins the exact (identity, witness) pairs the validator reports.

def zero_products(field, components, diff_table, unit="1"):
    """Every product of two non-unit basis elements is zero."""
    return algebra_from_tables(field, components, unit, {}, diff_table,
                               check=False)


def small_dg():
    """1, e, f, g in degrees 0..3 with d(e) = f."""
    return zero_products(QQ, {0: ["1"], 1: ["e"], 2: ["f"], 3: ["g"]},
                         {"e": [(QQ(1), "f")]})


def curved_line():
    """1, h in degrees 0, 2 with h^2 = 0 and curvature h."""
    return algebra_from_tables(QQ, {0: ["1"], 2: ["h"]}, "1", {}, {},
                               curvature=[(QQ(1), "h")], check=False)


def curved_module():
    """m0, m1, m2 in degrees 0..2 over curved_line: d m0 = m1, d m1 = m2
    and h.m0 = m2, so d^2 = h. on every basis vector."""
    C = curved_line()
    u, h = C.idx(0, "1"), C.idx(2, "h")
    action = {(u, j): {j: QQ(1)} for j in range(3)}
    action[(h, 0)] = {2: QQ(1)}
    return C, CurvedModule(C, GradedVectorSpace({0: ["m0"], 1: ["m1"],
                                                 2: ["m2"]}),
                           action, {0: {1: QQ(1)}, 1: {2: QQ(1)}},
                           check=False)


def with_algebra(A, **changes):
    parts = dict(unit=A.unit, mult=A.mult, diff=A.diff,
                 curvature=A.curvature)
    parts.update(changes)
    return CurvedAlgebra(A.field, A.space, check=False, **parts)


def with_module(M, **changes):
    parts = dict(action=M.action, diff=M.diff)
    parts.update(changes)
    return CurvedModule(M.algebra, M.space, check=False, **parts)


def corrupted(case):
    """The object of one pinned case."""
    D, T = dual_numbers(), small_dg()
    C, P = curved_module()
    one, x = D.idx(0, "1"), D.idx(0, "x")
    e, f, g = T.idx(1, "e"), T.idx(2, "f"), T.idx(3, "g")
    h = C.idx(2, "h")
    return {
        "left-unit": lambda: with_algebra(
            D, mult=bumped(D.mult, (one, x), one)),
        "right-unit": lambda: with_algebra(
            D, mult=bumped(D.mult, (x, one), one)),
        "unit-degree": lambda: with_algebra(C, unit={0: QQ(1), h: QQ(1)}),
        "mult-degree": lambda: with_algebra(T, mult=bumped(T.mult, (e, e), g)),
        "diff-degree": lambda: with_algebra(D, diff=bumped(D.diff, x, x)),
        "d-squared": lambda: with_algebra(T, diff=bumped(T.diff, f, g)),
        "d-of-curvature": lambda: with_algebra(T, curvature={e: QQ(1)}),
        "curved-algebra": lambda: C,
        "unital-action": lambda: with_module(
            P, action=bumped(P.action, (0, 1), 1)),
        "module-d-squared": lambda: with_module(
            P, diff=bumped(P.diff, 1, 2, QQ(-1))),
        "action-degree": lambda: with_module(
            P, action=bumped(P.action, (h, 0), 1)),
        "mdiff-degree": lambda: with_module(P, diff=bumped(P.diff, 0, 2)),
        "curved-module": lambda: P,
    }[case]()


PINNED_IDENTITIES = {
    "left-unit": [("left-unit", (1,)), ("associativity", (0, 0, 1)),
                  ("associativity", (0, 1, 1)),
                  ("associativity", (1, 0, 1))],
    "right-unit": [("right-unit", (1,)), ("associativity", (1, 0, 0)),
                   ("associativity", (1, 0, 1)),
                   ("associativity", (1, 1, 0))],
    "unit-degree": [("unit-degree", (1,)), ("left-unit", (0,)),
                    ("right-unit", (0,))],
    "mult-degree": [("mult-degree", (1, 1, 3))],
    "diff-degree": [("diff-degree", (1, 1)), ("d-squared", (1,))],
    "d-squared": [("d-squared", (1,))],
    "d-of-curvature": [("curvature-degree", (1,)), ("d-of-curvature", ())],
    "curved-algebra": [],
    "unital-action": [("unital-action", (1,)),
                      ("action-associativity", (0, 0, 1)),
                      ("module-leibniz", (0, 0)),
                      ("module-leibniz", (0, 1))],
    "module-d-squared": [("module-d-squared", (0,))],
    "action-degree": [("action-degree", (1, 0, 1)),
                      ("module-leibniz", (1, 0)),
                      ("module-d-squared", (0,))],
    "mdiff-degree": [("mdiff-degree", (0, 2))],
    "curved-module": [],
}


@pytest.mark.parametrize("case", sorted(PINNED_IDENTITIES))
def test_linear_identities_are_pinned(case):
    rep = corrupted(case).validate()
    assert [(f.identity, f.witness) for f in rep.failures] \
        == PINNED_IDENTITIES[case]
