"""Pinned structure tables of `algebras.free_module`, keyed by position.

For every builtin algebra A over Q and over F_7, and for two graded
spaces V, each with a nonzero square-zero differential drawn by
`sampling.random_square_zero`, the tables of free_module(A, V, dV) are
serialized by flat index, with no basis label: the degree of each flat
basis element in order, the action {(algebra index, module index):
column} and the differential {module index: column}.  So a change of
the labels alone leaves the digests as they are, while a change of the
flat order or of any constant does not.  The digests must equal those
in `tests/expected_free_module.json`.

Two more families are pinned the same way, over Q and F_7:
`algebras.endomorphism_algebra` on the same spaces with the same dV,
plus one degree-1 map with d o d != 0 (so the curvature is pinned), by
degrees, unit, product, differential and curvature; and the blocks of
`sampling.random_acyclic_complex` for seeds 0-5; and the blocks of
`graded.tensor_complex`, `hom_complex` and `dual_complex` on seeded
complexes whose differentials carry constants other than 1, so that a
Koszul sign or a transposition that keeps the Betti numbers still moves
a digest.

    python tests/test_free_module_pins.py   # print the digests as JSON
"""

import hashlib
import json
import pathlib
import random

import pytest

from bardual.algebras import endomorphism_algebra, free_module
from bardual.catalog import BUILTIN_ALGEBRAS, builtin_algebra
from bardual.graded import (Complex, GradedMap, GradedVectorSpace,
                            dual_complex, hom_complex, tensor_complex)
from bardual.sampling import (random_acyclic_complex, random_space,
                              random_square_zero)
from test_tables import FIELDS

EXPECTED = pathlib.Path(__file__).resolve().parent / \
    "expected_free_module.json"
SPACES = {
    "V1": (GradedVectorSpace({-1: ["a", "b"], 0: ["c", "d"]}), 4),
    "V2": (GradedVectorSpace({0: ["p"], 1: ["q", "r"], 2: ["s", "t"]}), 4),
}
# on V2: p -> q + r, q -> s, r -> 2t, so d o d sends p to s + 2t
CURVED = {0: {1: 1, 2: 1}, 1: {3: 1}, 2: {4: 2}}
CONE_SEEDS = range(6)
COMPLEX_SEEDS = range(20)


def _vec(v):
    return sorted((i, str(c)) for i, c in v.items())


def _digest(obj):
    blob = json.dumps(obj, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _positional(N):
    return {"degrees": N.degree,
            "action": sorted((i, j, _vec(v)) for (i, j), v in N.action.items()),
            "diff": sorted((i, _vec(v)) for i, v in N.diff.items())}


def _positional_algebra(E):
    return {"degrees": E.degree, "unit": _vec(E.unit),
            "mult": sorted((i, j, _vec(v)) for (i, j), v in E.mult.items()),
            "diff": sorted((i, _vec(v)) for i, v in E.diff.items()),
            "curvature": _vec(E.curvature)}


def _positional_complex(C):
    return {"degrees": [n for n, _ in C.space.flat[0]],
            "blocks": sorted((n, [_vec(col) for col in m.columns()])
                             for n, m in C.d.blocks.items())}


def digests(field_name, name):
    field = FIELDS[field_name]
    A = builtin_algebra(name, field)
    out = {}
    for vname, (V, seed) in SPACES.items():
        dV = random_square_zero(field, V, random.Random(seed))
        assert dV
        N = free_module(A, V, dV, check=False)
        out[f"{field_name}/{name}/{vname}"] = _digest(_positional(N))
    return out


def end_digests(field_name):
    field = FIELDS[field_name]
    out = {}
    for vname, (V, seed) in SPACES.items():
        dV = random_square_zero(field, V, random.Random(seed))
        E = endomorphism_algebra(V, dV, field)
        out[f"{field_name}/End/{vname}"] = _digest(_positional_algebra(E))
    V = SPACES["V2"][0]
    d = {i: {k: field(c) for k, c in col.items()} for i, col in CURVED.items()}
    E = endomorphism_algebra(V, d, field)
    assert E.curvature
    out[f"{field_name}/End/V2-curved"] = _digest(_positional_algebra(E))
    return out


def cone_digests(field_name):
    field = FIELDS[field_name]
    return {f"{field_name}/cone/{seed}":
            _digest(_positional_complex(random_acyclic_complex(field, seed)))
            for seed in CONE_SEEDS}


def _seeded_complex(field, rng):
    """A random complex on up to 4 basis vectors in degrees -1..2, each
    matched pair carrying a constant drawn from +-1, +-2, 3."""
    V = random_space(rng, max_dim=4, lo=-1, hi=2)
    d = {i: {k: c * field(rng.choice((1, -1, 2, -2, 3)))
             for k, c in col.items()}
         for i, col in random_square_zero(field, V, rng).items()}
    return Complex(field, V, GradedMap.from_table(field, V, d, 1))


def complex_digests(field_name):
    field = FIELDS[field_name]
    out = {}
    for seed in COMPLEX_SEEDS:
        rng = random.Random(seed)
        C, D = _seeded_complex(field, rng), _seeded_complex(field, rng)
        for what, X in (("tensor", tensor_complex(C, D)),
                        ("hom", hom_complex(C, D)),
                        ("dual", dual_complex(C))):
            out[f"{field_name}/complex/{what}/{seed}"] = \
                _digest(_positional_complex(X))
    return out


def _check(got, prefix, what):
    expected = json.loads(EXPECTED.read_text())
    want = {c: d for c, d in expected.items() if c.startswith(prefix)}
    assert sorted(got) == sorted(want)
    changed = sorted(c for c in got if got[c] != want[c])
    assert not changed, f"{what} changed: {changed}"


CASES = [(f, n) for f in FIELDS for n in sorted(BUILTIN_ALGEBRAS)]


@pytest.mark.parametrize("field_name,name", CASES,
                         ids=[f"{f}-{n}" for f, n in CASES])
def test_free_module_tables_are_pinned_by_position(field_name, name):
    _check(digests(field_name, name), f"{field_name}/{name}/",
           "free_module tables")


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_endomorphism_tables_are_pinned_by_position(field_name):
    _check(end_digests(field_name), f"{field_name}/End/",
           "endomorphism_algebra tables")


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_acyclic_cone_blocks_are_pinned_by_position(field_name):
    _check(cone_digests(field_name), f"{field_name}/cone/",
           "random_acyclic_complex blocks")


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_complex_constructions_are_pinned_by_position(field_name):
    _check(complex_digests(field_name), f"{field_name}/complex/",
           "tensor, hom and dual complex blocks")


if __name__ == "__main__":
    out = {}
    for f, n in CASES:
        out.update(digests(f, n))
    for f in FIELDS:
        out.update(end_digests(f))
        out.update(cone_digests(f))
        out.update(complex_digests(f))
    print(json.dumps(out, indent=1, sort_keys=True))
