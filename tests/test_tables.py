"""Pinned structure tables of every bar-type construction.

For every builtin algebra and each of its modules k, A and Adual, at
truncation W = 3 over Q and over F_7, the basis, unit, product or
action, differential and curvature of each construction are serialized
by basis label (so the result does not depend on basis order) and
hashed.  The digests must equal those in `tests/expected_tables.json`,
which were captured from the word-by-word builders before they were
routed through one word basis; that file is not regenerated.

    python tests/test_tables.py   # print the digests as JSON
"""

import hashlib
import json
import pathlib

import pytest

from bardual.bar import (bar_resolution_module, fake_augmentation,
                         hochschild_direct, hochschild_via_twist,
                         identity_delta, reduced_bar, unreduced_bar)
from bardual.catalog import BUILTIN_ALGEBRAS, builtin_algebra, builtin_module
from bardual.duality import functor_F, right_hochschild_action
from bardual.fields import GF, QQ

W = 3
FIELDS = {"Q": QQ, "F7": GF(7)}
MODULES = ("k", "A", "Adual")
EXPECTED = pathlib.Path(__file__).resolve().parent / "expected_tables.json"


def _vec(basis, v):
    return sorted((repr(basis[i][1]), str(c)) for i, c in v.items())


def _table(left, right, target, table):
    """{(i, j): vec} with i, j, vec read through their basis labels."""
    return sorted((repr(left[i][1]), repr(right[j][1]), _vec(target, v))
                  for (i, j), v in table.items())


def _cols(basis, table):
    return sorted((repr(basis[i][1]), _vec(basis, v))
                  for i, v in table.items())


def algebra_tables(X):
    return {"basis": sorted(repr(bl) for bl in X.basis),
            "unit": _vec(X.basis, X.unit),
            "mult": _table(X.basis, X.basis, X.basis, X.mult),
            "diff": _cols(X.basis, X.diff),
            "curvature": _vec(X.basis, X.curvature)}


def module_tables(N):
    A = N.algebra
    return {"algebra": algebra_tables(A),
            "basis": sorted(repr(bl) for bl in N.basis),
            "action": _table(A.basis, N.basis, N.basis, N.action),
            "diff": _cols(N.basis, N.diff)}


def _digest(tables):
    blob = json.dumps(tables, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _modules(A, name):
    out = {}
    for m in MODULES:
        try:
            out[m] = builtin_module(A, name, m)
        except ValueError:
            pass
    return out


def constructions(field_name, name):
    """{case id: tables} for one builtin algebra over one field."""
    A = builtin_algebra(name, FIELDS[field_name])
    aug = fake_augmentation(A)
    HA = hochschild_via_twist(A, W, check=False)
    pre = f"{field_name}/{name}/"
    out = {
        pre + "reduced_bar": algebra_tables(reduced_bar(A, W, check=False)),
        pre + "reduced_bar.coeff": algebra_tables(reduced_bar(
            A, W, coeff=aug.algebra, delta=identity_delta(aug.algebra),
            aug=aug, check=False)),
        pre + "unreduced_bar": algebra_tables(unreduced_bar(A, W,
                                                            check=False)),
        pre + "hochschild_via_twist": algebra_tables(HA),
        pre + "hochschild_via_twist.unreduced": algebra_tables(
            hochschild_via_twist(A, W, reduced=False, check=False)),
    }
    for m, M in _modules(A, name).items():
        p = f"{pre}{m}/"
        out[p + "hochschild_direct"] = algebra_tables(
            hochschild_direct(A, M, W, check=False))
        E = hochschild_via_twist(A, W, M=M, check=False)
        out[p + "hochschild_via_twist"] = algebra_tables(E)
        for reduced in (False, True):
            _, R = bar_resolution_module(A, M, W, reduced=reduced,
                                         check=False)
            out[p + f"bar_resolution_module.reduced={reduced}"] = \
                module_tables(R)
        _, FN = functor_F(M, M, W, E=E, check=False)
        out[p + "functor_F"] = module_tables(FN)
        out[p + "right_hochschild_action"] = _table(
            HA.basis, FN.basis, FN.basis, right_hochschild_action(FN, HA))
    return out


def digests(field_name, name):
    return {case: _digest(t)
            for case, t in constructions(field_name, name).items()}


CASES = [(f, n) for f in FIELDS for n in sorted(BUILTIN_ALGEBRAS)]


@pytest.mark.parametrize("field_name,name", CASES,
                         ids=[f"{f}-{n}" for f, n in CASES])
def test_structure_tables_are_pinned(field_name, name):
    expected = json.loads(EXPECTED.read_text())
    want = {c: d for c, d in expected.items()
            if c.startswith(f"{field_name}/{name}/")}
    got = digests(field_name, name)
    assert sorted(got) == sorted(want)
    changed = sorted(c for c in got if got[c] != want[c])
    assert not changed, f"structure tables changed: {changed}"


if __name__ == "__main__":
    out = {}
    for f, n in CASES:
        out.update(digests(f, n))
    print(json.dumps(out, indent=1, sort_keys=True))
