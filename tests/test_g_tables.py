"""Pinned structure tables of the G side of the duality.

For every builtin algebra and each of its modules M among k, A and
Adual, over Q and over F_7, the tables of functor_G(F(M), M) at W = 3 and
of morita_prime_F(M, M2) and morita_prime_G(F'(M), M2), with M2 the
two-dimensional space in degree 0, are serialized by basis label with
the serializers of `test_tables.py` and hashed.  The tables of
morita_prime_G are also serialized by flat index, with no basis label
(`test_free_module_pins._positional`), so that a change of its labels
alone leaves that digest as it is.  The digests must equal those in
`tests/expected_g_tables.json`.

    python tests/test_g_tables.py   # print the digests as JSON
"""

import json
import pathlib

import pytest

from bardual.catalog import BUILTIN_ALGEBRAS, builtin_algebra
from bardual.duality import (functor_F, functor_G, morita_prime_F,
                             morita_prime_G)
from bardual.graded import GradedVectorSpace
from test_free_module_pins import _positional
from test_tables import FIELDS, W, _digest, _modules, module_tables

EXPECTED = pathlib.Path(__file__).resolve().parent / "expected_g_tables.json"
M2 = GradedVectorSpace({0: ["m1", "m2"]})


def constructions(field_name, name):
    """{case id: tables} for one builtin algebra over one field."""
    A = builtin_algebra(name, FIELDS[field_name])
    out = {}
    for m, M in _modules(A, name).items():
        p = f"{field_name}/{name}/{m}/"
        _, FM = functor_F(M, M, W, check=False)
        out[p + "functor_G"] = module_tables(functor_G(FM, M, check=False))
        _, FpM = morita_prime_F(M, M2, check=False)
        out[p + "morita_prime_F"] = module_tables(FpM)
        GpM = morita_prime_G(FpM, M2, check=False)
        out[p + "morita_prime_G"] = module_tables(GpM)
        out[p + "morita_prime_G.positional"] = _positional(GpM)
    return out


def digests(field_name, name):
    return {case: _digest(t)
            for case, t in constructions(field_name, name).items()}


CASES = [(f, n) for f in FIELDS for n in sorted(BUILTIN_ALGEBRAS)]


@pytest.mark.parametrize("field_name,name", CASES,
                         ids=[f"{f}-{n}" for f, n in CASES])
def test_g_side_tables_are_pinned(field_name, name):
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
