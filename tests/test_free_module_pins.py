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

    python tests/test_free_module_pins.py   # print the digests as JSON
"""

import hashlib
import json
import pathlib
import random

import pytest

from bardual.algebras import free_module
from bardual.catalog import BUILTIN_ALGEBRAS, builtin_algebra
from bardual.graded import GradedVectorSpace
from bardual.sampling import random_square_zero
from test_tables import FIELDS

EXPECTED = pathlib.Path(__file__).resolve().parent / \
    "expected_free_module.json"
SPACES = {
    "V1": (GradedVectorSpace({-1: ["a", "b"], 0: ["c", "d"]}), 4),
    "V2": (GradedVectorSpace({0: ["p"], 1: ["q", "r"], 2: ["s", "t"]}), 4),
}


def _positional(N):
    def vec(v):
        return sorted((i, str(c)) for i, c in v.items())
    return {"degrees": N.degree,
            "action": sorted((i, j, vec(v)) for (i, j), v in N.action.items()),
            "diff": sorted((i, vec(v)) for i, v in N.diff.items())}


def digests(field_name, name):
    field = FIELDS[field_name]
    A = builtin_algebra(name, field)
    out = {}
    for vname, (V, seed) in SPACES.items():
        dV = random_square_zero(field, V, random.Random(seed))
        assert not dV.is_zero()
        N = free_module(A, V, dV, check=False)
        blob = json.dumps(_positional(N), separators=(",", ":"))
        out[f"{field_name}/{name}/{vname}"] = \
            hashlib.sha256(blob.encode()).hexdigest()
    return out


CASES = [(f, n) for f in FIELDS for n in sorted(BUILTIN_ALGEBRAS)]


@pytest.mark.parametrize("field_name,name", CASES,
                         ids=[f"{f}-{n}" for f, n in CASES])
def test_free_module_tables_are_pinned_by_position(field_name, name):
    expected = json.loads(EXPECTED.read_text())
    want = {c: d for c, d in expected.items()
            if c.startswith(f"{field_name}/{name}/")}
    got = digests(field_name, name)
    assert sorted(got) == sorted(want)
    changed = sorted(c for c in got if got[c] != want[c])
    assert not changed, f"free_module tables changed: {changed}"


if __name__ == "__main__":
    out = {}
    for f, n in CASES:
        out.update(digests(f, n))
    print(json.dumps(out, indent=1, sort_keys=True))
