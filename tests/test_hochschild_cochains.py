"""`hochschild_cochains`: the cochain complex `koszul-check` builds.

It must be the complex of `hochschild_direct` (same basis, same
differential, and that differential certified against the twisted bar),
and `koszul-check` must read nothing else: no cup product, no
`TruncatedTensorAlgebra`, and no word of length W.  It builds the
cochains through word length W-1 only, and its H^0..H^{W-2} must still
be those of `hochschild_direct` at the full truncation W.
"""

import io
from contextlib import redirect_stdout

import pytest

from bardual import bar
from bardual.bar import (hochschild_cochains, hochschild_direct,
                         hochschild_via_twist)
from bardual.catalog import BUILTIN_ALGEBRAS, builtin_algebra, builtin_module
from bardual.cli import main
from bardual.fields import GF, QQ
from bardual.graded import cohomology

FIELDS = {"Q": QQ, "F7": GF(7)}


def _pairs(field):
    """(algebra name, module name, A, M) for every builtin module."""
    out = []
    for an in sorted(BUILTIN_ALGEBRAS):
        A = builtin_algebra(an, field)
        for mn in ("k", "A", "Adual"):
            try:
                out.append((an, mn, A, builtin_module(A, an, mn)))
            except ValueError:
                pass       # no one-dimensional module k
    return out


@pytest.mark.parametrize("fname", sorted(FIELDS))
def test_cochains_are_the_complex_of_hochschild_direct(fname):
    for an, mn, A, M in _pairs(FIELDS[fname]):
        for W in range(5):
            H = hochschild_cochains(A, M, W, check=False)
            E = hochschild_direct(A, M, W, check=False)
            T = hochschild_via_twist(A, W, M=M, check=False)
            case = (fname, an, mn, W)
            assert H.word_basis.basis == E.basis == T.basis, case
            assert H.diff == E.diff == T.diff, case
            assert H.gens == E.gens and H.delta == E.delta, case
            C, D = H.as_complex(), E.as_complex()
            assert C.space == D.space and C.d.blocks == D.d.blocks, case


@pytest.mark.parametrize("an,mn,W", [("upper_tri_2", "Adual", 7),
                                      ("dual_numbers", "k", 6)])
def test_cochains_equal_the_twist_on_the_koszul_f7_inputs(an, mn, W):
    # the words of length 5..7 that koszul-check reads over F_7; the
    # test above stops at W = 4
    A = builtin_algebra(an, FIELDS["F7"])
    M = builtin_module(A, an, mn)
    H = hochschild_cochains(A, M, W, check=False)
    T = hochschild_via_twist(A, W, M=M, check=False)
    assert H.word_basis.basis == T.basis
    assert H.diff == T.diff


def _koszul_values(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    values = {}
    for line in out.getvalue().splitlines():
        key, _, val = line.strip().partition(" = ")
        if key.startswith("H."):
            values[int(key[2:])] = int(val)
    return code, values


@pytest.mark.parametrize("fname", sorted(FIELDS))
@pytest.mark.parametrize("W", [2, 3, 5, 6])
def test_koszul_check_prints_the_cohomology_of_hochschild_direct(W, fname):
    ran = 0
    for an, mn, A, M in _pairs(FIELDS[fname]):
        code, got = _koszul_values(["koszul-check", "--algebra", an,
                                    "--module", mn, "--field", fname,
                                    "--truncation", str(W)])
        if code != 0:
            assert an == "acyclic2" and code == 2, (an, mn, code)
            continue
        coh = cohomology(hochschild_direct(A, M, W, check=False)
                         .as_complex(), (0, W - 2))
        assert got == {n: coh[n].betti for n in coh}, (an, mn)
        ran += 1
    assert ran == 14       # every ordinary builtin pair passes


def test_koszul_check_builds_no_product(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("koszul-check built the cup product")
    monkeypatch.setattr(bar, "hochschild_direct", refuse)
    monkeypatch.setattr("bardual.cli.hochschild_direct", refuse)
    monkeypatch.setattr(bar.TruncatedTensorAlgebra, "__init__", refuse)
    assert main(["koszul-check", "--algebra", "upper_tri_2", "--module",
                 "Adual", "--field", "F7", "--truncation", "5"]) == 0
    out = capsys.readouterr().out
    assert "[ok ] H-equals-Ext.3" in out and "result: PASS" in out


def test_koszul_check_builds_no_word_of_length_w(monkeypatch, capsys):
    built = []

    def record(*args, **kwargs):
        H = hochschild_cochains(*args, **kwargs)
        built.append(H.word_basis.W)
        return H
    monkeypatch.setattr("bardual.cli.hochschild_cochains", record)
    for W in (2, 5):
        assert main(["koszul-check", "--algebra", "upper_tri_2", "--module",
                     "Adual", "--field", "F7", "--truncation", str(W)]) == 0
    assert "result: PASS" in capsys.readouterr().out
    assert built == [1, 4]      # words through length W-1 only
