"""The builtin test algebras and their standard modules.

Names follow the CLI: k, kxk, dual_numbers, upper_tri_2, acyclic2, mat2.
Module names per algebra: "A" (left regular), "Adual" (linear dual with
the left translation action, the injective cogenerator in the ordinary
case) and, where a one-dimensional dg module exists, "k" via a canonical
algebra surjection.  For kxk and upper_tri_2 the surjection chosen is the
projection complementary to the block the fake augmentation picks, which
is what makes the unreduced/reduced comparison isomorphism come out on
the nose.
"""

from __future__ import annotations

from .algebras import (CurvedAlgebra, CurvedModule, acyclic_two_dim,
                       algebra_from_tables, dual_regular_module,
                       regular_module)
from .fields import QQ
from .graded import GradedVectorSpace


def _k(field):
    return algebra_from_tables(field, {0: ["1"]}, "1", {}, {})


def _kxk(field):
    one = field.one
    return algebra_from_tables(
        field, {0: ["e1", "e2"]}, [(one, "e1"), (one, "e2")],
        {("e1", "e1"): [(one, "e1")], ("e2", "e2"): [(one, "e2")],
         ("e1", "e2"): [], ("e2", "e1"): []},
        {})


def _dual_numbers(field):
    return algebra_from_tables(field, {0: ["1", "x"]}, "1",
                               {("x", "x"): []}, {})


def _upper_tri_2(field):
    one = field.one
    t = {
        ("e11", "e11"): [(one, "e11")], ("e11", "e12"): [(one, "e12")],
        ("e11", "e22"): [], ("e12", "e11"): [], ("e12", "e12"): [],
        ("e12", "e22"): [(one, "e12")], ("e22", "e11"): [],
        ("e22", "e12"): [], ("e22", "e22"): [(one, "e22")],
    }
    return algebra_from_tables(field, {0: ["e11", "e12", "e22"]},
                               [(one, "e11"), (one, "e22")], t, {})


def _mat2(field):
    one = field.one
    labels = ["e11", "e12", "e21", "e22"]
    t = {}
    for a in labels:
        for b in labels:
            i, j = int(a[1]), int(a[2])
            k, l = int(b[1]), int(b[2])
            t[(a, b)] = [(one, f"e{i}{l}")] if j == k else []
    return algebra_from_tables(field, {0: labels},
                               [(one, "e11"), (one, "e22")], t, {})


BUILTIN_ALGEBRAS = {
    "k": _k,
    "kxk": _kxk,
    "dual_numbers": _dual_numbers,
    "upper_tri_2": _upper_tri_2,
    "acyclic2": acyclic_two_dim,
    "mat2": _mat2,
}


def builtin_algebra(name: str, field=QQ) -> CurvedAlgebra:
    try:
        return BUILTIN_ALGEBRAS[name](field)
    except KeyError:
        raise ValueError(f"unknown builtin algebra {name!r}; "
                         f"choices: {sorted(BUILTIN_ALGEBRAS)}") from None


# the one-dimensional module k of each algebra that has one: the basis
# element that acts on it by 1, every other one acting by 0
_K_LABEL = {"k": "1", "dual_numbers": "1", "kxk": "e2", "upper_tri_2": "e22"}


def builtin_module(A: CurvedAlgebra, alg_name: str,
                   mod_name: str) -> CurvedModule:
    if mod_name == "A":
        return regular_module(A)
    if mod_name == "Adual":
        return dual_regular_module(A)
    if mod_name == "k":
        if alg_name not in _K_LABEL:
            raise ValueError(f"{alg_name} has no one-dimensional dg module")
        e = A.idx(0, _K_LABEL[alg_name])
        return CurvedModule(A, GradedVectorSpace({0: ["m"]}),
                            {(e, 0): {0: A.field.one}}, {})
    raise ValueError(f"unknown builtin module {mod_name!r}; "
                     f"choices: k, A, Adual")


def default_module_name(alg_name: str) -> str:
    """The canonical coefficient module used by CLI scenarios."""
    return "k" if alg_name in _K_LABEL else "A"
