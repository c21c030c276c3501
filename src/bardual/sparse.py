"""Sparse vectors over an exact field: dicts {index: coefficient}.

Invariant maintained throughout: zero coefficients are never stored, so
the empty dict is *the* zero vector and dict equality is vector equality.

A structure table is a dict of such vectors: a linear map keyed by basis
index (a differential, a morphism), or a bilinear one keyed by index
pairs (a product, an action).  Every table is applied by one of four
kernels, which read only the entries that can be nonzero:

* vapply(table, x)     = sum c_i table[i];
* vleft(table, x, j)   = sum c_i table[(i, j)], x times basis element j;
* vright(table, i, y)  = sum c_j table[(i, j)], basis element i times y;
* vbilinear(table, x, y) = sum c_i d_j table[(i, j)].

A product with a basis element passes its index, so no coefficient is
multiplied by one.
"""

from __future__ import annotations


def vec(*pairs):
    """sum c e_i over the (i, c) pairs; an index may repeat."""
    out = {}
    for i, c in pairs:
        if c:
            viadd(out, {i: c})
    return out


def vadd(x: dict, y: dict) -> dict:
    out = dict(x)
    for i, c in y.items():
        s = out.get(i)
        if s is None:
            out[i] = c
        else:
            s = s + c
            if s:
                out[i] = s
            else:
                del out[i]
    return out


def viadd(acc: dict, y: dict, c=None) -> None:
    """In-place acc += c*y (c omitted means 1)."""
    for i, v in y.items():
        if c is not None:
            v = c * v
            if not v:
                continue
        s = acc.get(i)
        if s is None:
            acc[i] = v
        else:
            s = s + v
            if s:
                acc[i] = s
            else:
                del acc[i]


def vscale(c, x: dict) -> dict:
    if not c:
        return {}
    out = {}
    for i, v in x.items():
        w = c * v
        if w:
            out[i] = w
    return out


def vneg(x: dict) -> dict:
    return {i: -v for i, v in x.items()}


def vapply(table: dict, x: dict) -> dict:
    """sum c_i table[i] over the terms c_i e_i of x."""
    out = {}
    for i, c in x.items():
        col = table.get(i)
        if col:
            viadd(out, col, c)
    return out


def vleft(table: dict, x: dict, j) -> dict:
    """sum c_i table[(i, j)]: x times the basis element j."""
    out = {}
    for i, c in x.items():
        col = table.get((i, j))
        if col:
            viadd(out, col, c)
    return out


def vright(table: dict, i, y: dict) -> dict:
    """sum c_j table[(i, j)]: the basis element i times y."""
    out = {}
    for j, c in y.items():
        col = table.get((i, j))
        if col:
            viadd(out, col, c)
    return out


def vbilinear(table: dict, x: dict, y: dict) -> dict:
    """sum c_i d_j table[(i, j)]: x times y."""
    out = {}
    for i, ci in x.items():
        for j, cj in y.items():
            col = table.get((i, j))
            if col:
                viadd(out, col, ci * cj)
    return out
