"""Sparse vectors over an exact field: dicts {index: coefficient}.

Invariant maintained throughout: zero coefficients are never stored, so
the empty dict is *the* zero vector and dict equality is vector equality.
"""

from __future__ import annotations


def vec(*pairs):
    out = {}
    for i, c in pairs:
        if c:
            out[i] = c
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
