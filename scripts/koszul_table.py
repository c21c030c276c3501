#!/usr/bin/env python3
"""Print, for a few (algebra, module) pairs, the cohomology of the reduced
Hochschild algebra next to the Ext groups computed by the independent
projective-resolution oracle.  The two columns agreeing is the desk-scale
form of Koszul duality this package certifies.  Every pair runs over Q
and over F_7.  Exits 1 if any pair disagrees on either field.

Usage: python3 scripts/koszul_table.py [W]
"""

import sys
import time

from bardual.bar import hochschild_cochains
from bardual.catalog import builtin_algebra, builtin_module
from bardual.fields import GF, QQ
from bardual.graded import cohomology
from bardual.morita import OrdinaryAlgebra, OrdinaryModule, ext_oracle

FIELDS = [QQ, GF(7)]
CASES = [
    ("dual_numbers", "k"),
    ("upper_tri_2", "Adual"),
    ("upper_tri_2", "k"),
    ("kxk", "k"),
    ("mat2", "A"),
]


def main():
    W = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    print(f"truncation W = {W}, stable window n <= {W - 2}\n")
    mismatches = 0
    for field in FIELDS:
        for an, mn in CASES:
            t0 = time.monotonic()
            A = builtin_algebra(an, field)
            M = builtin_module(A, an, mn)
            C = hochschild_cochains(A, M, W, check=False).as_complex()
            coh = cohomology(C, (0, W - 2))
            Ao = OrdinaryAlgebra(A)
            Mo = OrdinaryModule.from_curved(Ao, M)
            ext = ext_oracle(Ao, Mo, Mo, W - 2)
            hs = [coh[n].betti for n in range(W - 1)]
            ok = "ok" if hs == ext else "MISMATCH"
            mismatches += hs != ext
            dt = time.monotonic() - t0
            print(f"{an} with M = {mn} over {field.name}   ({dt:.2f}s)  "
                  f"[{ok}]")
            print(f"  dim H^n(E) : {hs}")
            print(f"  dim Ext^n  : {ext}\n")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
