"""Golden `--report` files for the ordinary-algebra scenarios over Q, F_5
and F_7.

`simples` and `morita --seed 1` run on the ordinary builtins over F_5
and F_7 (over Q they are pinned by `test_reports.py`), and
`ext --truncation 3` with the modules k, A and Adual over Q, F_5 and F_7.
The sample file `upper_tri_3.alg` fixes its own field and runs once per
scenario, `ext` with A and Adual.  A module `builtin_module` refuses (k
over mat2) is not pinned: `ext` refuses it with exit 2, which
`test_refusal_sweep.py` covers.  Each run must write a report
byte-identical to `tests/expected_ordinary_reports/<name>.report`.
"""

import pathlib

import pytest

from bardual.catalog import BUILTIN_ALGEBRAS, builtin_algebra, builtin_module
from bardual.cli import main
from bardual.morita import OrdinaryAlgebra, RefusedInput

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "tests" / "expected_ordinary_reports"
# relative, because the report records the path; the runs start in ROOT
UPPER_TRI_3 = "scripts/sample_algebras/upper_tri_3.alg"


def is_ordinary(alg):
    try:
        OrdinaryAlgebra(builtin_algebra(alg))
    except RefusedInput:
        return False
    return True


def has_module(alg, mod):
    try:
        builtin_module(builtin_algebra(alg), alg, mod)
    except ValueError:
        return False
    return True


def ordinary_runs():
    """(report name, CLI arguments) for every pinned run."""
    runs = []
    for alg in filter(is_ordinary, sorted(BUILTIN_ALGEBRAS)):
        for fld in ("F5", "F7"):
            base = ["--algebra", alg, "--field", fld]
            runs.append((f"simples-{alg}-{fld}", ["simples"] + base))
            runs.append((f"morita-{alg}-{fld}",
                         ["morita"] + base + ["--seed", "1"]))
        for fld in ("Q", "F5", "F7"):
            runs += [(f"ext-{alg}-{fld}-{mod}",
                      ["ext", "--algebra", alg, "--field", fld,
                       "--module", mod, "--truncation", "3"])
                     for mod in ("k", "A", "Adual") if has_module(alg, mod)]
    base = ["--algebra", UPPER_TRI_3]
    runs.append(("simples-upper_tri_3", ["simples"] + base))
    runs.append(("morita-upper_tri_3", ["morita"] + base + ["--seed", "1"]))
    for mod in ("A", "Adual"):
        runs.append((f"ext-upper_tri_3-{mod}",
                     ["ext"] + base + ["--module", mod, "--truncation", "3"]))
    return runs


RUNS = ordinary_runs()


def test_every_run_has_a_golden_report():
    assert {f"{name}.report" for name, _ in RUNS} == \
        {p.name for p in EXPECTED.glob("*.report")}


@pytest.mark.parametrize("name,argv", RUNS, ids=[n for n, _ in RUNS])
def test_report_is_byte_identical(name, argv, tmp_path, capsys,
                                  monkeypatch):
    monkeypatch.chdir(ROOT)
    out = tmp_path / "report.txt"
    assert main(argv + ["--report", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (EXPECTED / f"{name}.report").read_bytes()
