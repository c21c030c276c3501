"""Golden `--report` files for the builtin scenario sweep.

Every run of `scripts/run_all_scenarios.py --truncation 3` must write a
machine report byte-identical to the one in `tests/expected_reports/`,
named `<scenario>-<algebra>.report`.
"""

import importlib.util
import pathlib

import pytest

from bardual.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "tests" / "expected_reports"


def _sweep_runs():
    path = ROOT / "scripts" / "run_all_scenarios.py"
    spec = importlib.util.spec_from_file_location("run_all_scenarios", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.scenario_runs(3)


RUNS = _sweep_runs()


def test_sweep_has_every_golden_report():
    names = {f"{argv[0]}-{argv[2]}.report" for argv in RUNS}
    assert len(RUNS) == 27
    assert names == {p.name for p in EXPECTED.glob("*.report")}


@pytest.mark.parametrize("argv", RUNS, ids=[f"{a[0]}-{a[2]}" for a in RUNS])
def test_report_is_byte_identical(argv, tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert main(argv + ["--report", str(out)]) == 0
    capsys.readouterr()
    golden = EXPECTED / f"{argv[0]}-{argv[2]}.report"
    assert out.read_bytes() == golden.read_bytes()
