"""Every CLI run ends in a pass, a named failed check or a one-line refusal.

The grid is every scenario over the builtin algebras, the sample algebra
files and a quaternion algebra (not split over Q), over Q, F_3 and F_7,
with the modules k, A and Adual and truncations 0 and 2.  A run counts
once per distinct input: each scenario gets only the options
`cli.SCENARIOS` says it reads, and a file algebra fixes its own field.  File
algebras run at truncation 0 only: past it they add no refusal path, only
the builtins' computations on a larger algebra (`ext` on upper_tri_3
with Adual at W = 2 takes about 0.16 s of CLI wall time, half of it
start-up, on a 2-vCPU KVM guest).
"""

import io
import pathlib
import traceback
from contextlib import redirect_stderr, redirect_stdout

import pytest

from bardual.catalog import BUILTIN_ALGEBRAS
from bardual.cli import OPTIONS, SCENARIOS, main

ROOT = pathlib.Path(__file__).resolve().parent.parent
SAMPLES = sorted((ROOT / "scripts" / "sample_algebras").glob("*.alg"))
QUATERNIONS = """\
field Q
basis 1 0
basis i 0
basis j 0
basis k 0
unit 1
mul i i = -1*1
mul j j = -1*1
mul k k = -1*1
mul i j = 1*k
mul j i = -1*k
mul j k = 1*i
mul k j = -1*i
mul k i = 1*j
mul i k = -1*j
"""
# a value for each of cli.OPTIONS, the options some scenario reads
GIVEN = {"module": "A", "truncation": "3", "window": "0:1", "seed": "3"}


def sweep_runs(files):
    runs = []
    for scenario, (_, reads, _) in sorted(SCENARIOS.items()):
        for algebra in sorted(BUILTIN_ALGEBRAS) + files:
            builtin = algebra in BUILTIN_ALGEBRAS
            fields = ([["--field", f] for f in ("Q", "F3", "F7")]
                      if builtin else [[]])
            modules = ([["--module", m] for m in ("k", "A", "Adual")]
                       if "module" in reads else [[]])
            truncations = ([["--truncation", W]
                            for W in (("0", "2") if builtin else ("0",))]
                           if "truncation" in reads else [[]])
            runs += [[scenario, "--algebra", algebra] + f + m + t
                     for f in fields for m in modules for t in truncations]
    return runs


def outcome(argv):
    """(exit status or traceback text, stdout)."""
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(argv)
    except (Exception, SystemExit):
        code = traceback.format_exc(limit=-2)
    return code, out.getvalue()


def test_every_run_passes_fails_a_named_check_or_is_refused(tmp_path):
    quat = tmp_path / "quat.alg"
    quat.write_text(QUATERNIONS)
    bad = []
    for argv in sweep_runs([str(p) for p in SAMPLES] + [str(quat)]):
        code, out = outcome(argv)
        lines = out.splitlines()
        if code == 2:
            ok = len(lines) == 1 and lines[0].startswith("error: ")
        elif code == 1:
            ok = any("[FAIL]" in line for line in lines)
        else:
            ok = code == 0
        if not ok:
            bad.append((argv, code, out[-200:]))
    assert not bad, f"{len(bad)} runs: {bad[:3]}"


@pytest.mark.parametrize("scenario,opt", [
    (scenario, opt) for scenario, (_, reads, _) in SCENARIOS.items()
    for opt in OPTIONS if opt not in reads])
def test_an_option_the_scenario_would_not_read_is_refused(scenario, opt,
                                                          capsys,
                                                          monkeypatch):
    def no_load(*a, **k):
        raise AssertionError("loaded an algebra for refused input")
    monkeypatch.setattr("bardual.cli._load", no_load)
    assert main([scenario, "--algebra", "mat2",
                 f"--{opt}", GIVEN[opt]]) == 2
    out = capsys.readouterr().out
    assert out == f"error: {scenario} does not take --{opt}\n", out


@pytest.mark.parametrize("scenario", [
    scenario for scenario, (_, _, ordinary) in SCENARIOS.items()
    if ordinary])
def test_non_ordinary_algebra_is_refused(scenario, capsys, monkeypatch):
    def no_build(*a, **k):
        raise AssertionError("built something for refused input")
    monkeypatch.setattr("bardual.cli.hochschild_cochains", no_build)
    rest = [arg for opt in SCENARIOS[scenario][1]
            for arg in (f"--{opt}", GIVEN[opt])]
    assert main([scenario, "--algebra", "acyclic2"] + rest) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: ") and out.count("\n") == 1, out
    assert "ordinary algebra" in out


# a module over the dual numbers with a basis element outside degree 0:
# acyclic through its differential (RHom(M, M) = 0), or graded with none
GRADED_MODULE = """\
field Q
basis 1 0
basis x 0
unit 1
mul 1 1 = 1*1
mul 1 x = 1*x
mul x 1 = 1*x
mul x x = 0
module m
mbasis a {a}
mbasis b {b}
act 1 a = 1*a
act 1 b = 1*b
act x a = 0
act x b = 0
"""


@pytest.mark.parametrize("scenario", ["koszul-check", "ext"])
@pytest.mark.parametrize("text", [
    GRADED_MODULE.format(a=-1, b=0) + "mdiff a = 1*b\n",
    GRADED_MODULE.format(a=0, b=1),
], ids=["acyclic-dg", "graded"])
def test_non_ordinary_module_is_refused(scenario, text, tmp_path, capsys,
                                        monkeypatch):
    def no_build(*a, **k):
        raise AssertionError("built something for refused input")
    monkeypatch.setattr("bardual.cli.hochschild_cochains", no_build)
    p = tmp_path / "m.alg"
    p.write_text(text)
    assert main([scenario, "--algebra", str(p), "--module", "m",
                 "--truncation", "4"]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: ") and out.count("\n") == 1, out
    assert "ordinary module" in out
