import pathlib
import subprocess
import sys

import pytest

from bardual.cli import ParseError, ScenarioReport, main, parse_algebra_file
from bardual.algebras import ValidationError


DUAL_NUMBERS = """\
# dual numbers
field Q
basis 1 0
basis x 0
unit 1
mul x x = 0

module k
mbasis m 0
act x m = 0
"""

ACYCLIC2 = """\
field Q
basis 1 0
basis x -1
unit 1
mul x x = 0
diff x = 1*1
"""

NON_ASSOCIATIVE = """\
field Q
basis 1 0
basis a 0
basis b 0
unit 1
mul a a = 1*b
mul a b = 1*a
mul b a = 0
mul b b = 0
"""

SYNTAX_ERROR = """\
field Q
basis 1 0
unit 1
mul 1 = nonsense
"""


def test_parse_dual_numbers(tmp_path):
    p = tmp_path / "dual.alg"
    p.write_text(DUAL_NUMBERS)
    A, modules = parse_algebra_file(str(p))
    assert A.dim == 2 and A.validate().ok
    assert "k" in modules and modules["k"].dim == 1


def test_parse_acyclic_two_dim(tmp_path):
    p = tmp_path / "acyclic.alg"
    p.write_text(ACYCLIC2)
    A, _ = parse_algebra_file(str(p))
    assert A.validate().ok
    from bardual.graded import cohomology
    assert all(c.betti == 0 for c in cohomology(A.as_complex()).values())


def test_parse_non_associative_names_the_triple(tmp_path):
    p = tmp_path / "bad.alg"
    p.write_text(NON_ASSOCIATIVE)
    with pytest.raises(ValidationError) as exc:
        parse_algebra_file(str(p))
    assert any(f.identity == "associativity"
               for f in exc.value.report.failures)


def test_parse_error_carries_line(tmp_path):
    p = tmp_path / "syntax.alg"
    p.write_text(SYNTAX_ERROR)
    with pytest.raises(ParseError) as exc:
        parse_algebra_file(str(p))
    assert exc.value.line == 4


def test_field_must_come_first(tmp_path):
    p = tmp_path / "nofield.alg"
    p.write_text("basis 1 0\nfield Q\nunit 1\n")
    with pytest.raises(ParseError):
        parse_algebra_file(str(p))


def test_prime_field_file(tmp_path):
    p = tmp_path / "fp.alg"
    p.write_text("field F 5\nbasis 1 0\nbasis x 0\nunit 1\nmul x x = 2*x\n")
    A, _ = parse_algebra_file(str(p))
    assert A.field.characteristic == 5 and A.validate().ok


def test_scenarios_exit_zero_on_success(capsys):
    for argv in (
        ["verify", "--algebra", "dual_numbers"],
        ["simples", "--algebra", "upper_tri_2"],
        ["koszul-check", "--algebra", "dual_numbers", "--module", "k",
         "--truncation", "4"],
        ["hochschild", "--algebra", "kxk", "--module", "k",
         "--truncation", "3"],
        ["ext", "--algebra", "kxk", "--module", "k", "--truncation", "3"],
        ["morita", "--algebra", "kxk", "--seed", "3"],
    ):
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        assert "PASS" in out


def test_simples_values_via_cli(capsys):
    assert main(["simples", "--algebra", "mat2"]) == 0
    out = capsys.readouterr().out
    assert "simples = 1" in out


def test_verify_over_prime_field(capsys):
    assert main(["verify", "--algebra", "mat2", "--field", "F7"]) == 0
    out = capsys.readouterr().out
    assert "field = F7" in out


def test_reports_are_byte_identical(tmp_path, capsys):
    r1, r2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    argv = ["koszul-check", "--algebra", "upper_tri_2", "--module", "Adual",
            "--truncation", "3"]
    assert main(argv + ["--report", str(r1)]) == 0
    assert main(argv + ["--report", str(r2)]) == 0
    capsys.readouterr()
    assert r1.read_bytes() == r2.read_bytes()
    text = r1.read_text()
    assert "status = pass" in text and "time" not in text


def test_exit_code_nonzero_on_failed_check(tmp_path, capsys):
    # simples over a non-split algebra is refused as input (exit 2)
    p = tmp_path / "quat.alg"
    p.write_text("""\
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
""")
    assert main(["simples", "--algebra", str(p)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: ") and out.count("\n") == 1, out
    assert "extend the field" in out
    # a check that really fails still exits 1: the axioms of a
    # non-associative file algebra
    bad = tmp_path / "bad.alg"
    bad.write_text(NON_ASSOCIATIVE)
    assert main(["verify", "--algebra", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "construction" in out


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "bardual.cli", "verify", "--algebra", "k"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_unknown_label_is_a_parse_error_with_line(tmp_path):
    p = tmp_path / "unknown.alg"
    p.write_text("field Q\nbasis 1 0\nunit 1\nmul 1 zz = 0\n")
    with pytest.raises(ParseError) as exc:
        parse_algebra_file(str(p))
    assert exc.value.line == 4

    p2 = tmp_path / "unknown2.alg"
    p2.write_text("field Q\nbasis 1 0\nbasis x 0\nunit 1\ndiff x = 1*w\n")
    with pytest.raises(ParseError) as exc:
        parse_algebra_file(str(p2))
    assert exc.value.line == 5


def test_module_block_with_mdiff_parses(tmp_path):
    p = tmp_path / "dg.alg"
    p.write_text("""\
field Q
basis 1 0
basis x 0
unit 1
mul x x = 0

module V
mbasis a 0
mbasis b 1
act x a = 0
act x b = 0
mdiff a = 1*b
""")
    A, modules = parse_algebra_file(str(p))
    assert modules["V"].dim == 2 and modules["V"].diff


def test_reports_byte_identical_across_processes(tmp_path):
    import subprocess, sys
    r1, r2 = tmp_path / "p1.txt", tmp_path / "p2.txt"
    for r in (r1, r2):
        proc = subprocess.run(
            [sys.executable, "-m", "bardual.cli", "morita", "--algebra",
             "upper_tri_2", "--seed", "7", "--report", str(r)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
    assert r1.read_bytes() == r2.read_bytes()


def test_hochschild_scenario_on_file_algebra_with_file_module(tmp_path,
                                                              capsys):
    p = tmp_path / "dual.alg"
    p.write_text(DUAL_NUMBERS)
    assert main(["hochschild", "--algebra", str(p), "--module", "k",
                 "--truncation", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "module = k" in out


def test_shipped_sample_algebras():
    import pathlib
    root = pathlib.Path(__file__).resolve().parent.parent
    ut3 = root / "scripts" / "sample_algebras" / "upper_tri_3.alg"
    acy = root / "scripts" / "sample_algebras" / "acyclic2.alg"
    A, _ = parse_algebra_file(str(ut3))
    assert A.dim == 6
    from bardual.morita import OrdinaryAlgebra, count_simples
    assert count_simples(OrdinaryAlgebra(A)) == 3
    B, _ = parse_algebra_file(str(acy))
    from bardual.graded import cohomology
    assert all(c.betti == 0 for c in cohomology(B.as_complex()).values())


@pytest.mark.parametrize("W", ["0", "1"])
def test_koszul_check_below_two_is_refused(W, tmp_path, capsys):
    # koszul-check compares degrees 0..W-2: none at all for W <= 1
    r = tmp_path / "r.txt"
    assert main(["koszul-check", "--algebra", "dual_numbers", "--module",
                 "k", "--truncation", W, "--report", str(r)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: ") and out.count("\n") == 1, out
    assert not r.exists()
    # a report with no check still fails, whatever scenario makes one
    empty = ScenarioReport("koszul-check")
    assert not empty.ok and empty.machine_lines()[-1] == "status = FAIL"


def test_negative_truncation_is_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hochschild", "--algebra", "mat2", "--module", "A",
              "--truncation", "-1"])
    assert exc.value.code == 2
    assert "truncation length must be >= 0" in capsys.readouterr().err


def test_simples_beyond_the_enumeration_still_checks(capsys):
    import pathlib
    root = pathlib.Path(__file__).resolve().parent.parent
    ut3 = root / "scripts" / "sample_algebras" / "upper_tri_3.alg"
    assert main(["simples", "--algebra", str(ut3)]) == 0
    out = capsys.readouterr().out
    assert "[ok ] split" in out and "simples = 3" in out


def test_python_dash_m_bardual_runs():
    proc = subprocess.run([sys.executable, "-m", "bardual", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "usage: bardual" in proc.stdout


SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "scripts" / \
    "sample_algebras"


@pytest.mark.parametrize("argv", [
    ["verify", "--algebra", "k", "--field", "F2"],
    ["verify", "--algebra", "k", "--field", "F9"],
    ["verify", "--algebra", "k", "--field", "X"],
    ["verify", "--algebra", "no/such/file.alg"],
    ["verify", "--algebra", str(SAMPLES)],
    ["ext", "--algebra", "mat2", "--module", "k"],
    ["hochschild", "--algebra", "mat2", "--module", "nosuch"],
    ["hochschild", "--algebra", str(SAMPLES / "acyclic2.alg"),
     "--module", "nosuch"],
    ["verify", "--algebra", str(SAMPLES / "upper_tri_3.alg"), "--field",
     "F7"],
    ["verify", "--algebra", "mat2", "--truncation", "9", "--seed", "3"],
], ids=["F2", "F9", "unknown-field", "missing-file", "unreadable-file",
        "module-the-algebra-lacks", "unknown-builtin-module",
        "unknown-file-module", "field-of-a-file-algebra", "unread-options"])
def test_bad_input_is_one_line_with_exit_2(argv, capsys):
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: ") and out.count("\n") == 1, out


MODULE_HEAD = "field Q\nbasis 1 0\nunit 1\n\nmodule V\nmbasis m 0\n"


@pytest.mark.parametrize("text,line", [
    (MODULE_HEAD + "mbasis n x\n", 7),
    (MODULE_HEAD + "act 1 m\n", 7),
    (MODULE_HEAD + "mdiff m\n", 7),
    ("field Q\nbasis 1 0\nunit 1\ncurvature 1\n", 4),
    (MODULE_HEAD + "mbasis m 1\n", 7),
    ("field Q\nbasis 1 0\nfield F 7\nunit 1\n", 3),
    ("field Q\nbasis 1 0\nunit 1\nunit 1\n", 4),
    ("field Q\nbasis 1 0\nunit 1\ncurvature = 0\ncurvature = 0\n", 5),
    ("field Q\nbasis 1 0\nbasis x 0\nunit 1\nmul x x = 1*x\nmul x x = 0\n",
     6),
    (ACYCLIC2 + "diff x = 0\n", 7),
    (MODULE_HEAD + "module V\n", 7),
    (MODULE_HEAD + "act 1 m = 1*m\nact 1 m = 0\n", 8),
    (MODULE_HEAD + "mdiff m = 0\nmdiff m = 0\n", 8),
], ids=["mbasis-degree", "act-without-eq", "mdiff-without-eq",
        "curvature-without-eq", "mbasis-twice", "field-twice", "unit-twice",
        "curvature-twice", "mul-twice", "diff-twice", "module-twice",
        "act-twice", "mdiff-twice"])
def test_malformed_file_is_a_parse_error_with_exit_2(text, line, tmp_path,
                                                     capsys):
    p = tmp_path / "bad.alg"
    p.write_text(text)
    with pytest.raises(ParseError) as exc:
        parse_algebra_file(str(p))
    assert exc.value.line == line
    assert main(["verify", "--algebra", str(p)]) == 2
    out = capsys.readouterr().out
    assert out.startswith(f"error: {p}:{line}:") and out.count("\n") == 1


def test_same_lines_in_two_modules_parse(tmp_path):
    p = tmp_path / "two.alg"
    p.write_text(DUAL_NUMBERS + "\nmodule k2\nmbasis m 0\nact x m = 0\n")
    _, modules = parse_algebra_file(str(p))
    assert sorted(modules) == ["k", "k2"]


@pytest.mark.parametrize("argv", [
    ["hochschild", "--algebra", "mat2", "--module", "A", "--truncation", "3",
     "--window", "2:0"],
    ["ext", "--algebra", "dual_numbers", "--module", "k", "--window", "3:-1"],
], ids=["hochschild", "ext"])
def test_reversed_window_is_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "need a <= b" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["koszul-check", "--algebra", "dual_numbers", "--truncation", "4",
     "--window", "0:9"],
    ["ext", "--algebra", "dual_numbers", "--module", "k", "--window", "2:3"],
    ["verify", "--algebra", "dual_numbers", "--window", "0:1"],
    ["morita", "--algebra", "dual_numbers", "--window", "0:1"],
    ["simples", "--algebra", "dual_numbers", "--window", "0:1"],
], ids=["koszul-check", "ext", "verify", "morita", "simples"])
def test_window_a_scenario_would_not_read_is_refused(argv, capsys):
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: ") and out.count("\n") == 1, out
    assert "--window" in out


@pytest.mark.parametrize("scenario", ["verify", "morita", "simples"])
def test_module_a_scenario_would_not_read_is_refused(scenario, capsys):
    assert main([scenario, "--algebra", "mat2", "--module", "A"]) == 2
    out = capsys.readouterr().out
    assert out == f"error: {scenario} does not take --module\n", out


@pytest.mark.parametrize("argv", [
    ["morita", "--algebra", "mat2", "--field", "F3"],
    ["koszul-check", "--algebra", "mat2", "--module", "A", "--field", "F3",
     "--truncation", "3"],
    ["simples", "--algebra", "mat2", "--field", "F3"],
], ids=["morita", "koszul-check", "simples"])
def test_trace_form_characteristic_limit_exits_2(argv, capsys):
    # p = 3 <= dim mat2 = 4: the trace-form radical is refused as input
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: ") and out.count("\n") == 1, out
    assert "trace-form radical" in out and "extend the field" not in out


ZERO_MODULE = "field Q\nbasis 1 0\nunit 1\nmul 1 1 = 1*1\nmodule m\n"


@pytest.mark.parametrize("scenario,code", [
    ("hochschild", 2), ("koszul-check", 2),
    ("verify", 0), ("morita", 0), ("simples", 0), ("ext", 0),
])
def test_zero_file_module(scenario, code, tmp_path, capsys):
    # End(0) is no coefficient algebra: the two Hochschild scenarios refuse
    # the module as input, the others accept it
    p = tmp_path / "zero.alg"
    p.write_text(ZERO_MODULE)
    assert main([scenario, "--algebra", str(p)]) == code
    out = capsys.readouterr().out
    if code:
        assert out == "error: module 'm' is zero: End(M) coefficients " \
                      "need a non-zero module\n", out
    else:
        assert "result: PASS" in out
