"""The four bardual benchmark workloads.

Each workload is a closed loop with one caller: an iteration starts only
after the previous certified answer is complete.  A workload provides

  setup(seed)               import-time work: the inputs, built before timing;
  run(state)                one certified iteration, untraced, through the
                            entry point a user calls; returns the problems;
  replay(state, tr, seen)   the same stage sequence through public functions
                            with a span around each call into a layer; keeps
                            what it built in `seen` and returns the problems.

What a traced iteration built is counted by `count_seen` after the
iteration's wall time has ended, so counting is not traced work.

An iteration fails when it raises or returns a problem: a nonzero CLI exit,
a `check.* = FAIL`, a report line or a Betti/H/Ext value that differs from
the stored expectation, or a validator report with failures.

bardual is imported inside the functions, not at module level, so that
run.py can time the import as part of set-up.

Which end-to-end metric each layer metric should move, and where (shares
of the traced wall time when the benchmark was added):

  bar.build_direct_s, bar.build_twist_s, bar.compare_s
      wall_ref and peak_rss_mb on cross-construction (~100%); ~6% of
      hochschild-mat2.  The twist build includes twisting.
  bar.build_direct_s
      also ~17% of koszul-f7.
  bar.reduced_bar_s, twisting.twist_s
      wall_ref on axiom-sweep (~2% and ~0.5%).
  algebras.validate_s
      wall_ref on axiom-sweep (~97%) and hochschild-mat2 (~60%); absent
      from koszul-f7 and cross-construction, where no change is predicted.
  graded.complex_s
      wall_ref and peak_rss_mb on koszul-f7 (~23%).
  graded.cohomology_s[.degN], linalg.eliminate_s[.degN]
      wall_ref on koszul-f7 (~59%) and hochschild-mat2 (~30%); absent from
      axiom-sweep and cross-construction.
  morita.ext_oracle_s, cli.report_s
      under 1%: too small to move any end-to-end metric.

fields, sparse, catalog and sampling get no spans: fields shows as Q
(hochschild-mat2) against F_7 (koszul-f7), catalog and sampling in setup_s.
"""

from __future__ import annotations

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

from tracing import NoTracer

HERE = Path(__file__).resolve().parent
EXPECTED_DIR = HERE / "expected"
OUT_DIR = HERE / "out"

# Degrees reported by the per-degree counters and spans: koszul-f7 has the
# widest cohomology window (0..5), cross-construction the longest bar words
# (degree 7) and axiom-sweep's random algebras the only negative degrees.
COH_DEGREES = range(0, 6)
BASIS_DEGREES = range(-1, 8)

# Expected values, derived by the Ext oracle or by hand, never by the code
# paths under test.  Each CLI case also has its full expected --report file
# in expected/<case>.report.
EXPECTED_VALUES = {
    "hochschild-mat2": {"H": [4, 0, 0]},
    "koszul-f7-upper_tri_2": {"H": [3, 0, 0, 0, 0, 0],
                              "Ext": [3, 0, 0, 0, 0, 0]},
    "koszul-f7-dual_numbers": {"H": [1, 1, 1, 1, 1],
                               "Ext": [1, 1, 1, 1, 1]},
}
# Basis dimension of the Hochschild algebras of cross-construction:
# dim A * dim M * (1 + a + ... + a^W) with a the augmentation ideal's
# dimension (mat2: 4 * 4 * 121; upper_tri_2: 3 * 3 * 255).
EXPECTED_DIMS = {("mat2", "A", 4): 1936, ("upper_tri_2", "Adual", 7): 2295}
# axiom-sweep takes the first random dg algebras of acceptance criterion c01
# (seeds 0, 1, 2): a fixed set, so that every --seed does the same work.
# Its bars stop at word length 3 (c01 builds the builtins' at 4), which
# keeps an iteration near one second: the reference kernel run on either
# side of an iteration tracks the host's speed only over short iterations.
RANDOM_SEEDS = range(3)
SWEEP_W = 3


def count_names():
    """Names of every count the traced run reports, in output order."""
    return (["bar.basis_dim"]
            + [f"bar.basis_dim.deg{n}" for n in BASIS_DEGREES]
            + ["bar.diff_nnz", "bar.mult_entries"]
            + [f"graded.block_cells.deg{n}" for n in COH_DEGREES]
            + [f"linalg.rank.deg{n}" for n in COH_DEGREES]
            + ["algebras.validate_calls", "algebras.validate_failures",
               "algebras.assoc_triples_checked",
               "algebras.assoc_triples_total"])


# ---------------------------------------------------------------------------
# shared helpers


class Seen:
    """What one iteration built, kept only when `keep` is set."""

    def __init__(self, keep):
        self.keep = keep
        self.algebras = []     # bar-type algebras
        self.reports = []      # (validated object, validator report)
        self.complexes = []    # (complex, degrees) for the elimination probe

    def add(self, kind, item):
        if self.keep:
            getattr(self, kind).append(item)


_ASSOC_NOTE = re.compile(r"associativity: (all )?(\d+) (?:sampled )?triples")


def assoc_coverage(obj, report):
    """(checked, total) associativity triples, parsed from report.notes.

    The sampled-mode note gives only the sample size; the total is then
    the cube the exhaustive mode would have walked.
    """
    for note in report.notes:
        m = _ASSOC_NOTE.search(note)
        if m:
            checked = int(m.group(2))
            if m.group(1):
                return checked, checked
            if hasattr(obj, "action"):
                A = obj.algebra
                return checked, A.dim * A.dim * obj.dim
            return checked, obj.dim ** 3
    raise ValueError(f"no associativity note in {report.notes!r}")


def count_seen(tr, seen):
    """Computed sizes of what a traced iteration built.

    Runs after the iteration, outside its wall time.  The elimination probe
    eliminates the same d blocks cohomology eliminated, one span each: it
    attributes the cohomology time to linalg and gives block sizes and ranks.
    """
    from bardual.linalg import eliminate
    counts = dict.fromkeys(count_names(), 0)
    for E in seen.algebras:
        counts["bar.basis_dim"] += E.dim
        for n in BASIS_DEGREES:
            counts[f"bar.basis_dim.deg{n}"] += E.space.dim(n)
        counts["bar.diff_nnz"] += sum(len(col) for col in E.diff.values())
        counts["bar.mult_entries"] += sum(len(out)
                                          for out in E.mult.values())
    for obj, report in seen.reports:
        checked, total = assoc_coverage(obj, report)
        counts["algebras.validate_calls"] += 1
        counts["algebras.validate_failures"] += len(report.failures)
        counts["algebras.assoc_triples_checked"] += checked
        counts["algebras.assoc_triples_total"] += total
    if seen.complexes:
        with tr.span("linalg.eliminate_s"):
            for C, degrees in seen.complexes:
                for n in degrees:
                    block = C.d.block(n)
                    counts[f"graded.block_cells.deg{n}"] += (block.rows
                                                             * block.cols)
                    with tr.span(f"linalg.eliminate_s.deg{n}"):
                        rank, _, _ = eliminate(block)
                    counts[f"linalg.rank.deg{n}"] += rank
    return counts


def validated(tr, seen, obj, problems, what, **kw):
    with tr.span("algebras.validate_s"):
        report = obj.validate(**kw)
    if not report.ok:
        problems.append(f"{what}: {report.failures[:3]}")
    seen.add("reports", (obj, report))
    return report


def cohomology_by_degree(tr, C, degrees):
    from bardual.graded import cohomology
    out = {}
    with tr.span("graded.cohomology_s"):
        for n in degrees:
            with tr.span(f"graded.cohomology_s.deg{n}"):
                out.update(cohomology(C, (n, n)))
    return out


def expected_lines(case):
    return (EXPECTED_DIR / f"{case}.report").read_text().splitlines()


def check_report(case, lines, problems):
    """Compare a machine report against the stored report and values."""
    want = expected_lines(case)
    if lines != want:
        diff = [(i, g, w) for i, (g, w) in enumerate(zip(lines, want))
                if g != w][:3]
        problems.append(f"{case}: report differs from expected "
                        f"({len(lines)} vs {len(want)} lines; {diff})")
    values = {}
    for line in lines:
        key, _, val = line.partition(" = ")
        if key.startswith("check.") and val != "pass":
            problems.append(f"{case}: {line}")
        m = re.fullmatch(r"value\.(H|Ext|betti)\.(-?\d+)", key)
        if m:
            values.setdefault(m.group(1), {})[int(m.group(2))] = int(val)
    for kind, seq in EXPECTED_VALUES[case].items():
        got = values.get(kind, {})
        want_vals = dict(enumerate(seq))
        if got != want_vals:
            problems.append(f"{case}: {kind} = {got}, expected {want_vals}")


def run_cli(case, argv, problems):
    from bardual import cli
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{case}.report"
    path.unlink(missing_ok=True)   # never check a previous iteration's file
    with redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--report", str(path)])
    if code != 0:
        problems.append(f"{case}: CLI exit status {code}")
    check_report(case, path.read_text().splitlines(), problems)


def write_report(tr, case, rep, problems):
    """The CLI's report step: human lines, machine report file, checks."""
    OUT_DIR.mkdir(exist_ok=True)
    with tr.span("cli.report_s"):
        rep.human_lines()
        lines = rep.machine_lines()
        with open(OUT_DIR / f"{case}.traced.report", "w") as fh:
            fh.write("\n".join(lines) + "\n")
    check_report(case, lines, problems)


class State:
    """Inputs of one workload."""

    def __init__(self, **kw):
        self.__dict__.update(kw)


# ---------------------------------------------------------------------------
# hochschild-mat2: the ROADMAP's headline CLI scenario


class HochschildMat2:
    name = "hochschild-mat2"
    W = 3
    argv = ["hochschild", "--algebra", "mat2", "--module", "A",
            "--truncation", str(W)]

    def setup(self, seed):
        from bardual.catalog import builtin_algebra, builtin_module
        A = builtin_algebra("mat2")
        return State(A=A, M=builtin_module(A, "mat2", "A"))

    def run(self, state):
        problems = []
        run_cli(self.name, self.argv, problems)
        return problems

    def replay(self, state, tr, seen):
        from bardual.bar import hochschild_direct, hochschild_via_twist
        from bardual.cli import ScenarioReport
        problems = []
        A, M, W = state.A, state.M, self.W
        rep = ScenarioReport("hochschild")
        rep.inputs.update(algebra="mat2", digest="builtin:mat2", module="A",
                          truncation=W, field=A.field.name)
        with tr.span("bar.build_direct_s"):
            E1 = hochschild_direct(A, M, W, check=False)
        with tr.span("bar.build_twist_s"):
            E2 = hochschild_via_twist(A, W, M=M, check=False)
        with tr.span("bar.compare_s"):
            rep.check("direct-equals-twist.mult", E1.mult == E2.mult)
            rep.check("direct-equals-twist.diff", E1.diff == E2.diff)
            rep.check("uncurved", not E1.curvature and not E2.curvature)
        r = validated(tr, seen, E1, problems, "hochschild algebra")
        rep.check("axioms", r.ok, "; ".join(repr(f) for f in r.failures[:3]))
        with tr.span("graded.complex_s"):
            C = E1.as_complex()
        degrees = range(min(E1.space.degrees or [0]), W)
        coh = cohomology_by_degree(tr, C, degrees)
        for n in sorted(coh):
            rep.value(f"H.{n}", coh[n].betti)
        write_report(tr, self.name, rep, problems)
        seen.add("algebras", E1)
        seen.add("complexes", (C, degrees))
        return problems


# ---------------------------------------------------------------------------
# koszul-f7: H against the Ext oracle over F_7


class KoszulF7:
    name = "koszul-f7"
    cases = [("upper_tri_2", "Adual", 7), ("dual_numbers", "k", 6)]

    def setup(self, seed):
        from bardual.catalog import builtin_algebra, builtin_module
        from bardual.fields import GF
        F7 = GF(7)
        inputs = []
        for an, mn, W in self.cases:
            A = builtin_algebra(an, F7)
            inputs.append((an, mn, W, A, builtin_module(A, an, mn)))
        return State(inputs=inputs)

    def run(self, state):
        problems = []
        for an, mn, W in self.cases:
            run_cli(f"{self.name}-{an}",
                    ["koszul-check", "--field", "F7", "--algebra", an,
                     "--module", mn, "--truncation", str(W)], problems)
        return problems

    def replay(self, state, tr, seen):
        from bardual.bar import hochschild_direct
        from bardual.cli import ScenarioReport
        from bardual.morita import OrdinaryAlgebra, OrdinaryModule, ext_oracle
        problems = []
        for an, mn, W, A, M in state.inputs:
            rep = ScenarioReport("koszul-check")
            rep.inputs.update(algebra=an, digest=f"builtin:{an}", module=mn,
                              truncation=W, field=A.field.name)
            with tr.span("bar.build_direct_s"):
                E = hochschild_direct(A, M, W, check=False)
            with tr.span("graded.complex_s"):
                C = E.as_complex()
            degrees = range(0, W - 1)
            coh = cohomology_by_degree(tr, C, degrees)
            with tr.span("morita.ext_oracle_s"):
                Ao = OrdinaryAlgebra(A)
                Mo = OrdinaryModule.from_curved(Ao, M)
                ext = ext_oracle(Ao, Mo, Mo, W - 2)
            for n in degrees:
                h, e = coh[n].betti, ext[n]
                rep.check(f"H-equals-Ext.{n}", h == e, f"H={h} Ext={e}")
                rep.value(f"H.{n}", h)
                rep.value(f"Ext.{n}", e)
            write_report(tr, f"{self.name}-{an}", rep, problems)
            seen.add("algebras", E)
            seen.add("complexes", (C, degrees))
        return problems


# ---------------------------------------------------------------------------
# axiom-sweep: the body of acceptance criterion c01 through the library API


class AxiomSweep:
    name = "axiom-sweep"

    def setup(self, seed):
        from bardual.catalog import BUILTIN_ALGEBRAS, builtin_algebra
        from bardual.fields import QQ
        from bardual.sampling import random_dg_algebra
        builtins = [(name, builtin_algebra(name)) for name in BUILTIN_ALGEBRAS]
        randoms = [(s, random_dg_algebra(QQ, s)) for s in RANDOM_SEEDS]
        # --seed picks the triples the sampled associativity check draws
        return State(builtins=builtins, randoms=randoms, sample_seed=seed)

    def run(self, state):
        return self.replay(state, NoTracer(), Seen(keep=False))

    def replay(self, state, tr, seen):
        from bardual.algebras import dual_regular_module
        from bardual.bar import (canonical_mc, fake_augmentation,
                                 identity_delta, reduced_bar)
        from bardual.twisting import twist_algebra
        problems = []
        reports = 0
        seed = state.sample_seed
        work = ([(name, A, True) for name, A in state.builtins]
                + [(f"random seed {s}", A, False) for s, A in state.randoms])
        for what, A, builtin in work:
            if not builtin and not (A.dim <= 4 and
                                    all(-1 <= d <= 1 for d in A.degree)):
                problems.append(f"{what}: out of the sampled range")
            validated(tr, seen, A, problems, what, seed=seed)
            reports += 1
            if builtin:
                # building the dual module is counted as validation work
                with tr.span("algebras.validate_s"):
                    Md = dual_regular_module(A, check=False)
                validated(tr, seen, Md, problems, f"{what} dual module",
                          seed=seed)
                reports += 1
            with tr.span("bar.reduced_bar_s"):
                aug = fake_augmentation(A)
                bar = reduced_bar(A, SWEEP_W, coeff=aug.algebra,
                                  delta=identity_delta(aug.algebra), aug=aug,
                                  check=False)
            seen.add("algebras", bar)
            validated(tr, seen, bar, problems, f"{what} bar", seed=seed)
            with tr.span("twisting.twist_s"):
                tw = twist_algebra(bar, canonical_mc(bar), check=False)
            validated(tr, seen, tw, problems, f"{what} twisted bar",
                      seed=seed)
            reports += 2
        # each builtin: itself, its dual regular module, its bar and the
        # twisted bar; each random algebra: all but the dual module
        want = 4 * len(state.builtins) + 3 * len(state.randoms)
        if reports != want:
            problems.append(f"{reports} reports validated, expected {want}")
        return problems


# ---------------------------------------------------------------------------
# cross-construction: direct Hochschild equals the twisted bar


class CrossConstruction:
    name = "cross-construction"
    cases = [("mat2", "A", 4), ("upper_tri_2", "Adual", 7)]

    def setup(self, seed):
        from bardual.catalog import builtin_algebra, builtin_module
        inputs = []
        for an, mn, W in self.cases:
            A = builtin_algebra(an)
            inputs.append((an, mn, W, A, builtin_module(A, an, mn)))
        return State(inputs=inputs)

    def run(self, state):
        return self.replay(state, NoTracer(), Seen(keep=False))

    def replay(self, state, tr, seen):
        from bardual.bar import hochschild_direct, hochschild_via_twist
        problems = []
        for an, mn, W, A, M in state.inputs:
            with tr.span("bar.build_direct_s"):
                E1 = hochschild_direct(A, M, W, check=False)
            with tr.span("bar.build_twist_s"):
                E2 = hochschild_via_twist(A, W, M=M, check=False)
            with tr.span("bar.compare_s"):
                same = (E1.basis == E2.basis and E1.mult == E2.mult
                        and E1.diff == E2.diff
                        and E1.curvature == E2.curvature == {})
                # freed here rather than on return, between spans
                del E2
            if not same:
                problems.append(f"{an}/{mn} W={W}: direct differs from twist")
            want = EXPECTED_DIMS[(an, mn, W)]
            if E1.dim != want:
                problems.append(f"{an}/{mn} W={W}: dimension {E1.dim}, "
                                f"expected {want}")
            seen.add("algebras", E1)
        return problems


WORKLOADS = {w.name: w for w in (HochschildMat2(), KoszulF7(), AxiomSweep(),
                                 CrossConstruction())}
