"""Command-line interface: parse algebra description files, run named
verification scenarios, write human-readable and machine-readable reports.

The algebra file grammar is line oriented ('#' starts a comment):

    field Q | field F <p>
    basis <label> <degree>
    unit <label>                     (or: unit 1*<l1> + 1*<l2>)
    mul <a> <b> = c1*<k1> + c2*<k2>  (or = 0; unit rows may be implicit)
    diff <a> = c1*<k1> + ...
    curvature = c1*<k1> + ...        (optional)
    module <name>                    (starts a module block)
    mbasis <label> <degree>
    act <a> <m> = c1*<m1> + ...
    mdiff <m> = c1*<m1> + ...

`field`, `unit`, `curvature`, each `mul a b`, `diff a` and `module m`,
and within a module each `act a m` and `mdiff m` occur at most once.

Machine reports are flat "key = value" lines, deterministic byte-for-byte
for identical inputs (timings go to stdout only, never into the report).
Exit status is 1 when any check fails or none ran, and 2 (with a one-line
`error:` message) when the input cannot be parsed or resolved: a bad
field, `--field` with a file algebra (the file fixes its own field), an
unreadable file, an unknown module or one the algebra lacks, an algebra or
module a method refuses (`morita.RefusedInput`), an option the scenario
would not read (`SCENARIOS` lists the ones each reads), or a koszul-check
truncation below 2, at which no degree can be compared.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from dataclasses import dataclass, field as dfield

from .algebras import CurvedModule, ValidationError
from .bar import hochschild_cochains, hochschild_direct, hochschild_via_twist
from .catalog import (BUILTIN_ALGEBRAS, builtin_algebra, builtin_module,
                      default_module_name)
from .fields import GF, QQ
from .graded import GradedVectorSpace, cohomology
from .morita import (OrdinaryAlgebra, OrdinaryModule, RefusedInput,
                     count_simples, decompose_regular_semisimple, ext_oracle,
                     gamma, injective_cogenerator, morita_unit, radical,
                     regular_ordinary, simple_modules)
from .sampling import random_ordinary_module
from .sparse import vec


class InputError(ValueError):
    """Input the CLI cannot resolve: reported in one line, exit status 2."""


class ParseError(ValueError):
    def __init__(self, path, line_no, column, msg):
        super().__init__(f"{path}:{line_no}:{column}: {msg}")
        self.line = line_no
        self.column = column


def _parse_terms(field, text, path, line_no, col0):
    text = text.strip()
    if text == "0" or not text:
        return []
    out = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError(path, line_no, col0, "empty term")
        if "*" in chunk:
            coef_s, lbl = chunk.split("*", 1)
            try:
                coef = field.parse(coef_s.strip())
            except Exception:
                raise ParseError(path, line_no, col0,
                                 f"bad coefficient {coef_s!r}") from None
            out.append((coef, lbl.strip()))
        else:
            out.append((field.one, chunk))
    return out


def parse_algebra_file(path):
    """Parse and validate an algebra description file.

    Returns (algebra, modules) with modules a name -> CurvedModule dict.
    Parse errors carry line and column; validation failures re-raise the
    validator's report.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()

    field = None
    components = {}
    degrees = {}
    unit = None
    mult_table = {}
    diff_table = {}
    curvature = []
    modules = []  # (name, mbasis {label: degree}, acts, mdiffs)
    current_module = None
    seen = set()  # the directives, with their labels, that may occur once

    def err(line_no, col, msg):
        raise ParseError(path, line_no, col, msg)

    def once(line_no, col, *words, scope=None):
        if (scope, *words) in seen:
            err(line_no, col, f"repeated '{' '.join(words)}' line")
        seen.add((scope, *words))

    def degree(line_no, line, deg_s):
        try:
            return int(deg_s)
        except ValueError:
            err(line_no, len(line) - len(deg_s), "degree must be integer")

    def split_eq(line_no, line, col, expected):
        if "=" not in line:
            err(line_no, col, f"expected '{expected}'")
        return line.split("=", 1)

    def known(line_no, labels, table=None):
        table = degrees if table is None else table
        for lbl in labels:
            if lbl not in table:
                err(line_no, 0, f"unknown label {lbl!r} (declare it with a "
                                f"basis/mbasis line first)")

    for line_no, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        head = toks[0]
        if head == "field":
            once(line_no, 0, head)
            if len(toks) == 2 and toks[1] == "Q":
                field = QQ
            elif len(toks) == 3 and toks[1] == "F":
                try:
                    field = GF(int(toks[2]))
                except ValueError as e:
                    err(line_no, len("field F "), str(e))
            else:
                err(line_no, 6, "expected 'field Q' or 'field F <p>'")
        elif field is None:
            err(line_no, 0, "the field line must come first")
        elif head == "basis":
            if len(toks) != 3:
                err(line_no, 6, "expected 'basis <label> <degree>'")
            lbl, deg = toks[1], degree(line_no, line, toks[2])
            if lbl in degrees:
                err(line_no, 6, f"label {lbl!r} declared twice")
            degrees[lbl] = deg
            components.setdefault(deg, []).append(lbl)
        elif head == "unit":
            once(line_no, 0, head)
            rest = line[len("unit"):].strip()
            if "*" in rest or "+" in rest:
                unit = _parse_terms(field, rest, path, line_no, 5)
                known(line_no, [l for _, l in unit])
            else:
                known(line_no, [rest])
                unit = rest
        elif head == "mul":
            if len(toks) < 4 or "=" not in line:
                err(line_no, 4, "expected 'mul <a> <b> = ...'")
            lhs, rhs = line.split("=", 1)
            parts = lhs.split()
            if len(parts) != 3:
                err(line_no, 4, "expected two labels before '='")
            terms = _parse_terms(field, rhs, path, line_no, len(lhs) + 1)
            known(line_no, parts[1:] + [l for _, l in terms])
            once(line_no, 4, *parts)
            mult_table[(parts[1], parts[2])] = terms
        elif head == "diff":
            lhs, rhs = (line.split("=", 1) + [""])[:2]
            parts = lhs.split()
            if len(parts) != 2:
                err(line_no, 5, "expected 'diff <a> = ...'")
            terms = _parse_terms(field, rhs, path, line_no, len(lhs) + 1)
            known(line_no, parts[1:] + [l for _, l in terms])
            once(line_no, 5, *parts)
            diff_table[parts[1]] = terms
        elif head == "curvature":
            _, rhs = split_eq(line_no, line, 10, "curvature = ...")
            once(line_no, 0, head)
            curvature = _parse_terms(field, rhs, path, line_no,
                                     len("curvature = "))
            known(line_no, [l for _, l in curvature])
        elif head == "module":
            if len(toks) != 2:
                err(line_no, 7, "expected 'module <name>'")
            once(line_no, 7, *toks)
            current_module = (toks[1], {}, [], [])
            modules.append(current_module)
        elif head in ("mbasis", "act", "mdiff"):
            if current_module is None:
                err(line_no, 0, f"'{head}' outside a module block")
            if head == "mbasis":
                if len(toks) != 3:
                    err(line_no, 7, "expected 'mbasis <label> <degree>'")
                if toks[1] in current_module[1]:
                    err(line_no, 7, f"label {toks[1]!r} declared twice")
                current_module[1][toks[1]] = degree(line_no, line, toks[2])
            elif head == "act":
                lhs, rhs = split_eq(line_no, line, 4, "act <a> <m> = ...")
                parts = lhs.split()
                if len(parts) != 3:
                    err(line_no, 4, "expected 'act <a> <m> = ...'")
                terms = _parse_terms(field, rhs, path, line_no, len(lhs) + 1)
                known(line_no, [parts[1]])
                known(line_no, [parts[2]] + [l for _, l in terms],
                      current_module[1])
                once(line_no, 4, *parts, scope=current_module[0])
                current_module[2].append((parts[1], parts[2], terms))
            else:
                lhs, rhs = split_eq(line_no, line, 6, "mdiff <m> = ...")
                parts = lhs.split()
                if len(parts) != 2:
                    err(line_no, 6, "expected 'mdiff <m> = ...'")
                terms = _parse_terms(field, rhs, path, line_no, len(lhs) + 1)
                known(line_no, [parts[1]] + [l for _, l in terms],
                      current_module[1])
                once(line_no, 6, *parts, scope=current_module[0])
                current_module[3].append((parts[1], terms))
        else:
            err(line_no, 0, f"unknown directive {head!r}")

    if field is None:
        raise ParseError(path, 1, 0, "missing 'field' line")
    if unit is None:
        raise ParseError(path, 1, 0, "missing 'unit' line")

    from .algebras import algebra_from_tables
    A = algebra_from_tables(field, components, unit, mult_table, diff_table,
                            curvature)

    out_modules = {}
    for (name, mbasis, acts, mdiffs) in modules:
        mcomp = {}
        for lbl, deg in mbasis.items():
            mcomp.setdefault(deg, []).append(lbl)
        space = GradedVectorSpace(mcomp)
        index = space.flat[1]

        def pos(lbl):
            return index[(mbasis[lbl], lbl)]

        def column(terms):
            return vec(*((pos(lbl), c) for c, lbl in terms))
        action = {}
        for (albl, mlbl, terms) in acts:
            col = column(terms)
            if col:
                action[(A.index[(degrees[albl], albl)], pos(mlbl))] = col
        # implicit unit action
        for u, cu in A.unit.items():
            for j in range(space.total_dim):
                action.setdefault((u, j), {j: cu})
        diff = {}
        for (mlbl, terms) in mdiffs:
            col = column(terms)
            if col:
                diff[pos(mlbl)] = col
        out_modules[name] = CurvedModule(A, space, action, diff)
    return A, out_modules


# ---------------------------------------------------------------------------
# scenario machinery


@dataclass
class ScenarioReport:
    scenario: str
    inputs: dict = dfield(default_factory=dict)
    checks: list = dfield(default_factory=list)   # (name, ok, witness)
    values: list = dfield(default_factory=list)   # (key, value)
    timings: dict = dfield(default_factory=dict)

    def check(self, name, ok, witness=""):
        self.checks.append((name, bool(ok), witness))

    def value(self, key, val):
        self.values.append((key, val))

    @property
    def ok(self):
        """True iff at least one check ran and every check passed."""
        return bool(self.checks) and all(ok for (_, ok, _) in self.checks)

    def machine_lines(self):
        out = [f"scenario = {self.scenario}"]
        for k, v in sorted(self.inputs.items()):
            out.append(f"input.{k} = {v}")
        for (name, ok, witness) in self.checks:
            out.append(f"check.{name} = {'pass' if ok else 'FAIL'}")
            if witness and not ok:
                out.append(f"witness.{name} = {witness}")
        for k, v in self.values:
            out.append(f"value.{k} = {v}")
        out.append(f"status = {'pass' if self.ok else 'FAIL'}")
        return out

    def human_lines(self):
        out = [f"scenario: {self.scenario}"]
        for k, v in sorted(self.inputs.items()):
            out.append(f"  input {k} = {v}")
        for (name, ok, witness) in self.checks:
            mark = "ok " if ok else "FAIL"
            suffix = f"  [{witness}]" if witness and not ok else ""
            out.append(f"  [{mark}] {name}{suffix}")
        if not self.checks:
            out.append("  [FAIL] no check ran")
        for k, v in self.values:
            out.append(f"  {k} = {v}")
        for k, v in sorted(self.timings.items()):
            out.append(f"  time {k} = {v:.3f}s")
        out.append(f"result: {'PASS' if self.ok else 'FAIL'}")
        return out


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()[:16]


def _field(text):
    if not text or text == "Q":
        return QQ
    if text.startswith("F"):
        try:
            return GF(int(text[1:]))
        except ValueError as e:
            raise InputError(f"unsupported field {text!r}: {e}") from None
    raise InputError(f"unknown field {text!r}; use Q or F<p>")


def _load(args):
    field = _field(args.field)
    name = args.algebra
    if name in BUILTIN_ALGEBRAS:
        A = builtin_algebra(name, field)
        modules = {}
        digest = f"builtin:{name}"
    else:
        try:
            A, modules = parse_algebra_file(name)
            digest = _digest(name)
        except OSError as e:
            raise InputError(f"{name!r} is neither a builtin algebra nor a "
                             f"readable file: {e.strerror}") from None
        if args.field:
            raise InputError(f"{name!r} fixes its own field in its 'field' "
                             "line: drop --field")
    return A, modules, name, digest


def _pick_module(A, modules, alg_name, wanted):
    if wanted is None:
        if alg_name in BUILTIN_ALGEBRAS:
            wanted = default_module_name(alg_name)
        elif modules:
            wanted = sorted(modules)[0]
        else:
            wanted = "A"
    if wanted in modules:
        return modules[wanted], wanted
    if alg_name in BUILTIN_ALGEBRAS:
        try:
            return builtin_module(A, alg_name, wanted), wanted
        except ValueError as e:
            raise InputError(str(e)) from None
    from .algebras import regular_module, dual_regular_module
    if wanted == "A":
        return regular_module(A), "A"
    if wanted == "Adual":
        return dual_regular_module(A), "Adual"
    raise InputError(f"unknown module {wanted!r}; choices: "
                     f"{', '.join(sorted(modules) + ['A', 'Adual'])}")


def _coefficient_module(A, modules, alg_name, wanted):
    """The module M whose End(M) the Hochschild scenarios take as
    coefficients; the zero module has no such algebra and is refused."""
    M, mname = _pick_module(A, modules, alg_name, wanted)
    if M.dim == 0:
        raise InputError(f"module {mname!r} is zero: End(M) coefficients "
                         "need a non-zero module")
    return M, mname


def _report_rows(rep: ScenarioReport, args):
    print("\n".join(rep.human_lines()))
    if args.report:
        with open(args.report, "w") as fh:
            fh.write("\n".join(rep.machine_lines()) + "\n")


def scenario_verify(args) -> ScenarioReport:
    rep = ScenarioReport("verify")
    try:
        A, modules, name, digest = _load(args)
    except ValidationError as e:
        rep.inputs["algebra"] = args.algebra
        rep.check("construction", False, str(e)[:200])
        return rep
    rep.inputs.update(algebra=name, digest=digest, field=A.field.name)
    r = A.validate()
    rep.check("algebra-axioms", r.ok,
              "; ".join(repr(f) for f in r.failures[:3]))
    for nm, M in sorted(modules.items()):
        rm = M.validate()
        rep.check(f"module-{nm}-axioms", rm.ok,
                  "; ".join(repr(f) for f in rm.failures[:3]))
    coh = cohomology(A.as_complex())
    for n in sorted(coh):
        rep.value(f"betti.{n}", coh[n].betti)
    return rep


def scenario_hochschild(args) -> ScenarioReport:
    rep = ScenarioReport("hochschild")
    A, modules, name, digest = _load(args)
    M, mname = _coefficient_module(A, modules, name, args.module)
    W = args.truncation
    rep.inputs.update(algebra=name, digest=digest, module=mname,
                      truncation=W, field=A.field.name)
    E1 = hochschild_direct(A, M, W, check=False)
    E2 = hochschild_via_twist(A, W, M=M, check=False)
    rep.check("direct-equals-twist.mult", E1.mult == E2.mult)
    rep.check("direct-equals-twist.diff", E1.diff == E2.diff)
    rep.check("uncurved", not E1.curvature and not E2.curvature)
    del E2      # freed before validation so the two never share the peak
    r = E1.validate()
    rep.check("axioms", r.ok, "; ".join(repr(f) for f in r.failures[:3]))
    lo, hi = (args.window if args.window else
              (min(E1.space.degrees or [0]), W - 1))
    coh = cohomology(E1.as_complex(), (lo, hi))
    for n in sorted(coh):
        rep.value(f"H.{n}", coh[n].betti)
    return rep


def scenario_koszul_check(args) -> ScenarioReport:
    rep = ScenarioReport("koszul-check")
    W = args.truncation
    if W < 2:
        raise InputError(f"koszul-check compares degrees 0..W-2, none at "
                         f"truncation {W}: use --truncation 2 or more")
    A, modules, name, digest = _load(args)
    Ao = OrdinaryAlgebra(A)     # the Ext oracle's inputs, refused up front
    M, mname = _coefficient_module(A, modules, name, args.module)
    Mo = OrdinaryModule.from_curved(Ao, M)
    rep.inputs.update(algebra=name, digest=digest, module=mname,
                      truncation=W, field=A.field.name)
    # Only the differential of E is read, so no cup product is built, and
    # only through word length W-1: A and M are ordinary, so generators
    # sit in degree 1, End(M) in degree 0 and a cochain's degree is its
    # word length.  H^0..H^{W-2} read d_{-1}..d_{W-2}, which land in
    # degrees <= W-1, and those blocks are the same at truncation W-1 as
    # at W.
    C = hochschild_cochains(A, M, W - 1, check=False).as_complex()
    coh = cohomology(C, (0, W - 2))
    ext = ext_oracle(Ao, Mo, Mo, W - 2)
    for n in range(W - 1):
        h = coh[n].betti
        e = ext[n]
        rep.check(f"H-equals-Ext.{n}", h == e, f"H={h} Ext={e}")
        rep.value(f"H.{n}", h)
        rep.value(f"Ext.{n}", e)
    return rep


def scenario_morita(args) -> ScenarioReport:
    rep = ScenarioReport("morita")
    A, modules, name, digest = _load(args)
    rep.inputs.update(algebra=name, digest=digest, field=A.field.name)
    Ao = OrdinaryAlgebra(A)
    M = injective_cogenerator(Ao)
    md = gamma(Ao, M)
    rep.value("gamma.dim", md.gamma.n)
    mods = simple_modules(Ao) + [regular_ordinary(Ao), M]
    for i, N in enumerate(mods):
        _, iso = morita_unit(md, N)
        rep.check(f"double-dual-iso.{i}", iso, f"dim={N.dim}")
    rng_count = 0
    seed = args.seed
    tries = 0
    while rng_count < 5 and tries < 60:
        N = random_ordinary_module(Ao, seed + tries)
        tries += 1
        if N is None or N.dim == 0:
            continue
        _, iso = morita_unit(md, N)
        rep.check(f"double-dual-iso.random{rng_count}", iso,
                  f"seed={seed + tries - 1} dim={N.dim}")
        rng_count += 1
    return rep


def scenario_simples(args) -> ScenarioReport:
    rep = ScenarioReport("simples")
    A, modules, name, digest = _load(args)
    rep.inputs.update(algebra=name, digest=digest, field=A.field.name)
    Ao = OrdinaryAlgebra(A)
    try:
        cnt = count_simples(Ao)
    except RefusedInput:
        raise               # exit 2 rather than a failed check: run_scenario
    except ValueError as e:
        rep.check("split", False, str(e)[:120])
        return rep
    rep.value("simples", cnt)
    if Ao.n <= 4:
        cross = decompose_regular_semisimple(Ao)
        rep.check("cross-check", cross == cnt, f"enumerated {cross}")
    else:
        # the enumeration is out of reach; what certifies the count is
        # count_simples' own check that the squared simple dimensions
        # sum to dim A/rad(A), which raised above when it failed
        rep.check("split", True)
    rad = radical(Ao)
    rep.value("radical.dim", len(rad))
    return rep


def scenario_ext(args) -> ScenarioReport:
    rep = ScenarioReport("ext")
    A, modules, name, digest = _load(args)
    Ao = OrdinaryAlgebra(A)
    M, mname = _pick_module(A, modules, name, args.module)
    rep.inputs.update(algebra=name, digest=digest, module=mname,
                      field=A.field.name)
    Mo = OrdinaryModule.from_curved(Ao, M)
    dims = ext_oracle(Ao, Mo, Mo, args.truncation)
    for n, d in enumerate(dims):
        rep.value(f"Ext.{n}", d)
    rep.check("computed", True)
    return rep


# name: (function, {option it reads: default}, needs an ordinary algebra).
# A module or window default of None means the scenario's own choice.
SCENARIOS = {
    "verify": (scenario_verify, {}, False),
    "hochschild": (scenario_hochschild,
                   {"module": None, "truncation": 4, "window": None}, False),
    "koszul-check": (scenario_koszul_check,
                     {"module": None, "truncation": 4}, True),
    "morita": (scenario_morita, {"seed": 0}, True),
    "simples": (scenario_simples, {}, True),
    "ext": (scenario_ext, {"module": None, "truncation": 4}, True),
}
OPTIONS = sorted({opt for _, reads, _ in SCENARIOS.values() for opt in reads})


def run_scenario(name: str, args) -> ScenarioReport:
    try:
        fn, reads, _ = SCENARIOS[name]
    except KeyError:
        raise SystemExit(f"unknown scenario {name!r}; "
                         f"choices: {sorted(SCENARIOS)}") from None
    # an option the scenario would not read is refused, not ignored
    for opt in OPTIONS:
        if opt not in reads:
            if getattr(args, opt) is not None:
                raise InputError(f"{name} does not take --{opt}")
        elif getattr(args, opt) is None:
            setattr(args, opt, reads[opt])
    t0 = time.monotonic()
    try:
        rep = fn(args)
    except RefusedInput as e:
        # a non-ordinary or non-split algebra, or a characteristic below
        # the trace-form limit: input a method refuses, not a failed check
        raise InputError(str(e)) from None
    rep.timings["total"] = time.monotonic() - t0
    return rep


def _window(text):
    a, b = text.split(":")
    a, b = int(a), int(b)
    if a > b:
        raise argparse.ArgumentTypeError(f"empty window {text}: need a <= b")
    return a, b


def _truncation(text):
    W = int(text)
    if W < 0:
        raise argparse.ArgumentTypeError("truncation length must be >= 0")
    return W


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="bardual",
        description="exact checks for dg algebras, bar constructions, "
                    "Hochschild algebras and Morita duality")
    ap.add_argument("scenario", choices=sorted(SCENARIOS))
    ap.add_argument("--algebra", required=True,
                    help="builtin name or description file "
                         f"(builtins: {', '.join(sorted(BUILTIN_ALGEBRAS))})")
    ap.add_argument("--module", default=None,
                    help="builtin module (k, A, Adual) or file module name")
    ap.add_argument("--truncation", type=_truncation, default=None,
                    metavar="W")
    ap.add_argument("--window", type=_window, default=None, metavar="a:b")
    ap.add_argument("--field", default=None, help="Q or F<p> (builtins only)")
    ap.add_argument("--report", default=None, metavar="PATH")
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args(argv)

    try:
        rep = run_scenario(args.scenario, args)
    except (InputError, ParseError, ValidationError) as e:
        print(f"error: {e}")
        return 2
    _report_rows(rep, args)
    return 0 if rep.ok else 1


if __name__ == "__main__":
    sys.exit(main())
