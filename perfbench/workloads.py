"""The four workloads: what one pass runs, and how its outputs are checked.

A pass is the work timed as ``cold_s`` (first pass in a fresh
interpreter) or ``warm_s`` (second pass, same process).  It returns a
``Pass``: the operations it attempted, how many failed, and the outputs
that ``check`` reads afterwards, outside the timed region.

Every call into the program looks its function up on the module at call
time, so the trace mode's wrappers see it.  The checks use the
program's own functions only to build the two hand-computed values;
everything else is compared against numbers this module derives itself
(Catalan counts, exponential coefficients, least-squares slopes) or
against properties the mathematics guarantees.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import postlie  # noqa: E402
from postlie import algebroid, braiding, checks, cli, series  # noqa: E402
from postlie.coeffs import CoeffPoly  # noqa: E402

if os.path.dirname(os.path.abspath(postlie.__file__)) != os.path.join(SRC, "postlie"):
    raise ImportError(f"postlie imported from {postlie.__file__}, not from {SRC}")


@dataclass
class Pass:
    attempted: int
    failed: int
    output: list = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Identity suites


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def basis_tuple_count(max_grade: int, arity: int) -> int:
    """Tuples of planar forests with total grade <= max_grade.

    There are Catalan(g) planar forests of grade g, so this is the sum of
    the coefficients of x^0..x^max_grade in C(x)^arity.
    """
    poly = [1] + [0] * max_grade
    for _ in range(arity):
        poly = [sum(poly[i] * catalan(g - i) for i in range(g + 1))
                for g in range(max_grade + 1)]
    return sum(poly)


# Which case list each identity runs over: "pairs", "triples" and
# "singles" are the exhaustive basis tuples plus the random samples;
# "half-triples" takes half the samples, "samples" only the samples, and
# an integer is a fixed count.  Read off the suite definitions.
_P, _T, _S = "pairs", "triples", "singles"
SUITE_CASES = {
    "axioms": {
        "coproduct-of-action": _P, "action-on-unit": _S,
        "unit-acts-trivially": _S, "counit-of-action": _P,
        "left-coefficients-factor": _P, "action-on-product": _T,
        "action-composition": _T, "action-lands-in-scalars": _S,
        "scalars-act-by-multiplication": _S,
    },
    "gl": {
        "associativity": "half-triples", "unit": _S,
        "coproduct-multiplicative": _P, "counit-laws": _S,
        "counit-of-product": _P, "action-is-module": "half-triples",
    },
    "theta": {
        "right-inverse": _S, "left-inverse": _S, "anti-automorphism": _P,
        "involution": _S, "coproduct-compatible": _S,
        "coefficient-twist": _S, "concat-antipode-identity": _S,
        "recovers-from-concat-antipode": _S, "counit-of-theta": _S,
        "concat-product-recovery": _P, "counit-recovery": _S,
        "fixes-scalars": 50,
    },
    "smash": {"gl-factors-through-coefficient-action": _P},
    "degenerate": {
        "action-on-unit": _S, "unit-acts-trivially": _S,
        "action-on-product": _T, "action-composition": _T,
        "antipode-commutes-with-action": _P, "theta-is-gl-antipode": _S,
        "concat-antipode-law": _S,
    },
    "braiding": {
        "a": _P, "b": _P, "c": _T, "d": _T, "e": _S, "f": _S,
        "counit-lemma": _P, "bimodule-left": "samples",
        "bimodule-right": "samples",
    },
}


def expected_cases(suite: str, max_grade: int, samples: int) -> dict[str, int]:
    arity = {_S: 1, _P: 2, _T: 3, "half-triples": 3}
    out = {}
    for axiom, kind in SUITE_CASES[suite].items():
        if isinstance(kind, int):
            out[axiom] = kind
        elif kind == "samples":
            out[axiom] = samples
        else:
            extra = samples // 2 if kind == "half-triples" else samples
            out[axiom] = basis_tuple_count(max_grade, arity[kind]) + extra
    return out


def _suite_fn(suite: str):
    if suite == "braiding":
        return braiding.check_braiding
    return getattr(checks, f"suite_{suite}")


def run_suites(calls, seed: int) -> Pass:
    """Run (suite, kwargs) calls; a call that raises fails all its cases.

    The output holds one list of (identity, cases) per call, or None for
    a call that raised.
    """
    out = Pass(0, 0)
    for suite, kw in calls:
        try:
            reports = _suite_fn(suite)(seed=seed, **kw)
        except Exception as exc:  # a crash fails the call's cases, not the run
            n = sum(expected_cases(suite, kw["max_grade"], kw["samples"]).values())
            out.attempted += n
            out.failed += n
            out.errors.append(f"{suite}: {exc!r}")
            out.output.append(None)
            continue
        out.attempted += sum(r.cases for r in reports)
        out.failed += sum(r.failures for r in reports)
        out.output.append([(r.axiom, r.cases) for r in reports])
    return out


def check_suites(outputs, calls) -> list[str]:
    """Each suite's identities and case counts are the ones derived from
    the Catalan numbers at its sizes."""
    if len(outputs) != len(calls):
        return [f"{len(outputs)} suite results for {len(calls)} calls"]
    problems = []
    for (suite, kw), got in zip(calls, outputs):
        if got is None:
            continue
        want = expected_cases(suite, kw["max_grade"], kw["samples"])
        if len(got) != len(want) or dict(got) != want:
            problems.append(f"{suite} {kw}: cases {dict(got)} != {want}")
    return problems


def _dump_terms(text: str) -> dict[tuple[str, ...], str]:
    """``coeff | word | ...`` lines as {words: coeff}."""
    out = {}
    for line in text.splitlines():
        coeff, *words = line.split(" | ")
        out[tuple(words)] = coeff
    return out


def check_hand_values(with_braiding: bool) -> list[str]:
    """o*o = o o + [o], and r(o (x) o) = [o](x)1 + o(x)o - 1(x)[o]."""
    problems = []
    o = algebroid.parse_element("o")
    got = _dump_terms(algebroid.gl_product(o, o).dump())
    if got != {("o o",): "1", ("[o]",): "1"}:
        problems.append(f"o*o = {got}")
    if with_braiding:
        want = {("[o]", "1"): "1", ("o", "o"): "1", ("1", "[o]"): "-1"}
        tensor = algebroid.TensorElement.of(o, o)
        for name, value in (("braid_r", braiding.braid_r(tensor)),
                            ("braid_pair", braiding.braid_pair(o, o))):
            got = _dump_terms(value.dump())
            if got != want:
                problems.append(f"{name}(o (x) o) = {got}")
    return problems


class SuiteWorkload:
    def __init__(self, name: str, calls, with_braiding: bool):
        self.name = name
        self.calls = calls
        self.with_braiding = with_braiding

    def warm_seed(self, seed: int) -> int:
        return seed + 1

    def run(self, seed: int) -> Pass:
        return run_suites(self.calls, seed)

    def check(self, passes: list[Pass]) -> list[str]:
        problems = []
        for p in passes:
            problems += check_suites(p.output, self.calls)
        return problems + check_hand_values(self.with_braiding)


# Exhaustive sweeps make up both suite workloads: their cost does not
# depend on the seed, which only draws the coefficients that dress the
# basis forests.  The dressed bimodule identities of the braiding suite
# run on random samples only; those stay few and at grade <= 1.  Random
# samples of the degenerate suite stay at grade <= 2.  At higher grades
# one seed's samples can cost seven times another's.
COEFF_CALLS = (
    ("axioms", dict(max_grade=4, samples=0)),
    ("gl", dict(max_grade=4, samples=0)),
    ("theta", dict(max_grade=4, samples=0)),
    ("smash", dict(max_grade=5, samples=0)),
    ("braiding", dict(max_grade=4, samples=0)),
    ("braiding", dict(max_grade=1, samples=30, sample_grade=1)),
)

WORD_CALLS = (
    ("degenerate", dict(max_grade=6, samples=0)),
    ("degenerate", dict(max_grade=2, samples=200)),
)


# ---------------------------------------------------------------------------
# Backward error analysis


BEA_ORDER = 8


class SeriesWorkload:
    """modified_field('lie-euler', n) = log_gl(exp_concat(t.o)), mapped
    back with exp_gl; both dumped.  No seed: every pass recomputes the
    same order."""

    name = "bea-series"

    def __init__(self, order: int = BEA_ORDER):
        self.order = order

    def checks_per_pass(self) -> int:
        # primitivity of each degree, the round trip, the degree-2 term
        return self.order + 2

    def warm_seed(self, seed: int) -> int:
        return seed

    def run(self, seed: int) -> Pass:
        n = self.order
        try:
            modified = series.modified_field("lie-euler", n)
            back = series.exp_gl(modified, n)
            texts = (modified.dump(), back.dump())
        except Exception as exc:
            k = self.checks_per_pass()
            return Pass(k, k, errors=[repr(exc)])
        return Pass(self.checks_per_pass(), 0, [texts])

    def check(self, passes: list[Pass]) -> list[str]:
        outputs = [texts for p in passes for texts in p.output]
        if not outputs:
            return []
        problems = check_series(*outputs[0], self.order)
        if any(texts != outputs[0] for texts in outputs[1:]):
            problems.append("passes at the same order printed different series")
        return problems


def _series_terms(text: str) -> dict[int, dict[tuple[str, ...], Fraction]]:
    """``t^k | coeff | forest`` lines as {k: {trees: coeff}}."""
    out: dict[int, dict[tuple[str, ...], Fraction]] = {}
    for line in text.splitlines():
        deg, coeff, forest = line.split(" | ")
        trees = () if forest == "1" else tuple(forest.split(" "))
        out.setdefault(int(deg[2:]), {})[trees] = Fraction(coeff)
    return out


def _grade(trees: tuple[str, ...]) -> int:
    return sum(t.count("o") + t.count("[") for t in trees)


def _series_from_terms(terms, order: int):
    """Rebuild a series from its printed terms."""
    return series.TruncatedSeries(order, {
        k: algebroid.AlgebroidElement({
            postlie.parse_forest(" ".join(trees) or "1"): CoeffPoly.scalar(c)
            for trees, c in words.items()})
        for k, words in terms.items()})


def check_series(modified: str, back: str, order: int) -> list[str]:
    """The printed modified field and its image under exp_gl.

    Every degree term is primitive; the degree-2 term is -1/2.[o]; and
    exp_gl maps both the program's series and the series rebuilt from
    its printed terms to exp_concat(t.o) = sum_k t^k/k! o...o.
    """
    problems = []
    terms = _series_terms(modified)
    for k in range(1, order + 1):
        words = terms.get(k, {})
        if any(_grade(w) != k for w in words):
            problems.append(f"degree {k} term is not of grade {k}")
        # Primitive: the coproduct is x(x)1 + 1(x)x, so the proper
        # unshuffles of its words cancel.
        proper: dict[tuple, Fraction] = {}
        for trees, c in words.items():
            n = len(trees)
            for mask in range(1, (1 << n) - 1):
                left = tuple(t for i, t in enumerate(trees) if mask >> i & 1)
                right = tuple(t for i, t in enumerate(trees) if not mask >> i & 1)
                proper[left, right] = proper.get((left, right), 0) + c
        if any(proper.values()):
            problems.append(f"degree {k} term is not primitive")
    if terms.get(2) != {("[o]",): Fraction(-1, 2)}:
        problems.append(f"degree 2 term is {terms.get(2)}, not -1/2.[o]")
    want = {k: {("o",) * k: Fraction(1, math.factorial(k))} for k in range(order + 1)}
    if _series_terms(back) != want:
        problems.append("exp_gl of the modified field is not exp_concat(t.o)")
    rebuilt = series.exp_gl(_series_from_terms(terms, order), order)
    if _series_terms(rebuilt.dump()) != want:
        problems.append("exp_gl of the printed modified field is not exp_concat(t.o)")
    return problems


# ---------------------------------------------------------------------------
# SO(3) experiments


@dataclass(frozen=True)
class Experiment:
    kind: str
    method: str
    seed_offset: int = 0
    t_min: float = 1e-3
    t_max: float = 1e-1
    t_points: int = 8
    derivatives: str = "analytic"

    def argv(self, seed: int) -> list[str]:
        return ["experiment", self.kind, "--method", self.method,
                "--t-min", repr(self.t_min), "--t-max", repr(self.t_max),
                "--t-points", str(self.t_points),
                "--derivatives", self.derivatives,
                "--seed", str(seed + self.seed_offset), "--threads", "1"]


# Plain and aromatic volume on the default grid; one fd volume experiment
# (seconds per row) with its analytic twin on the same grid; analytic
# order experiments (milliseconds per step) over four seeds.
SO3_EXPERIMENTS = (
    Experiment("volume", "lie-euler"),
    Experiment("volume", "aromatic"),
    Experiment("volume", "aromatic", t_min=1e-2, t_points=5, derivatives="fd"),
    Experiment("volume", "aromatic", t_min=1e-2, t_points=5),
) + tuple(
    Experiment("order", method, seed_offset=k, t_min=2e-3, t_max=2e-2, t_points=6)
    for k in range(4) for method in ("lie-euler", "aromatic")
)

# Expected slope of |log det| (volume) or global error (order) against t,
# as (low, high).
SLOPES = {
    ("volume", "lie-euler"): (1.9, 2.1),
    ("volume", "aromatic"): (3.9, 4.1),
    ("order", "lie-euler"): (0.9, 1.1),
    ("order", "aromatic"): (1.9, math.inf),
}
FD_RTOL = 2e-3
CSV_HEADER = "t,log_det,abs_err,method,field,seed"


class ExperimentWorkload:
    name = "so3-experiments"

    def __init__(self, experiments=SO3_EXPERIMENTS):
        self.experiments = experiments

    def warm_seed(self, seed: int) -> int:
        return seed + 1

    def run(self, seed: int) -> Pass:
        out = Pass(0, 0)
        for exp in self.experiments:
            out.attempted += exp.t_points
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(exp.argv(seed))
            except Exception as exc:
                code = repr(exc)
            if code != 0:
                out.failed += exp.t_points
                out.errors.append(f"{exp.argv(seed)}: {code}")
                continue
            out.output.append((exp, seed, buf.getvalue()))
        return out

    def check(self, passes: list[Pass]) -> list[str]:
        problems = []
        for p in passes:
            problems += check_experiments(p.output)
        return problems


def parse_csv(text: str) -> tuple[list[tuple[float, float, float, str, str, int]], float]:
    """Rows and the printed slope of one experiment's stdout."""
    lines = text.splitlines()
    if len(lines) < 3 or not lines[0].startswith("# postlie ") or lines[1] != CSV_HEADER:
        raise ValueError("not an experiment CSV")
    rows = []
    for line in lines[2:-1]:
        t, ld, err, method, fld, seed = line.split(",")
        rows.append((float(t), float(ld), float(err), method, fld, int(seed)))
    slope = float(lines[-1].split()[1].removeprefix("slope="))
    return rows, slope


def fit_slope(points) -> float:
    """Least-squares slope of log y against log t."""
    xs = [math.log(t) for t, _ in points]
    ys = [math.log(y) for _, y in points]
    xm, ym = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - xm) * (y - ym) for x, y in zip(xs, ys))
            / sum((x - xm) ** 2 for x in xs))


def expected_t(exp: Experiment) -> list[float]:
    n = exp.t_points
    grid = [exp.t_max * (exp.t_min / exp.t_max) ** (i / (n - 1)) for i in range(n)]
    if exp.kind == "order":
        return [grid[0] / max(1, round(grid[0] / t)) for t in grid]
    return grid


def check_experiments(outputs) -> list[str]:
    problems = []
    volume_rows = {}
    for exp, seed, text in outputs:
        label = " ".join(exp.argv(seed))
        try:
            rows, printed = parse_csv(text)
        except ValueError as exc:
            problems.append(f"{label}: {exc}")
            continue
        volume_rows[exp, seed] = rows
        ts = [r[0] for r in rows]
        want_t = expected_t(exp)
        if len(ts) != len(want_t) or not all(
                math.isclose(a, b, rel_tol=1e-12) for a, b in zip(ts, want_t)):
            problems.append(f"{label}: t column {ts}")
        if any(r[3:] != (exp.method, "q33-curl", seed + exp.seed_offset) for r in rows):
            problems.append(f"{label}: method/field/seed columns")
        if exp.kind == "volume" and any(r[2] != abs(r[1]) for r in rows):
            problems.append(f"{label}: abs_err is not |log_det|")
        if any(not r[2] > 0 for r in rows):
            problems.append(f"{label}: non-positive error")
            continue
        slope = fit_slope([(r[0], r[2]) for r in rows])
        if abs(slope - printed) > 1e-9:
            problems.append(f"{label}: fitted slope {slope} != printed {printed}")
        low, high = SLOPES[exp.kind, exp.method]
        if not low <= slope <= high:
            problems.append(f"{label}: slope {slope} outside [{low}, {high}]")
    for (exp, seed), rows in volume_rows.items():
        if exp.derivatives != "fd":
            continue
        twin = volume_rows.get((replace(exp, derivatives="analytic"), seed))
        if twin is None:
            problems.append(f"fd {exp} seed {seed}: no analytic twin")
            continue
        for (t, ld, *_), (_, ld_a, *_) in zip(rows, twin):
            if abs(ld - ld_a) > FD_RTOL * abs(ld_a):
                problems.append(f"fd {exp.kind} seed {seed} t={t}: {ld} vs analytic {ld_a}")
    return problems


WORKLOADS = {
    "coeff-identities": SuiteWorkload("coeff-identities", COEFF_CALLS, with_braiding=True),
    "word-identities": SuiteWorkload("word-identities", WORD_CALLS, with_braiding=False),
    "bea-series": SeriesWorkload(),
    "so3-experiments": ExperimentWorkload(),
}
