"""Acceptance gate: one test per release criterion, one printed line each.

Every test prints ``criterion NN: pass|FAIL - detail`` and then asserts,
so a plain ``pytest -v -s`` run shows a human-readable scorecard next to
the pytest verdict lines.  Symbolic criteria are exact; numeric criteria
carry their tolerance and time budget in the assertions themselves.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import numpy as np

from postlie.algebroid import AlgebroidElement, parse_element
from postlie.braiding import check_braiding
from postlie.checks import (
    suite_axioms,
    suite_degenerate,
    suite_gl,
    suite_smash,
    suite_theta,
)
from postlie.coeffs import CoeffPoly
from postlie.geomint import (
    ExperimentConfig,
    element_tangent_matrix,
    eval_tree,
    geometric_grid,
    make_reference_stepper,
    random_rotation,
    run_experiment,
    slope_estimate,
    so3,
    step_volume,
    tree_field,
)
from postlie.series import exp_concat, exp_gl, field_series, log_gl, modified_field
from postlie.trees import left_graft, parse_forest, trees_of_size

from oracles import connection_field


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'pass' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _suite_outcome(reports) -> tuple[bool, int, str]:
    cases = sum(r.cases for r in reports)
    bad = [r for r in reports if not r.passed]
    note = "; ".join(r.line() for r in bad) if bad else ""
    return (not bad, cases, note)


# -- 1. axiom suite


def test_criterion_01_axiom_suite():
    t0 = time.perf_counter()
    reports = suite_axioms(max_grade=3, samples=200, sample_grade=4, seed=0)
    dt = time.perf_counter() - t0
    ok, cases, note = _suite_outcome(reports)
    ok = ok and dt < 60.0
    _report(
        1,
        ok,
        f"axiom suite exact, grade<=3 exhaustive + 200 grade-4 samples, "
        f"{cases} cases, {dt:.1f}s (limit 60s){note and ' :: ' + note}",
    )


# -- 2. product structure


def test_criterion_02_gl_structure():
    t0 = time.perf_counter()
    reports = suite_gl(max_grade=4, samples=200, sample_grade=4, seed=0)
    dt = time.perf_counter() - t0
    ok, cases, note = _suite_outcome(reports)
    ok = ok and dt < 60.0
    _report(
        2,
        ok,
        f"product structure exact, grade<=4, {cases} cases, "
        f"{dt:.1f}s (limit 60s){note and ' :: ' + note}",
    )


# -- 3. twisted antipode suite


def test_criterion_03_theta_suite():
    t0 = time.perf_counter()
    reports = suite_theta(max_grade=3, samples=100, sample_grade=3, seed=0)
    dt = time.perf_counter() - t0
    ok, cases, note = _suite_outcome(reports)
    ok = ok and dt < 60.0
    _report(
        3,
        ok,
        f"twisted antipode suite exact, grade<=3 exhaustive, {cases} cases, "
        f"{dt:.1f}s (limit 60s){note and ' :: ' + note}",
    )


# -- 4. braiding suite and worked value


def test_criterion_04_braiding():
    from postlie.algebroid import TensorElement
    from postlie.braiding import braid_pair

    t0 = time.perf_counter()
    reports = check_braiding(max_grade=3, samples=200, sample_grade=4, seed=0)
    dt = time.perf_counter() - t0
    ok, cases, note = _suite_outcome(reports)

    o = parse_element("o")
    got = braid_pair(o, o)
    want = (
        TensorElement({(parse_forest("[o]"), parse_forest("1")): CoeffPoly.one()})
        + TensorElement({(parse_forest("o"), parse_forest("o")): CoeffPoly.one()})
        + TensorElement(
            {(parse_forest("1"), parse_forest("[o]")): CoeffPoly.scalar(-1)}
        )
    )
    worked = got == want
    ok = ok and worked and dt < 120.0
    _report(
        4,
        ok,
        f"braiding suite exact, grade<=3 exhaustive + 200 grade-4 samples, "
        f"{cases} cases, worked value r(o(x)o) {'reproduced' if worked else 'WRONG'}, "
        f"{dt:.1f}s (limit 120s){note and ' :: ' + note}",
    )


# -- 5. smash-product oracle


def test_criterion_05_smash_oracle():
    t0 = time.perf_counter()
    reports = suite_smash(max_grade=3, samples=200, seed=0)
    dt = time.perf_counter() - t0
    ok, cases, note = _suite_outcome(reports)
    _report(
        5,
        ok,
        f"smash-product oracle exact on pure grade<=3 terms, {cases} cases, "
        f"{dt:.1f}s{note and ' :: ' + note}",
    )


# -- 6. degenerate-coefficient regression


def test_criterion_06_degenerate_regression():
    t0 = time.perf_counter()
    reports = suite_degenerate(max_grade=5, samples=100, seed=0)
    dt = time.perf_counter() - t0
    ok, cases, note = _suite_outcome(reports)
    _report(
        6,
        ok,
        f"degenerate-coefficient identities exact, grade<=5, {cases} cases, "
        f"{dt:.1f}s{note and ' :: ' + note}",
    )


# -- 7. eval homomorphism


def test_criterion_07_eval_homomorphism(field):
    t0 = time.perf_counter()
    rng = random.Random(0)
    points = [np.asarray(random_rotation(rng, so3()), float) for _ in range(10)]
    worst = 0.0
    pairs = 0
    for na in (1, 2, 3):
        for nb in range(1, 5 - na):
            for ta in trees_of_size(na):
                for tb in trees_of_size(nb):
                    pairs += 1
                    graft = left_graft(ta, tb)
                    right_field = connection_field(
                        tree_field(ta, field), tree_field(tb, field)
                    )
                    for p in points:
                        lhs = sum(
                            m * np.asarray(eval_tree(t, field, p), float)
                            for t, m in graft.items()
                        )
                        rhs = np.asarray(right_field.values(p), float)
                        scale = max(1.0, float(np.max(np.abs(rhs))))
                        worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and dt < 30.0
    _report(
        7,
        ok,
        f"grafting evaluates to the frame connection on SO(3): {pairs} tree pairs "
        f"of total grade<=4 at 10 points, worst rel err {worst:.2e} "
        f"(tol 1e-8), {dt:.1f}s (limit 30s)",
    )


# -- 8. exponentials against flows


def _series_taylor_matrix(series, field, p, t):
    total = None
    for k, x in sorted(series.coeffs.items()):
        M = np.asarray(element_tangent_matrix(x, field, p), np.longdouble)
        term = (np.longdouble(t) ** k) * M
        total = term if total is None else total + term
    return total


def test_criterion_08_exponentials_vs_flows(field):
    from postlie.geomint import lie_euler_step

    t0 = time.perf_counter()
    p = np.asarray(random_rotation(random.Random(1), so3()), np.longdouble)
    grid = geometric_grid(1e-3, 1e-1, 8)
    reference = make_reference_stepper(field)

    s_gl = exp_gl(field_series(3), 3)
    flow_pairs = []
    for t in grid:
        approx = _series_taylor_matrix(s_gl, field, p, t)
        exact = reference(p, t)
        flow_pairs.append((t, float(np.max(np.abs(approx - exact)))))
    slope_flow, _ = slope_estimate(flow_pairs)

    s_c = exp_concat(field_series(3), 3)
    euler_pairs = []
    for t in grid:
        approx = _series_taylor_matrix(s_c, field, p, t)
        stepped = lie_euler_step(field, p, t)
        euler_pairs.append((t, float(np.max(np.abs(approx - stepped)))))
    slope_euler, _ = slope_estimate(euler_pairs)

    dt = time.perf_counter() - t0
    ok = abs(slope_flow - 4.0) <= 0.2 and abs(slope_euler - 4.0) <= 0.2 and dt < 60.0
    _report(
        8,
        ok,
        f"order-3 exponentials: flow-expansion slope {slope_flow:.3f}, "
        f"one-step-expansion slope {slope_euler:.3f} (want 4.0+-0.2), "
        f"{dt:.1f}s (limit 60s)",
    )


# -- 9. modified field degree 2


def test_criterion_09_modified_field_degree2():
    got = log_gl(exp_concat(field_series(3), 3), 3).coeff(2)
    want = AlgebroidElement.from_forest(parse_forest("[o]"), Fraction(-1, 2))
    ok = got == want
    _report(
        9,
        ok,
        f"backward-error degree-2 term equals -1/2.[o] exactly "
        f"(got {got.dump().replace(chr(10), '; ')})",
    )


# -- 10. volume slopes


def test_criterion_10_volume_slopes():
    t0 = time.perf_counter()
    plain = run_experiment(
        ExperimentConfig(kind="volume", method="lie-euler", seed=0)
    )
    aromatic = run_experiment(
        ExperimentConfig(kind="volume", method="aromatic", seed=0)
    )
    dt = time.perf_counter() - t0
    ok = (
        abs(plain.slope - 2.0) <= 0.25
        and abs(aromatic.slope - 4.0) <= 0.4
        and dt < 120.0
    )
    _report(
        10,
        ok,
        f"volume defect slopes on 8-point grid in [1e-3,1e-1]: "
        f"plain {plain.slope:.3f} (want 2.0+-0.25), "
        f"aromatic {aromatic.slope:.3f} (want 4.0+-0.4), "
        f"{dt:.1f}s (limit 120s)",
    )


# -- 11. exact flow preserves volume


def test_criterion_11_reference_volume(field):
    p = np.asarray(random_rotation(random.Random(2), so3()), np.longdouble)
    stepper = make_reference_stepper(field)
    values = {t: abs(float(step_volume(stepper, p, t))) for t in (1e-2, 3e-3, 1e-3)}
    worst = max(values.values())
    ok = worst <= 1e-8
    _report(
        11,
        ok,
        f"reference flow volume defect |log det| <= 1e-8 for t <= 1e-2 "
        f"(worst {worst:.2e})",
    )


# -- 12. enumeration counts


def test_criterion_12_tree_counts():
    counts = [len(trees_of_size(n)) for n in range(1, 6)]
    # Independent cross-check: the enumeration must be duplicate-free and
    # match the convolution recurrence for plane trees.
    distinct = all(
        len(set(trees_of_size(n))) == len(trees_of_size(n)) for n in range(1, 6)
    )
    rec = [1]
    for n in range(1, 5):
        rec.append(sum(rec[i] * rec[n - 1 - i] for i in range(n)))
    ok = counts == [1, 1, 2, 5, 14] and counts == rec and distinct
    _report(12, ok, f"planar trees per vertex count {counts} (want [1, 1, 2, 5, 14])")


# -- 13. CLI determinism


def _cli_capture(argv) -> bytes:
    import contextlib
    import io

    from postlie.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, f"exit {code} for {argv}"
    return buf.getvalue().encode()


def test_criterion_13_cli_determinism(tmp_path):
    # Determinism is the property under test, so the suites run at reduced
    # depth; full-depth verdicts are criteria 1-6.
    suites = ("axioms", "gl", "theta", "smash", "degenerate", "braiding")
    stable = True
    detail = []
    for name in suites:
        argv = [
            "algebra", "check", "--suite", name,
            "--max-grade", "2", "--samples", "5", "--seed", "11",
        ]
        if _cli_capture(list(argv)) != _cli_capture(list(argv)):
            stable = False
            detail.append(f"{name} differs across runs")

    exp = [
        "experiment", "volume",
        "--t-min", "1e-2", "--t-max", "1e-1", "--t-points", "5", "--seed", "11",
    ]
    f1, f8 = tmp_path / "t1.csv", tmp_path / "t8.csv"
    _cli_capture(exp + ["--threads", "1", "--out", str(f1)])
    _cli_capture(exp + ["--threads", "8", "--out", str(f8)])
    rerun = _cli_capture(exp + ["--threads", "1", "--out", str(f1)])
    if f1.read_bytes() != f8.read_bytes():
        stable = False
        detail.append("experiment output differs between 1 and 8 threads")
    if rerun != _cli_capture(exp + ["--threads", "1", "--out", str(f1)]):
        stable = False
        detail.append("experiment output differs across runs")

    _report(
        13,
        stable,
        "byte-identical CLI output across repeat runs and thread counts 1/8"
        + ("" if stable else " :: " + "; ".join(detail)),
    )
