"""Identity-check suites: report protocol and determinism."""

from __future__ import annotations

from postlie import checks
from postlie.checks import (
    CheckReport,
    suite_axioms,
    suite_degenerate,
    suite_gl,
    suite_smash,
    suite_theta,
)
from postlie.cli import SUITES
from postlie.trees import EMPTY_FOREST


def test_suite_registry():
    assert set(SUITES) == {"axioms", "gl", "theta", "smash", "degenerate", "braiding"}


def test_report_line_format():
    r = CheckReport("axioms", "left-unit", 12, 0, 3, 0)
    assert r.passed
    assert r.line() == "axiom=left-unit cases=12 status=pass"
    bad = CheckReport("axioms", "left-unit", 12, 2, 3, 0, witness="o|o")
    assert not bad.passed
    assert bad.line() == "axiom=left-unit cases=12 status=fail witness=o|o"


def test_small_suites_pass():
    for suite, kwargs in [
        (suite_axioms, dict(max_grade=2, samples=6, sample_grade=3, seed=1)),
        (suite_gl, dict(max_grade=2, samples=6, sample_grade=3, seed=1)),
        (suite_theta, dict(max_grade=2, samples=4, sample_grade=3, seed=1)),
        (suite_smash, dict(max_grade=2, samples=6, seed=1)),
        (suite_degenerate, dict(max_grade=3, samples=6, seed=1)),
    ]:
        reports = suite(**kwargs)
        assert reports, suite.__name__
        for r in reports:
            assert r.passed, r.line()
            assert r.cases > 0


def test_suites_are_deterministic():
    a = [r.line() for r in suite_gl(max_grade=2, samples=5, sample_grade=3, seed=9)]
    b = [r.line() for r in suite_gl(max_grade=2, samples=5, sample_grade=3, seed=9)]
    assert a == b


def test_seed_changes_samples():
    # Different seeds must not change the verdict, only the sampled cases.
    a = suite_smash(max_grade=2, samples=5, seed=1)
    b = suite_smash(max_grade=2, samples=5, seed=2)
    assert all(r.passed for r in a + b)


def test_failing_identity_reports_count_and_witness(monkeypatch):
    # The smash identity made to fail whenever the left word is non-empty:
    # the report counts every failing case and shows the first one.
    seen = []

    def fails_on_left_word(wa, wb, f, g):
        seen.append((wa, wb, f, g))
        return not wa.trees

    monkeypatch.setattr(checks, "gl_factors_through_coefficient_action",
                        fails_on_left_word)
    [report] = suite_smash(max_grade=1, samples=6, seed=3)
    failing = [case for case in seen if case[0].trees]
    assert report.cases == len(seen) == 3 + 6
    assert report.failures == len(failing) > 1
    # The first case (1, 1) passes, so the witness is not simply case one.
    assert seen[0][0] == seen[0][1] == EMPTY_FOREST
    assert report.witness == ";".join(str(c) for c in failing[0])
    assert not report.passed
    assert report.line() == (f"axiom=gl-factors-through-coefficient-action "
                             f"cases=9 status=fail witness={report.witness}")
