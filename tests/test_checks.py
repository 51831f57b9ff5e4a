"""Identity-check suites: report protocol and determinism."""

from __future__ import annotations

from postlie.checks import (
    CheckReport,
    SUITES,
    suite_axioms,
    suite_degenerate,
    suite_gl,
    suite_smash,
    suite_theta,
)


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
