"""Command line front end: output shape, config handling, exit codes."""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import io
import os
import pathlib
import subprocess
import sys
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from postlie.checks import CheckReport
from postlie.cli import BINARY_OPS, MAX_OPERAND_TERMS, MAX_SAMPLES, SUITES, UNARY_OPS, main
from postlie.trees import forests_of_grade


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# -- trees


def test_trees_enumerate(capsys):
    code, out, err = run(capsys, "trees", "enumerate", "--max-grade", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# postlie command=trees-enumerate")
    assert "count=4" in lines[0]
    assert lines[1:] == ["1", "o", "[o]", "o o"]


def test_trees_enumerate_capacity(capsys):
    code, out, err = run(capsys, "trees", "enumerate", "--max-grade", "9")
    assert code == 2
    assert err.startswith("error:")


# -- algebra


def test_algebra_eval_gl(capsys):
    code, out, _ = run(
        capsys, "algebra", "eval", "--op", "gl", "--left", "o", "--right", "o"
    )
    assert code == 0
    assert out.splitlines()[1:] == ["1 | [o]", "1 | o o"]


def test_algebra_eval_unary(capsys):
    code, out, _ = run(capsys, "algebra", "eval", "--op", "theta", "--left", "[o]")
    assert code == 0
    assert out.splitlines()[1:] == ["-1 | [o]"]


def test_algebra_eval_concat_and_triangle(capsys):
    code, out, _ = run(
        capsys, "algebra", "eval", "--op", "concat", "--left", "[o]", "--right", "o"
    )
    assert out.splitlines()[1:] == ["1 | [o] o"]
    code, out, _ = run(
        capsys, "algebra", "eval", "--op", "triangle", "--left", "o", "--right", "[o]"
    )
    assert out.splitlines()[1:] == ["1 | [[o]]", "1 | [oo]"]


def test_algebra_eval_missing_right(capsys):
    code, out, err = run(capsys, "algebra", "eval", "--op", "gl", "--left", "o")
    assert code == 2
    assert "error:" in err


def test_algebra_eval_parse_error(capsys):
    code, _, err = run(
        capsys, "algebra", "eval", "--op", "gl", "--left", "[o", "--right", "o"
    )
    assert code == 2
    assert "error:" in err


def test_algebra_eval_deep_nesting(capsys):
    deep = "[" * 1200 + "o" + "]" * 1200
    code, out, err = run(capsys, "algebra", "eval", "--op", "theta", "--left", deep)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    code, out, _ = run(capsys, "algebra", "eval", "--op", "concat",
                       "--left", deep, "--right", "o")
    assert code == 0
    assert out.splitlines()[1:] == [f"1 | {deep} o"]
    too_deep = "[" * 5000 + "o" + "]" * 5000
    code, out, err = run(capsys, "algebra", "eval", "--op", "concat",
                         "--left", too_deep, "--right", "o")
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_algebra_check_suite(capsys):
    code, out, _ = run(
        capsys,
        "algebra", "check", "--suite", "theta",
        "--max-grade", "2", "--samples", "4", "--seed", "7",
    )
    assert code == 0
    lines = out.splitlines()
    assert "seed=7" in lines[0]
    assert lines[1:]
    assert all("status=pass" in ln for ln in lines[1:])


def test_algebra_check_braiding(capsys):
    code, out, _ = run(
        capsys,
        "algebra", "check", "--suite", "braiding",
        "--max-grade", "2", "--samples", "4",
    )
    assert code == 0
    assert all("status=pass" in ln for ln in out.splitlines()[1:])


# The calls of acceptance criteria 01-06.
GATE_CALLS = {
    "axioms": dict(max_grade=3, samples=200, sample_grade=4, seed=0),
    "gl": dict(max_grade=4, samples=200, sample_grade=4, seed=0),
    "theta": dict(max_grade=3, samples=100, sample_grade=3, seed=0),
    "braiding": dict(max_grade=3, samples=200, sample_grade=4, seed=0),
    "smash": dict(max_grade=3, samples=200, seed=0),
    "degenerate": dict(max_grade=5, samples=100, seed=0),
}


@pytest.mark.parametrize("suite", sorted(GATE_CALLS))
def test_algebra_check_passes_only_given_sizes(capsys, monkeypatch, suite):
    fn = SUITES[suite]
    calls = []

    @functools.wraps(fn)
    def record(**kwargs):
        bound = inspect.signature(fn).bind(**kwargs)
        bound.apply_defaults()
        calls.append(dict(bound.arguments))
        return []

    monkeypatch.setitem(SUITES, suite, record)
    gate = GATE_CALLS[suite]
    code, out, _ = run(capsys, "algebra", "check", "--suite", suite)
    assert code == 0
    assert calls == [gate]
    assert out.endswith(f"max-grade={gate['max_grade']} samples={gate['samples']} seed=0\n")
    # Flags replace only their own size: the sample grade stays the suite's.
    code, out, _ = run(capsys, "algebra", "check", "--suite", suite,
                       "--max-grade", "2", "--samples", "5", "--seed", "11")
    assert code == 0
    assert calls[1] == dict(gate, max_grade=2, samples=5, seed=11)
    assert out.endswith("max-grade=2 samples=5 seed=11\n")


def test_algebra_check_failing_identity_exits_1(capsys, monkeypatch):
    def failing(max_grade=1, samples=2, seed=0):
        return [CheckReport("smash", "holds", 3, 0, max_grade, seed),
                CheckReport("smash", "breaks", 3, 2, max_grade, seed, witness="o;[o]"),
                CheckReport("smash", "also-breaks", 4, 1, max_grade, seed, witness="1")]

    monkeypatch.setitem(SUITES, "smash", failing)
    code, out, err = run(capsys, "algebra", "check", "--suite", "smash", "--seed", "5")
    assert code == 1
    assert err == ""
    assert out.splitlines() == [
        "# postlie command=algebra-check suite=smash max-grade=1 samples=2 seed=5",
        "axiom=holds cases=3 status=pass",
        "axiom=breaks cases=3 status=fail witness=o;[o]",
        "axiom=also-breaks cases=4 status=fail witness=1",
        "# 2 identity(ies) failed; first counterexample on the witness field",
    ]


def test_algebra_check_unknown_suite(capsys):
    with pytest.raises(SystemExit):
        main(["algebra", "check", "--suite", "nonsense"])


def test_algebra_check_has_no_threads_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["algebra", "check", "--suite", "smash", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


# Text from the characters of elements, numbers and exponents.  Short,
# because operation cost grows fast with grade; the property is about
# parsing and exit codes, not capacity.
ELEMENT_TEXT = st.text(alphabet="o[] 0123456789/*+-.e", max_size=8)


@settings(max_examples=300, deadline=None)
@given(op=st.sampled_from(sorted(BINARY_OPS) + sorted(UNARY_OPS)),
       left=ELEMENT_TEXT, right=st.none() | ELEMENT_TEXT)
@example(op="theta", left="1e99999999 o", right=None)
@example(op="theta", left="1e999999 o", right=None)
@example(op="gl", left="--", right="5")
def test_algebra_eval_exit_contract(op, left, right):
    # ``--left=TEXT`` keeps argparse from reading a leading '-' as a flag.
    argv = ["algebra", "eval", "--op", op, f"--left={left}"]
    if right is not None:
        argv.append(f"--right={right}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert len(err.getvalue().splitlines()) <= 1
    if code == 2:
        assert err.getvalue().startswith("error:") and out.getvalue() == ""


def _command(head: list[str], sizes: dict, flags: dict) -> st.SearchStrategy:
    """argv for one subcommand: every flag in ``sizes`` given, each one in
    ``flags`` given or left out.  Each is passed as ``--flag=VALUE``, which
    keeps argparse from reading a negative value as a flag."""
    return st.fixed_dictionaries(sizes, optional=flags).map(
        lambda given: [*head, *(f"--{k}={v}" for k, v in given.items())])


# Sizes are always given and small, since cost grows fast with order,
# grade and samples and the defaults are the gate sizes; negative values
# and one far past every capacity bound are drawn too.
SEED = st.integers(-2, 20)
GRADE = st.integers(-3, 2) | st.just(99)
ORDER = st.integers(-3, 4) | st.just(99)
METHOD = st.sampled_from(("lie-euler", "aromatic"))

COMMANDS = st.one_of(
    _command(["trees", "enumerate"], {}, {"max-grade": GRADE, "seed": SEED}),
    st.sampled_from(sorted(SUITES)).flatmap(lambda suite: _command(
        ["algebra", "check", "--suite", suite],
        {"max-grade": GRADE, "samples": st.integers(-2, 3)}, {"seed": SEED})),
    _command(["series", "gl-exp"], {"order": ORDER}, {"seed": SEED}),
    _command(["series", "modified-field"], {"order": ORDER},
             {"method": METHOD, "seed": SEED}),
    st.sampled_from(("volume", "order")).flatmap(lambda kind: _command(
        ["experiment", kind],
        {"t-points": st.just(5),
         "t-min": st.sampled_from(("1e-2", "2e-2", "0", "-1", "nan", "inf")),
         "t-max": st.sampled_from(("1e-1", "5e-2", "1e-2"))},
        {"method": METHOD,
         "group": st.sampled_from(("so3", "se3")),
         "field": st.sampled_from(("q33-curl", "none")),
         "base-point": st.sampled_from(("random", "identity")),
         "derivatives": st.sampled_from(("analytic", "fd")),
         "threads": st.integers(-1, 2),
         "seed": SEED})),
)


@settings(max_examples=80, deadline=None)
@given(argv=COMMANDS)
def test_every_subcommand_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert len(err.getvalue().splitlines()) <= 1
    if code == 2:
        assert err.getvalue().startswith("error:") and out.getvalue() == ""


# Usage errors, which the argument parser itself rejects.  Every long flag
# the parser knows, so that a drawn unknown flag is not an abbreviation
# of one (argparse accepts unique prefixes).
KNOWN_FLAGS = ("--help", "--seed", "--config", "--max-grade", "--op", "--left",
               "--right", "--suite", "--samples", "--order", "--method", "--group",
               "--field", "--t-min", "--t-max", "--t-points", "--base-point",
               "--derivatives", "--out", "--threads")
# One valid command line per subcommand, to which a bad argument is added.
VALID_HEADS = (
    ["trees", "enumerate"],
    ["algebra", "eval", "--op", "theta", "--left", "o"],
    ["algebra", "check", "--suite", "smash"],
    ["series", "gl-exp"],
    ["series", "modified-field", "--method", "aromatic"],
    ["experiment", "volume"],
    ["experiment", "order"],
)
CHOICE_FLAGS = {
    ("algebra", "eval"): ("op", sorted(BINARY_OPS) + sorted(UNARY_OPS)),
    ("algebra", "check"): ("suite", sorted(SUITES)),
    ("series", "modified-field"): ("method", ["lie-euler", "aromatic"]),
    ("experiment", "volume"): ("base-point", ["random", "identity"]),
    ("experiment", "order"): ("derivatives", ["analytic", "fd"]),
}
NUMBER_FLAGS = (
    (["trees", "enumerate"], "max-grade", int),
    (["algebra", "check", "--suite", "gl"], "samples", int),
    (["series", "gl-exp"], "order", int),
    (["experiment", "volume"], "seed", int),
    (["experiment", "order"], "threads", int),
    (["experiment", "volume"], "t-points", int),
    (["experiment", "volume"], "t-min", float),
    (["experiment", "order"], "t-max", float),
)
WORD = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_", min_size=1, max_size=10)


def _not_a(kind):
    """Text that ``kind`` (int or float) does not parse."""
    def rejected(text: str) -> bool:
        try:
            kind(text)
        except ValueError:
            return True
        return False
    return st.text(max_size=8).filter(rejected)


INVALID_ARGV = st.one_of(
    # Unknown subcommands, at the top and at the second level.
    WORD.filter(lambda w: not w.startswith("-")
                and w not in ("trees", "algebra", "series", "experiment"))
        .map(lambda w: [w]),
    st.tuples(st.sampled_from(("trees", "algebra", "series", "experiment")),
              WORD.filter(lambda w: not w.startswith("-")))
        .filter(lambda c: c[1] not in ("enumerate", "eval", "check", "gl-exp",
                                       "modified-field", "volume", "order"))
        .map(list),
    # Unknown flags, with and without a value, newlines included.
    st.tuples(st.sampled_from(VALID_HEADS),
              st.from_regex(r"--[a-z][a-z0-9-]{0,8}", fullmatch=True)
                .filter(lambda f: not any(k.startswith(f) for k in KNOWN_FLAGS)),
              st.none() | st.text(max_size=8))
        .map(lambda c: c[0] + [c[1] if c[2] is None else f"{c[1]}={c[2]}"]),
    # Values outside a flag's choices.
    st.sampled_from(sorted(CHOICE_FLAGS)).flatmap(
        lambda head: st.text(max_size=8)
        .filter(lambda v: v not in CHOICE_FLAGS[head][1])
        .map(lambda v: [*head, f"--{CHOICE_FLAGS[head][0]}={v}"])),
    # Values that are not numbers.
    st.sampled_from(NUMBER_FLAGS).flatmap(
        lambda case: _not_a(case[2]).map(
            lambda v: [*case[0], f"--{case[1]}={v}"])),
    # Required arguments left out.
    st.sampled_from(([], ["trees"], ["algebra"], ["series"], ["experiment"],
                     ["algebra", "eval"], ["algebra", "eval", "--op", "gl"],
                     ["algebra", "eval", "--left", "o"], ["algebra", "check"])),
)


@settings(max_examples=150, deadline=None)
@given(argv=INVALID_ARGV)
@example(argv=["bogus"])
@example(argv=["experiment", "volume", "--base-point", "x"])
@example(argv=["series", "gl-exp", "--order", "x"])
@example(argv=["algebra", "eval", "--op", "gl"])
def test_usage_errors_end_in_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            main(argv)
    assert exc.value.code == 2
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert out.getvalue() == ""


@pytest.mark.parametrize("argv", [
    ("trees", "enumerate", "--max-grade=-3"),
    ("algebra", "check", "--suite", "gl", "--samples=-1"),
    ("algebra", "check", "--suite", "smash", "--max-grade=-1"),
    ("series", "gl-exp", "--order=-1"),
    ("series", "modified-field", "--method", "aromatic", "--order=-1"),
    ("experiment", "volume", "--t-points=-5"),
])
def test_negative_sizes_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "nonnegative" in err
    assert len(err.splitlines()) == 1


def _sum_of_words(n: int) -> str:
    """The sum of the first n distinct forests in order of grade."""
    words = (w.encoding for g in range(9) for w in forests_of_grade(g))
    return " + ".join(next(words) for _ in range(n))


TOO_MANY = _sum_of_words(MAX_OPERAND_TERMS + 1)


@pytest.mark.parametrize("argv", [
    ("algebra", "check", "--suite", "gl", "--max-grade", "9"),
    ("algebra", "check", "--suite", "braiding", "--max-grade", "7"),
    ("series", "gl-exp", "--order", "12"),
    ("series", "modified-field", "--method", "lie-euler", "--order", "11"),
    ("algebra", "eval", "--op", "antipode", "--left", " ".join(["o"] * 12)),
    ("algebra", "eval", "--op", "theta", "--left", " ".join(["o"] * 12)),
    ("algebra", "eval", "--op", "gl", "--left", " ".join(["o"] * 11), "--right", "o"),
    ("algebra", "eval", "--op", "triangle", "--left", " ".join(["o"] * 11),
     "--right", "o"),
    ("algebra", "eval", "--op", "gl", "--left", " ".join(["o"] * 8),
     "--right", " ".join(["o"] * 8)),
    ("algebra", "eval", "--op", "theta", "--left", TOO_MANY),
    ("algebra", "eval", "--op", "antipode", "--left", TOO_MANY),
    ("algebra", "eval", "--op", "gl", "--left", "o", "--right", TOO_MANY),
    ("algebra", "eval", "--op", "triangle", "--left", TOO_MANY, "--right", "o"),
    ("algebra", "eval", "--op", "concat", "--left", _sum_of_words(2000),
     "--right", _sum_of_words(2000)),
    ("algebra", "check", "--suite", "smash", "--max-grade", "0",
     "--samples", "100000000"),
    ("algebra", "check", "--suite", "smash", "--max-grade", "0",
     "--samples", str(MAX_SAMPLES + 1)),
])
def test_capacity_bounds_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_operand_term_bound_admits_its_value(capsys):
    code, out, _ = run(capsys, "algebra", "eval", "--op", "concat",
                       "--left", _sum_of_words(MAX_OPERAND_TERMS), "--right", "o")
    assert code == 0
    assert len(out.splitlines()) == 1 + MAX_OPERAND_TERMS


def test_sample_bound_admits_its_value(capsys):
    code, out, _ = run(capsys, "algebra", "check", "--suite", "smash",
                       "--max-grade", "0", "--samples", str(MAX_SAMPLES))
    assert code == 0
    assert f"samples={MAX_SAMPLES}" in out.splitlines()[0]


# -- series


def test_series_gl_exp(capsys):
    code, out, _ = run(capsys, "series", "gl-exp", "--order", "2")
    assert code == 0
    body = out.splitlines()[1:]
    assert body[0] == "t^0 | 1 | 1"
    assert "t^2 | 1/2 | [o]" in body


def test_series_modified_field(capsys):
    code, out, _ = run(
        capsys, "series", "modified-field", "--method", "lie-euler", "--order", "2"
    )
    assert code == 0
    assert out.splitlines()[1:] == ["t^1 | 1 | o", "t^2 | -1/2 | [o]"]


def test_series_order_zero(capsys):
    # The field t.o has degree 1, so at order 0 it truncates to zero.
    code, out, _ = run(capsys, "series", "gl-exp", "--order", "0")
    assert code == 0
    assert out.splitlines()[1:] == ["t^0 | 1 | 1"]
    code, out, _ = run(
        capsys, "series", "modified-field", "--method", "lie-euler", "--order", "0"
    )
    assert code == 0
    assert out.splitlines()[1:] == ["0"]


# sha256 of the whole stdout, header line included, pinned from the
# Fraction-based series code that preceded integer numerators.
@pytest.mark.parametrize("argv, lines, digest", [
    (("series", "modified-field", "--method", "lie-euler", "--order", "10"), 22092,
     "8c42f6cefe1f9036839248cf229581aa49b759c65adcad485f776aa65b71fde0"),
    (("series", "gl-exp", "--order", "10"), 23715,
     "101b443ed068dbb051a0282ee33d04c8a1de9343672b866766641358282ee9bc"),
])
def test_series_stdout_golden(capsys, argv, lines, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_series_unknown_method(capsys):
    # Rejected by the argument parser itself.
    with pytest.raises(SystemExit):
        main(["series", "modified-field", "--method", "rk4", "--order", "2"])


# -- experiments


EXP_ARGS = (
    "experiment", "volume",
    "--t-min", "1e-2", "--t-max", "1e-1", "--t-points", "5",
    "--seed", "3",
)


def test_experiment_volume_stdout(capsys):
    code, out, _ = run(capsys, *EXP_ARGS)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# postlie command=experiment-volume")
    assert lines[1] == "t,log_det,abs_err,method,field,seed"
    assert len(lines) == 2 + 5 + 1
    assert lines[-1].startswith("# slope=")


# sha256 of the whole stdout, header line included, pinned from the
# steppers that took one point per call, before they took stacks.
@pytest.mark.parametrize("kind, method, derivatives, seed, digest", [
    ("volume", "lie-euler", "analytic", "1",
     "60df5ed2679100ef7f33275e6751988ed1ce772f5f09c5be7f71b0af4aee383b"),
    ("volume", "aromatic", "analytic", "1",
     "d55e55180f23ad5257b61f0f5d31c738d99fbf40bd6ae4289e487048f411ce68"),
    ("volume", "aromatic", "fd", "1",
     "85b6cf69a0afbb84a4557489bdb306855543d51e6d0446809d81e9531a6b2974"),
    ("order", "lie-euler", "analytic", "1",
     "5c5b73c0d612eae7ad6acfabfbc774ca97f5f7cf853e281a022de2d37af9cc8a"),
    ("order", "aromatic", "analytic", "1",
     "f4e07bf9505b4ef63402b1987d24decd8bb134dae6fb2c510f3c5e73e07030a4"),
    ("volume", "lie-euler", "analytic", "300",
     "fcc68a369510152c2e90c94dc3eadad09094a0f2e09bea4e7e1fb0ad0abe135d"),
    ("volume", "aromatic", "analytic", "300",
     "8d14fc6ff864085107b2166b12f42d7aeb7c65ef6da064a3063014f3fe788f34"),
    ("volume", "aromatic", "fd", "300",
     "ac8ef767664a1927728f7048fe77732d0fe18bd93968984763d91337da05deb2"),
    ("order", "lie-euler", "analytic", "300",
     "e1aeefc5d5abb72b9bc71f7fd606ee7a2dcb4a4f0a3cd10ecf544ce7f7fce9c3"),
    ("order", "aromatic", "analytic", "300",
     "9884afb847fff24491ea4436a28845b31c22c35b03b3f88e0bfeb331e20840ef"),
])
def test_experiment_stdout_golden(capsys, kind, method, derivatives, seed, digest):
    code, out, _ = run(capsys, "experiment", kind, "--method", method,
                       "--derivatives", derivatives, "--t-min", "1e-2",
                       "--t-points", "5", "--seed", seed)
    assert code == 0
    assert len(out.splitlines()) == 2 + 5 + 1
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_experiment_volume_out_file(capsys, tmp_path):
    target = tmp_path / "vol.csv"
    code, out, _ = run(capsys, *EXP_ARGS, "--out", str(target))
    assert code == 0
    body = target.read_text()
    assert body.splitlines()[0] == "t,log_det,abs_err,method,field,seed"
    # Stdout carries the same table.
    assert body.strip().splitlines()[1] in out


def test_experiment_thread_determinism(capsys, tmp_path):
    f1, f8 = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, *EXP_ARGS, "--threads", "1", "--out", str(f1))
    run(capsys, *EXP_ARGS, "--threads", "8", "--out", str(f8))
    assert f1.read_bytes() == f8.read_bytes()


def test_experiment_rerun_determinism(capsys):
    _, out1, _ = run(capsys, *EXP_ARGS)
    _, out2, _ = run(capsys, *EXP_ARGS)
    assert out1 == out2


def test_experiment_validates_grid(capsys):
    code, _, err = run(
        capsys,
        "experiment", "volume",
        "--t-min", "1e-2", "--t-max", "1e-1", "--t-points", "3",
    )
    assert code == 2
    assert "error:" in err


def test_experiment_numeric_error_exits_2(capsys):
    # Steps this long leave the exponential chart of the step image.
    code, out, err = run(capsys, "experiment", "volume",
                         "--t-min", "10", "--t-max", "300")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("experiment", "volume", "--threads", "1000000"),
    ("experiment", "volume", "--t-points", "1000000000000"),
    ("experiment", "order", "--t-min", "1e-12", "--t-max", "1e-1"),
    ("experiment", "order", "--t-min", "5e-324", "--t-max", "1e-1"),
])
def test_experiment_bounds_exit_2_before_any_row(capsys, monkeypatch, argv):
    def no_rows(cfg):
        raise AssertionError("experiment started")

    monkeypatch.setattr("postlie.geomint.run_experiment", no_rows)
    threads_before = threading.active_count()
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert threading.active_count() == threads_before


@pytest.mark.parametrize("target", ["missing/x.csv", "."])
def test_experiment_unwritable_out_exits_2_before_any_row(capsys, monkeypatch,
                                                          tmp_path, target):
    def no_rows(cfg):
        raise AssertionError("experiment started")

    monkeypatch.setattr("postlie.geomint.run_experiment", no_rows)
    code, out, err = run(capsys, *EXP_ARGS, "--out", str(tmp_path / target))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_experiment_order_kind(capsys):
    code, out, _ = run(
        capsys,
        "experiment", "order",
        "--t-min", "2e-3", "--t-max", "2e-2", "--t-points", "5",
    )
    assert code == 0
    assert out.splitlines()[1] == "t,log_det,abs_err,method,field,seed"


# -- config files


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nmax-grade = 1\nseed = 5\n")
    code, out, _ = run(
        capsys, "trees", "enumerate", "--config", str(cfg), "--max-grade", "2"
    )
    assert code == 0
    lines = out.splitlines()
    # Flag beats config for max-grade; seed comes from the file.
    assert "count=4" in lines[0]
    assert "seed=5" in lines[0]


def test_config_file_alone(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max-grade = 1\n")
    code, out, _ = run(capsys, "trees", "enumerate", "--config", str(cfg))
    assert "count=2" in out.splitlines()[0]


def test_parser_is_built_once_and_keeps_no_run_state(capsys, tmp_path):
    import postlie.cli

    assert postlie.cli._build_parser() is postlie.cli._build_parser()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max-grade = 1\nseed = 5\n")
    plain = run(capsys, "trees", "enumerate")
    with_file = run(capsys, "trees", "enumerate", "--config", str(cfg))
    usage = run(capsys, "trees", "enumerate", "--max-grade", "-1")
    # Neither the config file nor the usage error carries into later runs.
    assert run(capsys, "trees", "enumerate") == plain
    assert "max-grade=1" in with_file[1] and "seed=5" in with_file[1]
    assert "max-grade=3" in plain[1] and "seed=0" in plain[1]
    assert usage[0] == 2


def test_config_file_malformed(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max-grade\n")
    code, _, err = run(capsys, "trees", "enumerate", "--config", str(cfg))
    assert code == 2
    assert "error:" in err


def test_config_file_missing(capsys, tmp_path):
    code, _, err = run(
        capsys, "trees", "enumerate", "--config", str(tmp_path / "nope.cfg")
    )
    assert code == 2


# -- installed entry point


def test_console_script_runs():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "postlie.cli", "trees", "enumerate", "--max-grade", "1"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1:] == ["1", "o"]


# -- start-up: the symbolic half runs without numpy

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _fresh_python(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_symbolic_commands_do_not_load_numpy():
    out = _fresh_python("""if True:
        import contextlib, io, sys
        import postlie, postlie.cli
        print("import", "numpy" in sys.modules)
        for argv in (["trees", "enumerate"],
                     ["algebra", "eval", "--op", "antipode", "--left", "o [o]"],
                     ["algebra", "check", "--suite", "smash", "--max-grade", "1",
                      "--samples", "0"],
                     ["series", "gl-exp", "--order", "3"],
                     ["experiment", "volume", "--t-points", "5"]):
            with contextlib.redirect_stdout(io.StringIO()):
                code = postlie.cli.main(argv)
            print(argv[0], argv[1], code, "numpy" in sys.modules)
        """)
    assert out.splitlines() == [
        "import False",
        "trees enumerate 0 False",
        "algebra eval 0 False",
        "algebra check 0 False",
        "series gl-exp 0 False",
        "experiment volume 0 True",
    ]


def test_numeric_names_load_on_first_use():
    out = _fresh_python("""if True:
        import sys
        import postlie
        print(hasattr(postlie, "no_such_name"), "numpy" in sys.modules)
        print(postlie.run_experiment is postlie.geomint.run_experiment,
              postlie.geomint.ConfigurationError is postlie.ConfigurationError,
              postlie.geomint.NumericError is postlie.NumericError,
              "numpy" in sys.modules)
        """)
    assert out.splitlines() == ["False False", "True True True True"]


def test_python_dash_m_package_runs_cli(capsys):
    argv = ["trees", "enumerate", "--max-grade", "3", "--seed", "4"]
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-m", "postlie", *argv],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    code, out, err = run(capsys, *argv)
    assert proc.returncode == code == 0
    assert proc.stdout == out
    assert proc.stderr == err == ""
