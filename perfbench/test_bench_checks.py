"""The benchmark's checks reject corrupted outputs.

Run from the repository root:  python3 -m pytest perfbench -q

Each test runs a small version of a workload's pass, shows that its
check accepts the real output, then corrupts one output and shows that
the check rejects it.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import pytest

import run
import tracing
import workloads
from workloads import Experiment


def test_dropped_identity_case_is_rejected():
    calls = (("smash", dict(max_grade=2, samples=3)),
             ("degenerate", dict(max_grade=2, samples=2)),
             ("braiding", dict(max_grade=1, samples=2, sample_grade=1)))
    wl = workloads.SuiteWorkload("small", calls, with_braiding=True)
    p = wl.run(seed=3)
    assert p.failed == 0
    assert wl.check([p]) == []

    axiom, cases = p.output[1][2]
    p.output[1][2] = (axiom, cases - 1)
    assert any("degenerate" in msg for msg in wl.check([p]))

    p.output[1][2] = (axiom, cases)
    del p.output[2][-1]
    assert wl.check([p])


def test_case_counts_follow_catalan_numbers():
    assert [workloads.catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    # grade <= 2 pairs: (0,0) (0,1) (1,0) (0,2) (1,1) (2,0) -> 1+1+1+2+1+2
    assert workloads.basis_tuple_count(2, 2) == 8
    assert workloads.expected_cases("smash", 4, 0) == {
        "gl-factors-through-coefficient-action": 64}


def _flip(text: str, prefix: str) -> str:
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    deg, coeff, forest = lines[i].split(" | ")
    flipped = coeff[1:] if coeff.startswith("-") else "-" + coeff
    lines[i] = " | ".join((deg, flipped, forest))
    return "\n".join(lines)


@pytest.mark.parametrize("which,prefix", [(0, "t^2 |"), (0, "t^5 |"), (1, "t^4 |")])
def test_flipped_coefficient_is_rejected(which, prefix):
    wl = workloads.SeriesWorkload(order=5)
    p = wl.run(seed=0)
    assert wl.check([p]) == []

    texts = list(p.output[0])
    texts[which] = _flip(texts[which], prefix)
    p.output[0] = tuple(texts)
    assert wl.check([p])


def _perturb_row(text: str, row: int, factor: float) -> str:
    lines = text.splitlines()
    t, ld, err, *rest = lines[2 + row].split(",")
    lines[2 + row] = ",".join([t, repr(float(ld) * factor), repr(float(err) * factor), *rest])
    return "\n".join(lines) + "\n"


def test_perturbed_csv_row_is_rejected():
    exps = (Experiment("volume", "lie-euler"),
            Experiment("volume", "aromatic", t_min=1e-2, t_points=5),
            Experiment("order", "lie-euler", t_min=2e-3, t_max=2e-2, t_points=6))
    wl = workloads.ExperimentWorkload(exps)
    p = wl.run(seed=4)
    assert p.failed == 0
    assert wl.check([p]) == []

    exp, seed, text = p.output[0]
    p.output[0] = (exp, seed, _perturb_row(text, 3, 1.01))
    assert any("fitted slope" in msg for msg in wl.check([p]))


def test_fd_rows_must_agree_with_analytic_rows():
    twin = Experiment("volume", "aromatic", t_min=1e-2, t_points=5)
    p = workloads.ExperimentWorkload((twin,)).run(seed=4)
    _, seed, text = p.output[0]
    fd = replace(twin, derivatives="fd")
    assert workloads.check_experiments(p.output + [(fd, seed, text)]) == []

    # A row off by 1 % in both columns; its printed slope is left as is,
    # so the slope check fires as well as the agreement check.
    bad = _perturb_row(text, 2, 1.01)
    problems = workloads.check_experiments(p.output + [(fd, seed, bad)])
    assert any("vs analytic" in msg for msg in problems)


def test_tracer_counts_nested_calls_and_restores_functions():
    from postlie import algebroid, coeffs, checks

    before = (algebroid.gl_product, checks.gl_product,
              coeffs.CoeffPoly.__dict__["scalar"])
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        o = algebroid.parse_element("o")
        checks.gl_product(o, o)
    finally:
        tracer.uninstall()
    assert (algebroid.gl_product, checks.gl_product,
            coeffs.CoeffPoly.__dict__["scalar"]) == before
    spans = tracer.span_metrics()
    assert spans["algebroid.gl_product.calls"] == 1
    assert spans["coeffs.CoeffPoly.scalar.calls"] >= 1
    assert 0 <= spans["algebroid.gl_product.self_s"] <= spans["algebroid.gl_product.s"]


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)
