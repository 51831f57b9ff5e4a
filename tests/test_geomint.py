"""Frame evaluation on SO(3): fields, brackets, steppers, experiments."""

from __future__ import annotations

import random
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from postlie.algebroid import AlgebroidElement, parse_element
from postlie.cli import main as cli_main
from postlie.geomint import (
    AnalyticCoeff,
    ConfigurationError,
    ExperimentConfig,
    FrameVectorField,
    GroupFrame,
    MatrixPoly,
    NumericCoeff,
    NumericError,
    connection,
    divergence,
    divergence_free_field,
    _aromatic_series,
    element_tangent_matrix,
    eval_tree,
    forest_operator_fn,
    geometric_grid,
    jacobi_bracket_fd,
    lie_euler_step,
    make_aromatic_stepper,
    make_field,
    make_reference_stepper,
    make_stepper,
    random_rotation,
    reference_flow,
    run_experiment,
    slope_estimate,
    so3,
    step_volume,
    torsion_bracket,
)
from postlie.trees import parse_forest, parse_tree


def rot(seed: int, dtype=float) -> np.ndarray:
    return np.asarray(random_rotation(random.Random(seed), so3()), dtype=dtype)


def const_field(frame: GroupFrame, coeffs) -> FrameVectorField:
    return FrameVectorField(
        frame, tuple(AnalyticCoeff.const(frame, c) for c in coeffs)
    )


# -- frame


def test_so3_is_validated(frame):
    assert frame.dim == 3
    v = np.array([0.3, -1.2, 0.7])
    assert np.allclose(frame.vee(frame.hat(v)), v)
    assert np.allclose(frame.bracket([1, 0, 0], [0, 1, 0]), [0, 0, 1])


def test_frame_rejects_bad_structure(frame):
    broken = np.array(frame.structure, dtype=float)
    broken[0, 1, 2] = -1.0
    with pytest.raises(ConfigurationError):
        GroupFrame(
            "bad",
            3,
            tuple(np.array(b) for b in frame.basis),
            broken,
            frame.exp_map,
            frame.log_map,
        )


def test_exp_log_round_trip(frame):
    # Stay inside the log chart: rotations past 2pi/3 are rejected there.
    rng = random.Random(2)
    for _ in range(20):
        v = np.array([rng.uniform(-1.1, 1.1) for _ in range(3)])
        R = frame.exp_map(frame.hat(v))
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert np.allclose(frame.vee(frame.log_map(R)), v, atol=1e-10)


def test_exp_log_small_angle(frame):
    v = np.array([1e-9, -2e-9, 5e-10])
    R = frame.exp_map(frame.hat(v))
    assert np.allclose(frame.vee(frame.log_map(R)), v, rtol=1e-6, atol=1e-20)


def test_log_rejects_half_turn(frame):
    R = frame.exp_map(frame.hat(np.array([np.pi, 0, 0])))
    with pytest.raises(NumericError):
        frame.log_map(R)


def test_charts_invert(frame):
    p = rot(3)
    u = np.array([0.2, -0.1, 0.3])
    q = frame.chart_to(p, u)
    assert np.allclose(frame.chart_from(p, q), u, atol=1e-12)


# -- matrix polynomials and coefficients


def test_matrix_poly_entry_values(frame):
    p = rot(4)
    e = MatrixPoly.entry(3, 2, 0)
    assert e.value(p) == pytest.approx(p[2, 0])
    combo = (e + e).scale(Fraction(1, 2)) - e
    assert combo.value(p) == pytest.approx(0.0, abs=1e-18)


def test_matrix_poly_product_rule(frame):
    p = rot(5)
    a = MatrixPoly.entry(3, 0, 0)
    b = MatrixPoly.entry(3, 1, 1)
    d = (a * b).derive_along(frame.basis[2])
    want = (a.derive_along(frame.basis[2]) * b).value(p) + (
        a * b.derive_along(frame.basis[2])
    ).value(p)
    assert d.value(p) == pytest.approx(want, rel=1e-12)


def test_matrix_poly_exact_on_object_arrays():
    e = MatrixPoly.entry(3, 2, 2)
    q = np.full((3, 3), Fraction(1, 3), dtype=object)
    assert (e * e).value(q) == Fraction(1, 9)


def test_directional_derivative_is_left_invariant(frame):
    # E_i[Q_ab] at Q is (Q e_i)_ab.
    p = rot(6)
    for i in range(3):
        d = MatrixPoly.entry(3, 1, 2).derive_along(frame.basis[i])
        assert d.value(p) == pytest.approx((p @ frame.basis[i])[1, 2], rel=1e-12)


def test_numeric_coeff_matches_analytic(frame):
    poly = MatrixPoly.entry(3, 2, 0) * MatrixPoly.entry(3, 2, 2)
    an = AnalyticCoeff(frame, poly)
    fd = NumericCoeff(frame, poly.value)
    p = rot(7)
    for i in range(3):
        assert fd.derive(i).value(p) == pytest.approx(
            an.derive(i).value(p), rel=1e-8, abs=1e-10
        )
    # Second derivatives stack.
    assert fd.derive(0).derive(1).value(p) == pytest.approx(
        an.derive(0).derive(1).value(p), rel=1e-6, abs=1e-7
    )


def textbook_derive(frame, fn, i):
    """The stencil of ``NumericCoeff.derive`` with fresh shifts."""
    ex = frame.exp_map
    e = frame.basis[i]
    h = 1e-2
    return lambda Q: (-fn(Q @ ex(2 * h * e)) + 8 * fn(Q @ ex(h * e))
                      - 8 * fn(Q @ ex(-h * e)) + fn(Q @ ex(-2 * h * e))) / (12 * h)


def test_numeric_coeff_equals_textbook_stencil(frame):
    poly = MatrixPoly.entry(3, 2, 0) * MatrixPoly.entry(3, 2, 2)
    fd = NumericCoeff(frame, poly.value)
    p = rot(7, np.longdouble)
    for i in range(3):
        first = textbook_derive(frame, poly.value, i)
        assert fd.derive(i).value(p) == first(p)
        for j in range(3):
            second = textbook_derive(frame, first, j)
            assert fd.derive(i).derive(j).value(p) == second(p)


def test_numeric_coeff_memo_never_stale(frame):
    poly = MatrixPoly.entry(3, 2, 0) * MatrixPoly.entry(3, 1, 2)
    base = NumericCoeff(frame, poly.value)
    d1 = textbook_derive(frame, poly.value, 1)
    coeffs = (
        (base, poly.value),
        (base.derive(1), d1),
        (base.derive(1).mul(base).add(base.scale(3)),
         lambda Q: d1(Q) * poly.value(Q) + 3.0 * poly.value(Q)),
    )
    p, q = rot(11, np.longdouble), rot(12, np.longdouble)
    for c, fresh in coeffs:
        for point in (p, q, p, q, p):
            assert c.value(point) == fresh(point)
        moving = p.copy()
        assert c.value(moving) == fresh(p)
        moving[...] = q
        assert c.value(moving) == fresh(q)
    # Object arrays bypass the memo: their bytes are pointers.
    exact = np.full((3, 3), Fraction(1, 3), dtype=object)
    assert base.value(exact) == Fraction(1, 9)
    exact[1, 2] = Fraction(1, 2)
    assert base.value(exact) == Fraction(1, 6)


def test_numeric_coeff_memo_under_threads(frame):
    poly = MatrixPoly.entry(3, 0, 1) * MatrixPoly.entry(3, 2, 2)
    c = NumericCoeff(frame, poly.value).mul(NumericCoeff.entry(frame, 1, 0))
    points = [rot(seed, np.longdouble) for seed in range(6)]
    want = [poly.value(P) * P[1, 0] for P in points]
    wrong = []

    def work(k):
        for n in range(2000):
            m = (k + n) % len(points)
            if c.value(points[m]) != want[m]:
                wrong.append(m)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(w.is_alive() for w in workers)
    assert wrong == []


def test_fd_volume_experiment_thread_determinism(capsys):
    argv = ["experiment", "volume", "--method", "aromatic", "--derivatives", "fd",
            "--t-min", "1e-2", "--t-max", "1e-1", "--t-points", "5", "--seed", "2"]
    outs = []
    for threads in ("1", "2"):
        assert cli_main(argv + ["--threads", threads]) == 0
        outs.append(capsys.readouterr().out.splitlines())
    # The header echoes the thread count; the table must not depend on it.
    assert outs[0][1:] == outs[1][1:]
    assert len(outs[0]) == 2 + 5 + 1


@pytest.mark.parametrize("seed", [300, 286, 1742, 1900])
def test_fd_volume_rows_match_analytic(capsys, seed):
    # Seeds at which the Richardson pair at 1e-4 was off by up to 2.8e-2;
    # the bound is the fd-vs-analytic tolerance of the so3 benchmark.
    argv = ["experiment", "volume", "--method", "aromatic", "--t-min", "1e-2",
            "--t-max", "1e-1", "--t-points", "5", "--seed", str(seed)]
    rows = {}
    for mode in ("fd", "analytic"):
        assert cli_main(argv + ["--derivatives", mode]) == 0
        lines = capsys.readouterr().out.splitlines()[2:-1]
        rows[mode] = [float(line.split(",")[1]) for line in lines]
    assert len(rows["fd"]) == len(rows["analytic"]) == 5
    for fd, an in zip(rows["fd"], rows["analytic"]):
        assert abs(fd - an) <= 2e-3 * abs(an)


# -- the frozen field


def test_field_component_formula(field):
    p = rot(8, np.longdouble)
    v = field.values(p)
    want = np.array([p[2, 0], p[2, 1], 2 * p[2, 2]], dtype=np.longdouble)
    assert np.allclose(np.asarray(v, float), np.asarray(want, float), atol=1e-18)
    assert field.tangent(p).shape == (3, 3)


def test_field_is_divergence_free(field):
    for seed in range(5):
        assert divergence(field, rot(seed)) == 0.0


def test_fd_field_matches_analytic(field):
    fd = divergence_free_field(derivatives="fd")
    p = rot(9)
    assert np.allclose(fd.values(p), np.asarray(field.values(p), float))
    t_an = eval_tree(parse_tree("[o]"), field, p)
    t_fd = eval_tree(parse_tree("[o]"), fd, p)
    assert np.max(np.abs(np.asarray(t_an, float) - t_fd)) < 1e-8


def test_make_field_validation(frame):
    with pytest.raises(ConfigurationError):
        make_field("no-such-field", frame)
    with pytest.raises(ConfigurationError):
        divergence_free_field(derivatives="symbolic-fd")


# -- brackets


def test_bracket_decomposition(frame, field):
    X = FrameVectorField(
        frame,
        (
            AnalyticCoeff.entry(frame, 0, 1),
            AnalyticCoeff.const(frame, 1),
            AnalyticCoeff.const(frame, 0),
        ),
    )
    p = rot(11)
    jb = jacobi_bracket_fd(X, field, p)
    dec = (
        torsion_bracket(X, field, p)
        + connection(X, field, p)
        - connection(field, X, p)
    )
    assert np.max(np.abs(jb - dec)) < 1e-5


def test_constant_fields_bracket_to_structure(frame):
    E1 = const_field(frame, (1, 0, 0))
    E2 = const_field(frame, (0, 1, 0))
    p = rot(12)
    assert np.allclose(jacobi_bracket_fd(E1, E2, p), [0, 0, 1], atol=1e-6)
    assert np.allclose(torsion_bracket(E1, E2, p), [0, 0, 1])
    assert np.allclose(connection(E1, E2, p), 0)


# -- tree and element evaluation


def test_single_vertex_tree_is_the_field(field):
    p = rot(13)
    leaf_val = eval_tree(parse_tree("o"), field, p)
    assert np.allclose(np.asarray(leaf_val, float), np.asarray(field.values(p), float))


def test_cherry_tree_is_connection(field):
    p = rot(14)
    got = eval_tree(parse_tree("[o]"), field, p)
    want = connection(field, field, p)
    assert np.max(np.abs(np.asarray(got - want, float))) < 1e-12


def test_element_tangent_matrix_of_vertex(field):
    p = rot(15)
    M = element_tangent_matrix(parse_element("o"), field, p)
    assert np.max(np.abs(np.asarray(M - field.tangent(p), float))) < 1e-15


@pytest.mark.parametrize("derivatives", ["fd", "analytic"])
def test_word_matrix_equals_entry_grid(frame, derivatives):
    """A word's tangent matrix equals, bit for bit, the grid of per-entry
    word operators: one chain on the point map for fd, exact polynomials
    per entry for analytic."""
    F = divergence_free_field(frame, derivatives)
    entry = NumericCoeff.entry if derivatives == "fd" else AnalyticCoeff.entry
    words = {w for _, x in _aromatic_series(3) for w in x.terms}
    words.add(parse_forest("o [o] o"))
    points = (rot(21, np.longdouble), rot(22, np.longdouble))
    for w in sorted(words):
        for p in points:
            want = np.array([[forest_operator_fn(w, F, entry(frame, a, b)).value(p)
                              for b in range(3)] for a in range(3)], dtype=p.dtype)
            got = element_tangent_matrix(AlgebroidElement.from_forest(w), F, p)
            assert got.dtype == p.dtype
            assert np.array_equal(got, want), str(w)


# -- steppers and flows


def test_lie_euler_step_is_consistent(field):
    p = rot(16, np.longdouble)
    t = 1e-4
    q = lie_euler_step(field, p, t)
    exact = reference_flow(field, np.asarray(p, float), t)
    assert np.max(np.abs(np.asarray(q, float) - exact)) < 5 * t * t


def test_steppers_stay_on_group(field):
    p = rot(17, np.longdouble)
    for method in ("lie-euler", "aromatic"):
        q = make_stepper(method, field)(p, 0.05)
        err = np.asarray(q, float).T @ np.asarray(q, float) - np.eye(3)
        assert np.max(np.abs(err)) < 1e-12


def test_aromatic_step_close_to_plain(field):
    p = rot(18, np.longdouble)
    a = make_aromatic_stepper(field)(p, 1e-3)
    b = lie_euler_step(field, p, 1e-3)
    assert np.max(np.abs(np.asarray(a - b, float))) < 1e-5


def test_make_stepper_validates(field):
    with pytest.raises(ConfigurationError):
        make_stepper("midpoint", field)


def test_stepper_rejects_blowup(field):
    p = np.full((3, 3), np.nan)
    with pytest.raises(NumericError):
        lie_euler_step(field, p, 0.1)


def test_reference_flow_validates_tol(field):
    with pytest.raises(ValueError):
        reference_flow(field, rot(19), 0.1, tol=1e-14)


def test_reference_stepper_matches_flow(field):
    p = rot(20)
    t = 0.07
    a = reference_flow(field, p, t)
    b = make_reference_stepper(field)(np.asarray(p, np.longdouble), t)
    assert np.max(np.abs(a - np.asarray(b, float))) < 1e-11


def test_flow_composes(field):
    p = rot(21)
    one = reference_flow(field, p, 0.08)
    two = reference_flow(field, reference_flow(field, p, 0.04), 0.04)
    assert np.max(np.abs(one - two)) < 1e-10


# -- volume and slopes


def test_reference_stepper_preserves_volume(field):
    p = rot(22, np.longdouble)
    ld = step_volume(make_reference_stepper(field), p, 1e-2)
    assert abs(ld) < 1e-8


def test_step_volume_sees_euler_defect(field):
    p = rot(23, np.longdouble)
    stepper = make_stepper("lie-euler", field)
    big = abs(step_volume(stepper, p, 2e-2))
    small = abs(step_volume(stepper, p, 1e-2))
    # Second order in t: quartering within fitting slack.
    assert 2.5 < big / small < 6.0


def test_slope_estimate_exact():
    ts = [0.1, 0.05, 0.025, 0.0125, 0.00625]
    slope, residual = slope_estimate([(t, 3.5 * t**2) for t in ts])
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert residual == pytest.approx(0.0, abs=1e-12)


def test_slope_estimate_validates():
    with pytest.raises(ValueError):
        slope_estimate([(0.1, 1.0), (0.05, 0.5), (0.025, 0.25)])
    with pytest.raises(ValueError):
        slope_estimate([(0.1, 1.0), (0.05, 0.5), (0.025, 0.0), (0.0125, 0.1)])


# -- experiment plumbing


def test_geometric_grid_shape():
    g = geometric_grid(1e-3, 1e-1, 5)
    assert len(g) == 5
    assert g[0] == pytest.approx(1e-1)
    assert g[-1] == pytest.approx(1e-3)
    assert all(a > b for a, b in zip(g, g[1:]))


def test_experiment_config_validation():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(t_grid=(0.1, 0.01))
    with pytest.raises(ConfigurationError):
        ExperimentConfig(t_grid=geometric_grid(1e-3, 1e-1, 5), kind="energy")
    with pytest.raises(ConfigurationError):
        ExperimentConfig(base_point="origin")
    with pytest.raises(ConfigurationError):
        ExperimentConfig(threads=0)


def test_volume_experiment_smoke():
    cfg = ExperimentConfig(
        kind="volume",
        method="lie-euler",
        t_grid=geometric_grid(3e-3, 1e-1, 5),
        seed=3,
    )
    res = run_experiment(cfg)
    assert len(res.rows) == 5
    assert 1.5 < res.slope < 2.5
    text = res.csv()
    assert text.splitlines()[0] == "t,log_det,abs_err,method,field,seed"
    assert text.splitlines()[-1].startswith("# slope=")


def test_volume_experiment_thread_determinism():
    base = dict(t_grid=geometric_grid(1e-2, 1e-1, 5), seed=4)
    a = run_experiment(ExperimentConfig(threads=1, **base))
    b = run_experiment(ExperimentConfig(threads=8, **base))
    assert a.csv() == b.csv()


def test_order_experiment_smoke():
    cfg = ExperimentConfig(
        kind="order",
        method="lie-euler",
        t_grid=geometric_grid(2e-3, 2e-2, 5),
        seed=5,
    )
    res = run_experiment(cfg)
    assert len(res.rows) == 5
    assert 0.8 < res.slope < 1.2
