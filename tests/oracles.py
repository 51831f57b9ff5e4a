"""Reference computations that only the tests use.

Each one checks the package from outside: flow composition of series,
the adaptive reference flow of a frame field, the pieces of the
bracket decomposition  jacobi(X, Y) = torsion(X, Y) + X > Y - Y > X,
and the one-point-at-a-time loops that polynomial evaluation and
``step_volume`` replaced with stacked passes.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from postlie.algebroid import _gl_words, gl_product
from postlie.geomint import (FrameVectorField, GroupFrame, MatrixPoly, _cast_coeff,
                             _chart_rhs, _det3, _dexpinv_even, so3)
from postlie.series import (TruncatedSeries, _element_product, _from_pure, _pure,
                            _pure_product)
from postlie.trees import NumericError


def compose_gl(s2: TruncatedSeries, s1: TruncatedSeries) -> TruncatedSeries:
    """Flow composition: the degreewise Grossman-Larson product s2 * s1."""
    order = min(s2.order, s1.order)
    a, b = _pure(s2), _pure(s1)
    if a is None or b is None:
        return TruncatedSeries._raw(
            order, _element_product(s2.coeffs, s1.coeffs, gl_product, order))
    return _from_pure(order, _pure_product(a, b, _gl_words, order))


def project_orthogonal(Q: np.ndarray) -> np.ndarray:
    """Nearest rotation to Q (orthogonal polar factor, det +1)."""
    U, _, Vt = np.linalg.svd(np.asarray(Q, dtype=float))
    R = U @ Vt
    if np.linalg.det(R) < 0:
        R = U @ np.diag([1.0] * (Q.shape[0] - 1) + [-1.0]) @ Vt
    return R


def connection_field(Y: FrameVectorField, X: FrameVectorField) -> FrameVectorField:
    """The field Y > X with symbolic coefficients Y[x^i]."""
    return FrameVectorField(Y.frame, tuple(Y.apply_to(c) for c in X.coeffs))


def torsion_bracket(X: FrameVectorField, Y: FrameVectorField, p) -> np.ndarray:
    """Pointwise frame bracket  (x^i y^j c[i][j][k])_k  at p."""
    return X.frame.bracket(X.values(p), Y.values(p))


def jacobi_bracket_fd(X: FrameVectorField, Y: FrameVectorField, p,
                      step: float = 1e-6) -> np.ndarray:
    """Jacobi-Lie bracket of the ambient extensions, by central differences.

    Serves as the oracle for the decomposition
    jacobi(X, Y) = torsion(X, Y) + X > Y - Y > X.
    """
    p = np.asarray(p, dtype=float)
    xt = X.tangent(p)
    yt = Y.tangent(p)
    dy = (Y.tangent(p + step * xt) - Y.tangent(p - step * xt)) / (2 * step)
    dx = (X.tangent(p + step * yt) - X.tangent(p - step * yt)) / (2 * step)
    return X.frame.vee(p.T @ (dy - dx))


def reference_flow(F: FrameVectorField, p, t, tol: float = 1e-12) -> np.ndarray:
    """High-accuracy flow of F by adaptive integration in exponential charts.

    The chart is re-centered after every segment and the factor is
    re-projected to the group, so orthogonality drift stays below 1e-12.
    """
    if tol < 1e-13:
        raise ValueError("tolerance below supported floor 1e-13")
    # Imported here: only this oracle needs scipy, which is slow to import.
    from scipy.integrate import solve_ivp

    frame = F.frame
    base = np.asarray(p, dtype=float)
    if t == 0:
        return base.copy()
    n_seg = max(1, int(math.ceil(abs(t) / 0.1)))
    h = t / n_seg

    def rhs(_, u):
        y = frame.chart_to(base, u)
        return _chart_rhs(frame, u, F.values(y))

    for _ in range(n_seg):
        sol = solve_ivp(rhs, (0.0, h), np.zeros(frame.dim), method="DOP853",
                        rtol=tol, atol=tol)
        if not sol.success:
            raise NumericError(f"reference integration failed: {sol.message}")
        base = project_orthogonal(frame.chart_to(base, sol.y[:, -1]))
    return base


def poly_value_terms(poly: MatrixPoly, Q):
    """A polynomial at one matrix, term by term: each term is its
    coefficient times its factors in entry order, summed from zero."""
    A = np.asarray(Q)
    flat = A.reshape(-1)
    dt = A.dtype if A.dtype.kind == "f" else None
    total = _cast_coeff(dt, Fraction(0))
    for exps, c in poly.terms.items():
        term = _cast_coeff(dt, c)
        for v, e in enumerate(exps):
            if e == 1:
                term = term * flat[v]
            elif e:
                term = term * flat[v] ** e
        total = total + term
    return total


def dexpinv_brackets(frame: GroupFrame, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The series  w - [u,w]/2 + sum_k c_k ad_u^2k w  at one point, one
    ``frame.bracket`` per power of ad_u."""
    acc = w - frame.bracket(u, w) / 2
    cur = w
    for c in _dexpinv_even(w.dtype):
        cur = frame.bracket(u, frame.bracket(u, cur))
        acc = acc + c * cur
    return acc


def step_volume_columns(stepper, p, t, frame: GroupFrame | None = None):
    """``step_volume`` with one stepper call per point: the image of p,
    then the two perturbed points of each chart direction in turn."""
    A = np.asarray(p)
    if frame is None:
        frame = so3()
    h = A.dtype.type(max(1e-5, abs(t) * 1e-3))
    q = stepper(A, t)
    d = frame.dim
    cols = []
    for i in range(d):
        u = np.zeros(d, dtype=A.dtype)
        u[i] = h
        plus = frame.chart_from(q, stepper(frame.chart_to(A, u), t))
        u[i] = -h
        minus = frame.chart_from(q, stepper(frame.chart_to(A, u), t))
        cols.append((plus - minus) / (2 * h))
    J = np.stack(cols, axis=1)
    det = _det3(J) if d == 3 else np.linalg.det(np.asarray(J, dtype=float))
    if det == 0 or not np.isfinite(det):
        raise NumericError("singular step Jacobian")
    return np.log(np.abs(det))
