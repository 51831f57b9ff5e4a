"""Reference computations that only the tests use.

Each one checks the package from outside: flow composition of series,
the adaptive reference flow of a frame field, and the pieces of the
bracket decomposition  jacobi(X, Y) = torsion(X, Y) + X > Y - Y > X.
"""

from __future__ import annotations

import math

import numpy as np

from postlie.algebroid import _gl_words, gl_product
from postlie.geomint import FrameVectorField, _chart_rhs
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
