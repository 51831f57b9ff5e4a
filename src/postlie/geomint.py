"""Numeric realization on matrix Lie groups.

A left-invariant frame on a matrix group turns the symbolic side of the
package into honest numerics: trees evaluate to vector fields, forests to
differential operators with frozen coefficients, and aroma generators to
scalar functions.  The pieces:

* ``GroupFrame``        the group data: algebra basis, structure constants,
                        exponential and logarithm, exponential charts.
* ``MatrixPoly``        exact polynomials in the matrix entries, with the
                        directional derivative along right translation.
* ``AnalyticCoeff``     coefficient function backed by a ``MatrixPoly``;
* ``NumericCoeff``      coefficient function backed by a plain callable,
                        differentiated by high-order central differences.
* ``FrameVectorField``  a field  sum_i f^i E_i  in frame coordinates.
* evaluation            ``eval_tree`` / ``forest_operator_fn`` / ``aroma_fn``
                        realize trees, words and aromas on the group.
* steppers              plain and preprocessed geodesic (Lie-Euler) steps,
                        and a fixed-step reference integrator.
* diagnostics           ``step_volume`` (log-determinant of a step map
                        between exponential charts), ``slope_estimate``,
                        and the volume / accuracy experiment drivers.

Conventions, fixed once and used everywhere:

* frames are left invariant, E_i at Q is the curve  s -> Q exp(s e_i);
  hence E_i applied to an entry function is  E_i[Q_ab] = (Q e_i)_ab.
* a word of trees acts with all coefficients frozen at the evaluation
  point and the leftmost letter outermost,
      (t_1 ... t_n)[phi] = sum  x_1^{i_1} ... x_n^{i_n}
                                E_{i_1}[ ... E_{i_n}[phi] ... ],
  with x_j the coefficients of eval(t_j).
* a tree evaluates through its trunk: the children word, as an operator,
  applied to each coefficient of the field at the root.

The float pipeline for volume diagnostics runs in extended precision
(``np.longdouble``) because the signals of interest sit near 1e-12.

Every map on points takes a stack of points (..., n, n) as well as one
point: the exponential and logarithm, ``hat``/``vee`` and the charts,
field values, word tangent matrices, every stepper and the fd
``NumericCoeff`` chain.  Each lane of a stack gets the same arithmetic,
bit for bit, as that point alone (branches such as the small-angle
series are taken per lane), so ``step_volume`` pushes the source point
and its 2d chart perturbations through the stepper as one stack.

Finite-difference derivatives (``--derivatives fd``) nest stencils, so a
depth-k derivative costs 4^k evaluations of its base callable.  Four
exact savings keep that affordable without changing a single bit of
the results: ``NumericCoeff`` reuses its four shift matrices across
every stencil, ``NumericCoeff.value`` keeps a one-point memo per
coefficient (float arrays only, keyed on dtype, shape and bytes; object
arrays always recompute), polynomials evaluate through ``PolyGroup``, one
vectorised pass over a padded plan cached per dtype, and a word's
tangent matrix is one operator chain on the matrix-valued point map
Q -> Q, shared by all words, instead of one chain per matrix entry
(stencils and products act elementwise, so each entry's arithmetic is
unchanged).  Stacks ride on all four: one stencil nest serves every
lane.  The memo holds one entry per coefficient, so memory stays
constant however many points a run visits.
"""

from __future__ import annotations

import functools
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .algebroid import AlgebroidElement
from .coeffs import AromaGenerator, CoeffPoly
from .series import DIV_AROMA, modified_field
from .trees import (CapacityError, ConfigurationError, Forest, NumericError,
                    PlanarTree)

EVAL_MAX_GRADE = 5

#: Series order of the preprocessed field the aromatic stepper follows.
AROMATIC_ORDER = 3

CSV_HEADER = "t,log_det,abs_err,method,field,seed"

_FRAME_TOL = 1e-12


# ---------------------------------------------------------------------------
# Group frames


def _lanes(cond, yes: Callable, no: Callable, *args) -> np.ndarray:
    """Per lane, ``yes(*args)`` where ``cond`` holds and ``no(*args)`` elsewhere.

    ``cond`` covers the leading (stack) axes of every argument.  Each
    branch runs on its own lanes only, so no lane meets the other branch's
    arithmetic (such as a division by a zero angle), and a lane's result
    does not depend on the lanes beside it.
    """
    if cond.all():
        return yes(*args)
    if not cond.any():
        return no(*args)
    hit = yes(*(a[cond] for a in args))
    out = np.empty(cond.shape + hit.shape[1:], dtype=hit.dtype)
    out[cond] = hit
    out[~cond] = no(*(a[~cond] for a in args))
    return out


def _rodrigues(A: np.ndarray, s: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """I + s A + c2 A^2, one s and c2 per lane."""
    return np.eye(3, dtype=A.dtype) + s[..., None, None] * A + c2[..., None, None] * (A @ A)


def _so3_expm_taylor(A: np.ndarray, t2: np.ndarray) -> np.ndarray:
    # Relative error ~ theta^8 / 4e5, below extended eps.
    one = A.dtype.type(1)
    s = one - t2 / 6 * (one - t2 / 20 * (one - t2 / 42))
    c2 = (one - t2 / 12 * (one - t2 / 30 * (one - t2 / 56))) / 2
    return _rodrigues(A, s, c2)


def _so3_expm_trig(A: np.ndarray, t2: np.ndarray) -> np.ndarray:
    t = np.sqrt(t2)
    return _rodrigues(A, np.sin(t) / t, (A.dtype.type(1) - np.cos(t)) / t2)


def _so3_expm(A: np.ndarray) -> np.ndarray:
    """Exponential of 3x3 skew matrices (..., 3, 3), exact trig form.

    Dtype preserving; angles with theta^2 < 1e-6 take the Taylor branch.
    """
    A = np.asarray(A)
    t2 = A[..., 2, 1] ** 2 + A[..., 0, 2] ** 2 + A[..., 1, 0] ** 2
    return _lanes(t2 < 1e-6, _so3_expm_taylor, _so3_expm_trig, A, t2)


def _so3_log_factor_taylor(t: np.ndarray, s: np.ndarray) -> np.ndarray:
    one = t.dtype.type(1)
    t2 = t * t
    return (one + t2 / 6 * (one + 7 * t2 / 60)) / 2


def _so3_log_factor(t: np.ndarray, s: np.ndarray) -> np.ndarray:
    return t / (2 * s)


def _so3_logm(R: np.ndarray) -> np.ndarray:
    """Logarithm of (near-)rotations (..., 3, 3) close to the identity.

    Raises ``NumericError`` if any rotation is too far from the identity.
    """
    R = np.asarray(R)
    D = R - np.swapaxes(R, -1, -2)
    W = D / 2
    s2 = W[..., 2, 1] ** 2 + W[..., 0, 2] ** 2 + W[..., 1, 0] ** 2
    s = np.sqrt(s2)
    c = (R[..., 0, 0] + R[..., 1, 1] + R[..., 2, 2] - 1) / 2
    if np.any(c < -0.5):
        raise NumericError("rotation too far from the chart center")
    t = np.arctan2(s, c)
    f = _lanes(s < 1e-3, _so3_log_factor_taylor, _so3_log_factor, t, s)
    return f[..., None, None] * D


@dataclass(frozen=True, eq=False)
class GroupFrame:
    """A matrix Lie group with a fixed left-invariant frame.

    ``basis`` spans the Lie algebra, ``structure[i, j, k]`` holds the
    bracket coefficients  [e_i, e_j] = sum_k structure[i,j,k] e_k, and
    ``exp_map`` / ``log_map`` realize the exponential chart.  Frames must
    be unimodular (trace-free structure constants) so that the frame
    divergence measures the change of invariant volume.
    """

    name: str
    dim: int
    basis: tuple[np.ndarray, ...]
    structure: np.ndarray
    exp_map: Callable[[np.ndarray], np.ndarray]
    log_map: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "_stack", np.stack(self.basis))
        _validate_frame(self)

    def hat(self, xi: Sequence[float]) -> np.ndarray:
        """Algebra elements (..., n, n) with frame coordinates xi (..., d)."""
        return np.einsum("...i,iab->...ab", np.asarray(xi), self._stack)

    def vee(self, A: np.ndarray) -> np.ndarray:
        """Frame coordinates (..., d) of A (..., n, n), by Frobenius
        projection on the basis."""
        raw = np.einsum("iab,...ab->...i", self._stack, np.asarray(A))
        norms = np.einsum("iab,iab->i", self._stack, self._stack)
        return raw / norms

    def bracket(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Algebra bracket in frame coordinates."""
        return np.einsum("i,j,ijk->k", a, b, self.structure)

    def chart_to(self, base: np.ndarray, u: Sequence[float]) -> np.ndarray:
        """Points of the exponential chart at ``base`` with coordinates u.

        ``base`` and ``u`` may each be a stack; their stack axes broadcast.
        """
        return base @ self.exp_map(self.hat(u))

    def chart_from(self, base: np.ndarray, Q: np.ndarray) -> np.ndarray:
        """Chart coordinates of Q in the exponential chart at ``base``."""
        return self.vee(self.log_map(np.swapaxes(base, -1, -2) @ Q))


def _validate_frame(frame: GroupFrame) -> None:
    c = np.asarray(frame.structure, dtype=float)
    d = frame.dim
    if c.shape != (d, d, d):
        raise ConfigurationError("structure constants must be d x d x d")
    if np.max(np.abs(c + np.swapaxes(c, 0, 1))) > _FRAME_TOL:
        raise ConfigurationError("structure constants are not antisymmetric")
    # Jacobi: cyclic sum of c[i,j,m] c[m,k,n] over (i, j, k).
    comp = np.einsum("ijm,mkn->ijkn", c, c)
    jac = comp + np.moveaxis(comp, (0, 1, 2), (1, 2, 0)) \
        + np.moveaxis(comp, (0, 1, 2), (2, 0, 1))
    if np.max(np.abs(jac)) > _FRAME_TOL:
        raise ConfigurationError("structure constants fail the Jacobi identity")
    if np.max(np.abs(np.einsum("iji->j", c))) > _FRAME_TOL:
        raise ConfigurationError("frame is not unimodular")
    for i in range(d):
        for j in range(d):
            lhs = frame.basis[i] @ frame.basis[j] - frame.basis[j] @ frame.basis[i]
            rhs = sum(c[i, j, k] * frame.basis[k] for k in range(d))
            if np.max(np.abs(lhs - rhs)) > _FRAME_TOL:
                raise ConfigurationError("basis brackets disagree with structure constants")


@functools.lru_cache(maxsize=None)
def so3() -> GroupFrame:
    """The rotation group with its standard skew basis."""
    e1 = np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]])
    e2 = np.array([[0, 0, 1], [0, 0, 0], [-1, 0, 0]])
    e3 = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    c = np.zeros((3, 3, 3))
    for i, j, k, s in ((0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0),
                       (1, 0, 2, -1.0), (2, 1, 0, -1.0), (0, 2, 1, -1.0)):
        c[i, j, k] = s
    return GroupFrame("so3", 3, (e1, e2, e3), c, _so3_expm, _so3_logm)


GROUPS = {"so3": so3}


def _det3(J: np.ndarray):
    a, b, c = J[0]
    d, e, f = J[1]
    g, h, i = J[2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


# ---------------------------------------------------------------------------
# Exact polynomials in matrix entries

Exponents = tuple[int, ...]


def _cast_coeff(dtype, c: Fraction):
    if dtype is not None:
        return dtype.type(c.numerator) / dtype.type(c.denominator)
    return c


class MatrixPoly:
    """Polynomial in the entries of a d x d matrix, Fraction coefficients.

    Terms map an exponent tuple (row-major over entries) to a nonzero
    coefficient.  The constructor takes ownership of its dict as given;
    instances come from ``zero``, ``const``, ``entry`` and the arithmetic.
    ``derive_along(M)`` is the derivative along  s -> Q (I + s M), the
    infinitesimal right translation when M sits in the Lie algebra.
    """

    __slots__ = ("dim", "terms", "_group")

    def __init__(self, dim: int, terms: dict[Exponents, Fraction]):
        self.dim = dim
        self.terms = terms
        self._group: PolyGroup | None = None

    @staticmethod
    def zero(dim: int) -> "MatrixPoly":
        return MatrixPoly(dim, {})

    @staticmethod
    def const(dim: int, c) -> "MatrixPoly":
        c = Fraction(c)
        if not c:
            return MatrixPoly.zero(dim)
        return MatrixPoly(dim, {(0,) * (dim * dim): c})

    @staticmethod
    def entry(dim: int, a: int, b: int) -> "MatrixPoly":
        exps = [0] * (dim * dim)
        exps[a * dim + b] = 1
        return MatrixPoly(dim, {tuple(exps): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "MatrixPoly") -> "MatrixPoly":
        acc = dict(self.terms)
        for exps, c in other.terms.items():
            s = acc.get(exps, Fraction(0)) + c
            if s:
                acc[exps] = s
            else:
                acc.pop(exps, None)
        return MatrixPoly(self.dim, acc)

    def __neg__(self) -> "MatrixPoly":
        return MatrixPoly(self.dim, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MatrixPoly") -> "MatrixPoly":
        return self + (-other)

    def __mul__(self, other: "MatrixPoly") -> "MatrixPoly":
        acc: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                s = acc.get(key, Fraction(0)) + c1 * c2
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        return MatrixPoly(self.dim, acc)

    def scale(self, c) -> "MatrixPoly":
        c = Fraction(c)
        if not c:
            return MatrixPoly.zero(self.dim)
        if c == 1:
            return self
        return MatrixPoly(self.dim, {e: c * v for e, v in self.terms.items()})

    def derive_along(self, direction) -> "MatrixPoly":
        """Derivative along  s -> Q (I + s M):  entry (a,b) flows to (QM)_ab."""
        d = self.dim
        M = np.asarray(direction)
        acc: dict[Exponents, Fraction] = {}
        for exps, c in self.terms.items():
            for v, e in enumerate(exps):
                if not e:
                    continue
                a, b = divmod(v, d)
                base = list(exps)
                base[v] -= 1
                for k in range(d):
                    m = int(M[k, b])
                    if not m:
                        continue
                    ex = list(base)
                    ex[a * d + k] += 1
                    key = tuple(ex)
                    s = acc.get(key, Fraction(0)) + c * e * m
                    if s:
                        acc[key] = s
                    else:
                        acc.pop(key, None)
        return MatrixPoly(d, acc)

    def value(self, Q):
        """Evaluate at a matrix or a stack (..., d, d); dtype follows Q
        (exact on object arrays)."""
        if self._group is None:
            self._group = PolyGroup((self,))
        return self._group.value(Q)[..., 0][()]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatrixPoly):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.dim, frozenset(self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, c in sorted(self.terms.items()):
            factors = [str(c)]
            for v, e in enumerate(exps):
                if e:
                    a, b = divmod(v, self.dim)
                    factors.append(f"Q{a}{b}" + (f"^{e}" if e > 1 else ""))
            parts.append("*".join(factors))
        return " + ".join(parts)


class PolyGroup:
    """Polynomials in the entries of one d x d matrix, evaluated together.

    ``value`` maps a matrix or a stack (..., d, d) to (..., m), one column
    per polynomial, in one vectorised pass over a padded plan built once
    per dtype (sound because a MatrixPoly is never mutated).  The plan
    lays every polynomial out as T terms of K factors.  Factors index a
    row of values: the d*d entries, then the powers Q_v^e that some term
    needs, the first of them Q_0^0 = 1.  Each term is its coefficient
    times its factors in entry order, and a polynomial is the sum of its
    terms left to right from zero (``np.sum`` would sum pairwise).
    Padding factors are exactly 1 and padding terms are 0 at the end, so
    every column has the same arithmetic as a term-by-term loop over that
    polynomial alone.  Powers come from ``np.power`` on arrays: for
    ``np.longdouble`` that is the scalar ``powl``, bit for bit, while
    float64 arrays may take a SIMD ``pow`` that can differ from the
    scalar one in the last bit.
    """

    __slots__ = ("polys", "_plans")

    def __init__(self, polys: Sequence[MatrixPoly]):
        self.polys = tuple(polys)
        self._plans: dict = {}

    def _plan(self, dt) -> tuple:
        plan = self._plans.get(dt)
        if plan is None:
            plan = self._plans[dt] = self._build(dt)
        return plan

    def _build(self, dt) -> tuple:
        one = self.polys[0].dim ** 2  # index of the constant 1 in the row
        powers = {(0, 0): one}
        rows = []
        for poly in self.polys:
            terms = []
            for exps, c in poly.terms.items():
                factors = []
                for v, e in enumerate(exps):
                    if e == 1:
                        factors.append(v)
                    elif e:
                        factors.append(powers.setdefault((v, e), one + len(powers)))
                terms.append((_cast_coeff(dt, c), factors))
            rows.append(terms)
        width = max([1] + [len(terms) for terms in rows])
        depth = max([1] + [len(f) for terms in rows for _, f in terms])
        zero = _cast_coeff(dt, Fraction(0))
        coeffs = np.full((len(rows), width), zero, dtype=object if dt is None else dt)
        index = np.full((len(rows), width, depth), one, dtype=np.intp)
        for i, terms in enumerate(rows):
            for j, (c, factors) in enumerate(terms):
                coeffs[i, j] = c
                index[i, j, :len(factors)] = factors
        entries = np.array([v for v, _ in powers], dtype=np.intp)
        exponents = np.array([e for _, e in powers], dtype=np.intp)
        return zero, coeffs, index, entries, exponents

    def value(self, Q) -> np.ndarray:
        A = np.asarray(Q)
        zero, coeffs, index, entries, exponents = self._plan(
            A.dtype if A.dtype.kind == "f" else None)
        flat = A.reshape(A.shape[:-2] + (-1,))
        row = np.concatenate((flat, flat[..., entries] ** exponents), axis=-1)
        factors = row[..., index]
        term = coeffs * factors[..., 0]
        for k in range(1, index.shape[-1]):
            term = term * factors[..., k]
        total = zero
        for j in range(index.shape[1]):
            total = total + term[..., j]
        return total


# ---------------------------------------------------------------------------
# Coefficient functions
#
# Both kinds expose value / derive / add / mul / scale, which is all the
# evaluation machinery needs.  ``derive(i)`` is the frame direction E_i.


class AnalyticCoeff:
    """Coefficient function with exact polynomial derivatives."""

    __slots__ = ("frame", "poly", "_dcache")

    def __init__(self, frame: GroupFrame, poly: MatrixPoly):
        self.frame = frame
        self.poly = poly
        self._dcache: dict[int, "AnalyticCoeff"] = {}

    @staticmethod
    def entry(frame: GroupFrame, a: int, b: int) -> "AnalyticCoeff":
        return AnalyticCoeff(frame, MatrixPoly.entry(frame.basis[0].shape[0], a, b))

    @staticmethod
    def const(frame: GroupFrame, c) -> "AnalyticCoeff":
        return AnalyticCoeff(frame, MatrixPoly.const(frame.basis[0].shape[0], c))

    def value(self, Q):
        return self.poly.value(Q)

    def derive(self, i: int) -> "AnalyticCoeff":
        out = self._dcache.get(i)
        if out is None:
            out = AnalyticCoeff(self.frame, self.poly.derive_along(self.frame.basis[i]))
            self._dcache[i] = out
        return out

    def add(self, other: "AnalyticCoeff") -> "AnalyticCoeff":
        return AnalyticCoeff(self.frame, self.poly + other.poly)

    def mul(self, other: "AnalyticCoeff") -> "AnalyticCoeff":
        return AnalyticCoeff(self.frame, self.poly * other.poly)

    def scale(self, c) -> "AnalyticCoeff":
        return AnalyticCoeff(self.frame, self.poly.scale(c))

    def is_zero(self) -> bool:
        return self.poly.is_zero()


class NumericCoeff:
    """Coefficient function backed by a callable.

    Frame derivatives are one 4th-order central difference along the
    frame direction at the single step ``_STEP``.  Derivatives stack, so
    any depth is available at the cost of repeated differencing.

    The four shift matrices exp(k h e_i), k in {2, 1, -1, -2}, are built
    once per derived direction and shared by every stencil evaluation.
    ``value`` remembers its last point: nested stencils and products of
    shared coefficients evaluate the same coefficient at the same point
    many times in a row.  The memo is one ``(key, value)`` pair, swapped
    in by a single assignment so threads share it safely, and it keys on
    the bytes of float arrays only (the bytes of an object array are
    pointers, so those always recompute).

    The callable takes a point or a stack of points (..., n, n) and may
    return a value per point or an array per point; every operation here
    acts elementwise, so a stack, or an array-valued coefficient such as
    the point map Q -> Q, carries all its lanes and entries through one
    chain with the same arithmetic per lane and entry as a scalar chain
    for each.  A memoised array is handed to every caller and must never
    be written to.
    """

    __slots__ = ("frame", "fn", "_dcache", "_memo")

    #: Nested stencils amplify longdouble rounding by about (3.3/h)^k at
    #: depth k, while the h^4 truncation stays small.  At 1e-2 (and at
    #: 3e-3) aromatic fd volume rows on [1e-2, 1e-1] agreed with analytic
    #: to within 4.1e-4 relative on 1,300 seeds; a Richardson pair at 1e-4
    #: was off by up to 2.8e-2.
    _STEP = 1e-2

    def __init__(self, frame: GroupFrame, fn: Callable):
        self.frame = frame
        self.fn = fn
        self._dcache: dict[int, "NumericCoeff"] = {}
        self._memo: tuple | None = None

    @staticmethod
    def entry(frame: GroupFrame, a: int, b: int) -> "NumericCoeff":
        return NumericCoeff(frame, lambda Q: np.asarray(Q)[..., a, b])

    def value(self, Q):
        A = np.asarray(Q)
        if A.dtype.kind != "f":
            return self.fn(A)
        key = (A.dtype, A.shape, A.tobytes())
        memo = self._memo
        if memo is not None and memo[0] == key:
            return memo[1]
        out = self.fn(A)
        self._memo = (key, out)
        return out

    def derive(self, i: int) -> "NumericCoeff":
        out = self._dcache.get(i)
        if out is not None:
            return out
        f = self.value
        h = self._STEP
        # Shifts exp(k h e_i) for k = 2, 1, -1, -2, built from the same
        # Python-float products as a fresh ``exp_map(k * h * e)`` call.
        p2, p1, m1, m2 = (self.frame.exp_map(k * h * self.frame.basis[i])
                          for k in (2, 1, -1, -2))

        def fd(Q):
            return (-f(Q @ p2) + 8 * f(Q @ p1)
                    - 8 * f(Q @ m1) + f(Q @ m2)) / (12 * h)

        out = NumericCoeff(self.frame, fd)
        self._dcache[i] = out
        return out

    def add(self, other: "NumericCoeff") -> "NumericCoeff":
        f, g = self.value, other.value
        return NumericCoeff(self.frame, lambda Q: f(Q) + g(Q))

    def mul(self, other: "NumericCoeff") -> "NumericCoeff":
        f, g = self.value, other.value
        return NumericCoeff(self.frame, lambda Q: f(Q) * g(Q))

    def scale(self, c) -> "NumericCoeff":
        c = float(c)
        f = self.value
        return NumericCoeff(self.frame, lambda Q: c * f(Q))

    def is_zero(self) -> bool:
        return False


# ---------------------------------------------------------------------------
# Frame vector fields


class FrameVectorField:
    """A vector field  sum_i f^i E_i  in a left-invariant frame."""

    __slots__ = ("frame", "coeffs", "_polys", "_tree_cache", "_matrix_cache",
                 "_aroma_cache", "_point_map")

    def __init__(self, frame: GroupFrame, coeffs: Iterable):
        self.frame = frame
        self.coeffs = tuple(coeffs)
        if len(self.coeffs) != frame.dim:
            raise ValueError("one coefficient per frame direction")
        # Polynomial coefficients evaluate together, in one pass.
        self._polys = (PolyGroup(c.poly for c in self.coeffs)
                       if all(isinstance(c, AnalyticCoeff) for c in self.coeffs)
                       else None)
        self._tree_cache: dict[PlanarTree, "FrameVectorField"] = {}
        self._matrix_cache: dict[Forest, Callable] = {}
        self._aroma_cache: dict[AromaGenerator, object] = {}
        self._point_map: NumericCoeff | None = None

    def values(self, Q) -> np.ndarray:
        """Frame coefficients (..., d) at a point or a stack (..., n, n)."""
        A = np.asarray(Q)
        if self._polys is not None:
            return self._polys.value(A)
        dt = A.dtype if A.dtype.kind == "f" else object
        return np.moveaxis(np.array([c.value(A) for c in self.coeffs], dtype=dt), 0, -1)

    def tangent(self, Q) -> np.ndarray:
        """Ambient tangent matrix at Q (left translation of the hat)."""
        A = np.asarray(Q)
        return A @ self.frame.hat(self.values(A))

    def apply_to(self, phi):
        """F[phi] = sum_i f^i E_i[phi], the full derivation (not frozen)."""
        acc = None
        for i, c in enumerate(self.coeffs):
            term = c.mul(phi.derive(i))
            acc = term if acc is None else acc.add(term)
        return acc


def connection(Y: FrameVectorField, X: FrameVectorField, p) -> np.ndarray:
    """Coefficients of Y acting on X through the frame: (Y[x^i](p))_i."""
    yv = Y.values(p)
    out = []
    for c in X.coeffs:
        total = 0
        for j in range(Y.frame.dim):
            total = total + yv[j] * c.derive(j).value(p)
        out.append(total)
    return np.array(out, dtype=yv.dtype)


def divergence(F: FrameVectorField, p):
    """Frame divergence  sum_i E_i[f^i]  at p."""
    total = 0
    for i, c in enumerate(F.coeffs):
        total = total + c.derive(i).value(p)
    return total


# ---------------------------------------------------------------------------
# Evaluation of trees, words and aromas


def _check_grade(grade: int) -> None:
    if grade > EVAL_MAX_GRADE:
        raise CapacityError(f"grade {grade} exceeds evaluation bound {EVAL_MAX_GRADE}")


def tree_field(tau: PlanarTree, F: FrameVectorField) -> FrameVectorField:
    """The vector field of a single tree over the generator field F."""
    _check_grade(tau.size)
    cached = F._tree_cache.get(tau)
    if cached is not None:
        return cached
    if not tau.children:
        out = F
    else:
        word = Forest(tau.children)
        out = FrameVectorField(
            F.frame,
            tuple(forest_operator_fn(word, F, c) for c in F.coeffs))
    F._tree_cache[tau] = out
    return out


def forest_operator_fn(omega: Forest, F: FrameVectorField, phi):
    """The frozen word operator of ``omega`` applied to phi, as a function.

    Coefficients of every letter multiply outside the whole derivative
    nest, so products are taken only after all derivations; the leftmost
    letter contributes the outermost derivative.
    """
    _check_grade(omega.grade)
    d = F.frame.dim
    terms = [(None, phi)]
    for t in reversed(omega.trees):
        letter = tree_field(t, F)
        new = []
        for coeff, fn in terms:
            for i in range(d):
                c = letter.coeffs[i]
                if c.is_zero():
                    continue
                new.append((c if coeff is None else coeff.mul(c), fn.derive(i)))
        terms = new
    acc = None
    for coeff, fn in terms:
        part = fn if coeff is None else coeff.mul(fn)
        acc = part if acc is None else acc.add(part)
    return phi.scale(0) if acc is None else acc


def eval_tree(tau: PlanarTree, F: FrameVectorField, p) -> np.ndarray:
    """Tangent coefficients of the tree's elementary field at p."""
    return tree_field(tau, F).values(p)


def aroma_fn(gen: AromaGenerator, F: FrameVectorField):
    """The scalar function of an aroma generator over F.

    The base aroma is  sum_i E_i[F[f^i]]; applied trees act as further
    directional derivations along their elementary fields.
    """
    if gen.base != DIV_AROMA.base:
        raise ConfigurationError(f"unknown aroma generator {gen.base!r}")
    cached = F._aroma_cache.get(gen)
    if cached is not None:
        return cached
    acc = None
    for i, c in enumerate(F.coeffs):
        term = F.apply_to(c).derive(i)
        acc = term if acc is None else acc.add(term)
    for tau in gen.applied:
        acc = tree_field(tau, F).apply_to(acc)
    F._aroma_cache[gen] = acc
    return acc


def coeff_poly_value(c: CoeffPoly, F: FrameVectorField, Q):
    """Numeric value of a coefficient polynomial, aromas evaluated over F."""
    A = np.asarray(Q)
    dt = A.dtype if A.dtype.kind == "f" else None
    total = dt.type(0) if dt is not None else Fraction(0)
    for mono, fr in c.terms.items():
        term = _cast_coeff(dt, fr)
        for gen in mono:
            term = term * aroma_fn(gen, F).value(A)
        total = total + term
    return total


def _word_matrix_fn(F: FrameVectorField, w: Forest) -> Callable:
    """The word operator of ``w`` applied to the point map, as A -> n x n.

    Finite-difference fields run one operator chain on the matrix-valued
    point map.  Stencils, sums and products act elementwise, so every
    entry sees the same operations in the same order as a chain built on
    that entry alone, while the shifted points, stencils and letter
    coefficient products run once instead of n*n times.  All words share
    one point map, so a derivative of it along a given direction sequence
    is evaluated once per point however many words reach it.  Analytic
    fields keep one exact polynomial per entry: a single polynomial over
    all entries would sum in another order.

    The callable maps a point or a stack (..., n, n) to a fresh array of
    the same shape and dtype; the memoised matrix behind it is shared by
    every caller and is never written.  The n*n entry polynomials of an
    analytic word evaluate as one ``PolyGroup``.
    """
    fn = F._matrix_cache.get(w)
    if fn is not None:
        return fn
    frame = F.frame
    if isinstance(F.coeffs[0], AnalyticCoeff):
        n = frame.basis[0].shape[0]
        grid = PolyGroup(forest_operator_fn(w, F, AnalyticCoeff.entry(frame, a, b)).poly
                         for a in range(n) for b in range(n))

        def fn(A):
            return grid.value(A).reshape(A.shape)
    else:
        if F._point_map is None:
            # Entry axes first, so a letter coefficient's value per point,
            # shape (...), broadcasts against it; a copy, so no memo ever
            # aliases the caller's point.
            F._point_map = NumericCoeff(
                frame, lambda Q: np.array(np.moveaxis(Q, (-2, -1), (0, 1))))
        op = forest_operator_fn(w, F, F._point_map)

        def fn(A):
            return np.array(np.moveaxis(op.value(A), (0, 1), (-2, -1)), dtype=A.dtype)
    F._matrix_cache[w] = fn
    return fn


def element_tangent_matrix(x: AlgebroidElement, F: FrameVectorField, Q) -> np.ndarray:
    """Word operators of an element applied entrywise to the point map.

    For a primitive element (a vector field) the result is the ambient
    tangent matrix at Q; coefficients evaluate through ``coeff_poly_value``.
    Q may be a stack (..., n, n), and so is the result.
    """
    A = np.asarray(Q)
    out = np.zeros_like(A)
    for w, c in sorted(x.terms.items()):
        cv = np.asarray(coeff_poly_value(c, F, A))
        out = out + cv[..., None, None] * _word_matrix_fn(F, w)(A)
    return out


# ---------------------------------------------------------------------------
# Steppers
#
# Every stepper maps a point or a stack of points (..., n, n) to the same
# shape, and each lane of a stack gets the same arithmetic, bit for bit,
# as that point on its own.


def lie_euler_step(F: FrameVectorField, p, t) -> np.ndarray:
    """One geodesic step:  p -> p expm(t f^i(p) e_i)."""
    A = np.asarray(p)
    dt = A.dtype.type(t)
    out = A @ F.frame.exp_map(F.frame.hat(dt * F.values(A)))
    if not np.all(np.isfinite(out)):
        raise NumericError("step left the chart (non-finite exponential)")
    return out


@functools.lru_cache(maxsize=None)
def _aromatic_series(order: int):
    series = modified_field("aromatic", order)
    return tuple(sorted(series.coeffs.items()))


def make_aromatic_stepper(F: FrameVectorField):
    """Geodesic stepper along the divergence-preprocessed field.

    Each series degree contributes t^k times the tangent matrix of its
    element; the skew part of the pulled-back sum is the step direction.
    """
    pieces = _aromatic_series(AROMATIC_ORDER)

    def step(p, t):
        A = np.asarray(p)
        tt = A.dtype.type(t)
        M = np.zeros_like(A)
        for k, el in pieces:
            M = M + tt ** k * element_tangent_matrix(el, F, A)
        B = np.swapaxes(A, -1, -2) @ M
        B = (B - np.swapaxes(B, -1, -2)) / 2
        out = A @ F.frame.exp_map(B)
        if not np.all(np.isfinite(out)):
            raise NumericError("step left the chart (non-finite exponential)")
        return out

    return step


def make_stepper(method: str, F: FrameVectorField):
    if method == "lie-euler":
        return lambda p, t: lie_euler_step(F, p, t)
    if method == "aromatic":
        return make_aromatic_stepper(F)
    raise ConfigurationError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# Reference integration

_DEXPINV_EVEN = (Fraction(1, 12), Fraction(-1, 720), Fraction(1, 30240),
                 Fraction(-1, 1209600))


@functools.lru_cache(maxsize=None)
def _dexpinv_even(dt: np.dtype) -> tuple:
    """The even series coefficients cast to ``dt``, once per dtype."""
    return tuple(_cast_coeff(dt, c) for c in _DEXPINV_EVEN)


def dexpinv(frame: GroupFrame, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Inverse exponential differential  w - [u,w]/2 + ... through ad^8.

    ``u`` and ``w`` are frame coordinates (..., d).  The matrix of ad_u,
    ad_u[k, j] = sum_i u_i structure[i, j, k], is built once and applied
    by matrix products.
    """
    dt = w.dtype if w.dtype.kind == "f" else np.dtype(float)
    d = frame.dim
    table = np.swapaxes(frame.structure, 1, 2).reshape(d, d * d)
    ad = (u @ table).reshape(u.shape[:-1] + (d, d))

    def bracket(v):
        return (ad @ v[..., None])[..., 0]

    acc = w - bracket(w) / 2
    cur = w
    for c in _dexpinv_even(dt):
        cur = bracket(bracket(cur))
        acc = acc + c * cur
    return acc


def _chart_rhs(frame: GroupFrame, u: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Chart velocity for a left-invariant field.

    With y = base expm(hat(u)) and y' = y hat(xi), the coordinate runs at
    u' = dexpinv(-u, xi): the odd series terms flip sign relative to the
    right-invariant convention.
    """
    return dexpinv(frame, -u, xi)


def make_reference_stepper(F: FrameVectorField):
    """Fixed-step 4th-order stepper in the exponential chart at the source.

    Deterministic substep count and dtype-following arithmetic make it
    smooth enough to differentiate; used wherever Jacobians of a reference
    map are needed.
    """
    frame = F.frame

    def step(p, t):
        A = np.asarray(p)
        if t == 0:
            return A.copy()
        n = max(16, int(math.ceil(abs(t) / 2e-4)))
        dt = A.dtype.type(t) / n
        u = np.zeros(A.shape[:-2] + (frame.dim,), dtype=A.dtype)

        def f(v):
            y = A @ frame.exp_map(frame.hat(v))
            return _chart_rhs(frame, v, F.values(y))

        for _ in range(n):
            k1 = f(u)
            k2 = f(u + dt / 2 * k1)
            k3 = f(u + dt / 2 * k2)
            k4 = f(u + dt * k3)
            u = u + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        return A @ frame.exp_map(frame.hat(u))

    return step


# ---------------------------------------------------------------------------
# Volume diagnostics


def step_volume(stepper, p, t, frame: GroupFrame | None = None):
    """log |det| of the step map between exponential charts.

    The map is read in the chart at the source point and the chart at its
    image, so it fixes the origin and the determinant measures volume
    change against invariant volume.  Jacobian by central differences
    with step  max(1e-5, t * 1e-3).  ``stepper(points, t)`` maps a stack
    of points (k, n, n) to the stack of their images; the source point
    and its 2d chart perturbations go through it as one stack.
    """
    return _step_volume_image(stepper, p, t, frame)[0]


def _step_volume_image(stepper, p, t, frame: GroupFrame | None = None):
    """``step_volume`` and the image of ``p`` under the step, together."""
    A = np.asarray(p)
    if frame is None:
        frame = so3()
    h = A.dtype.type(max(1e-5, abs(t) * 1e-3))
    d = frame.dim
    # Chart offsets +h e_i, -h e_i for each direction i in turn.
    U = np.zeros((2 * d, d), dtype=A.dtype)
    for i in range(d):
        U[2 * i, i], U[2 * i + 1, i] = h, -h
    images = stepper(np.concatenate((A[None], frame.chart_to(A, U))), t)
    q = images[0]
    v = frame.chart_from(q, images[1:])
    J = ((v[0::2] - v[1::2]) / (2 * h)).T  # column i along direction i
    det = _det3(J) if d == 3 else np.linalg.det(np.asarray(J, dtype=float))
    if det == 0 or not np.isfinite(det):
        raise NumericError("singular step Jacobian")
    return np.log(np.abs(det)), q


def slope_estimate(pairs) -> tuple[float, float]:
    """Least-squares slope of log|value| against log t.

    Returns (slope, residual) where residual is the root-mean-square
    misfit of the line.  Requires at least 4 strictly positive points.
    """
    pts = [(float(t), float(v)) for t, v in pairs]
    if len(pts) < 4:
        raise ValueError("need at least 4 points")
    if any(t <= 0 or v <= 0 for t, v in pts):
        raise ValueError("slope fit is defined for positive data only")
    x = np.log([t for t, _ in pts])
    y = np.log([v for _, v in pts])
    n = len(pts)
    xm, ym = x.mean(), y.mean()
    slope = float(((x - xm) * (y - ym)).sum() / ((x - xm) ** 2).sum())
    resid = y - (ym + slope * (x - xm))
    return slope, float(np.sqrt((resid ** 2).sum() / n))


# ---------------------------------------------------------------------------
# Field recipes


def divergence_free_field(frame: GroupFrame | None = None,
                          derivatives: str = "analytic") -> FrameVectorField:
    """The default divergence-free field on the rotation group.

    Built from the entry h = Q[2][2], which the third frame direction
    annihilates: a curl-like combination of its frame derivatives,
        g_1 = E_2[h],  g_2 = -E_1[h],  g_3 = 0,
        f^i = sum_jk  eps_ijk E_j[g_k],
    has divergence  E_k[g_k] = E_3[h] = 0 identically.
    """
    if frame is None:
        frame = so3()
    if frame.dim != 3:
        raise ConfigurationError("recipe needs a three-dimensional frame")
    n = frame.basis[0].shape[0]
    h = MatrixPoly.entry(n, 2, 2)

    def d(i: int, poly: MatrixPoly) -> MatrixPoly:
        return poly.derive_along(frame.basis[i])

    g = (d(1, h), -d(0, h), MatrixPoly.zero(n))
    eps = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
           (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}
    f = []
    for i in range(3):
        acc = MatrixPoly.zero(n)
        for (a, b, c), s in eps.items():
            if a == i:
                acc = acc + d(b, g[c]).scale(s)
        f.append(acc)
    if derivatives == "analytic":
        coeffs = tuple(AnalyticCoeff(frame, poly) for poly in f)
    elif derivatives == "fd":
        coeffs = tuple(NumericCoeff(frame, poly.value) for poly in f)
    else:
        raise ConfigurationError(f"unknown derivative mode {derivatives!r}")
    return FrameVectorField(frame, coeffs)


FIELD_RECIPES = {"q33-curl": divergence_free_field}


def make_field(name: str, frame: GroupFrame | None = None,
               derivatives: str = "analytic") -> FrameVectorField:
    recipe = FIELD_RECIPES.get(name)
    if recipe is None:
        raise ConfigurationError(f"unknown field recipe {name!r}")
    return recipe(frame, derivatives)


def random_rotation(rng: random.Random, frame: GroupFrame | None = None) -> np.ndarray:
    """Seeded random rotation, moderate angle."""
    if frame is None:
        frame = so3()
    xi = np.array([rng.uniform(-1.0, 1.0) for _ in range(frame.dim)])
    return frame.exp_map(frame.hat(xi))


# ---------------------------------------------------------------------------
# Experiments


#: Most rows an experiment runs.  An aromatic fd volume row costs about
#: 4 ms: 64 of them on [1e-3, 1e-1] ran in 0.22-0.25 s after the import,
#: in a fresh process on a 2-vCPU VM (0.9-1.1 s when steppers took one
#: point per call).
MAX_T_POINTS = 64

#: Most steps one order-experiment row composes, round(horizon / t).
#: Same box: an aromatic order experiment on [1e-4, 1e-1], rows of 1, 6,
#: 32, 178 and 1000 steps, ran in 0.38-0.40 s (1.85-1.92 s before).
MAX_ORDER_STEPS = 1000

#: Most worker threads an experiment takes: the CPU count, but never below
#: the 8 that the thread-determinism checks run.
MAX_THREADS = max(8, os.cpu_count() or 1)


def geometric_grid(t_min: float, t_max: float, points: int) -> tuple[float, ...]:
    """Strictly decreasing geometric grid from t_max down to t_min."""
    if points > MAX_T_POINTS:
        raise ConfigurationError(f"t-grid of {points} points exceeds bound {MAX_T_POINTS}")
    if not (0 < t_min < math.inf and 0 < t_max < math.inf):
        raise ConfigurationError("t-grid must be positive and finite")
    return tuple(float(v) for v in np.geomspace(t_max, t_min, points))


_DEFAULT_GRID = geometric_grid(1e-3, 1e-1, 8)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully determines one experiment run (together with the code)."""

    kind: str = "volume"
    method: str = "lie-euler"
    group: str = "so3"
    field: str = "q33-curl"
    t_grid: tuple[float, ...] = _DEFAULT_GRID
    base_point: str = "random"
    derivatives: str = "analytic"
    seed: int = 0
    out: str | None = None
    threads: int = 1

    def __post_init__(self):
        grid = tuple(float(t) for t in self.t_grid)
        object.__setattr__(self, "t_grid", grid)
        if len(grid) < 5:
            raise ConfigurationError("t-grid needs at least 5 points")
        if len(grid) > MAX_T_POINTS:
            raise ConfigurationError(
                f"t-grid of {len(grid)} points exceeds bound {MAX_T_POINTS}")
        if not all(0 < t < math.inf for t in grid):
            raise ConfigurationError("t-grid must be positive and finite")
        if any(a <= b for a, b in zip(grid, grid[1:])):
            raise ConfigurationError("t-grid must be strictly decreasing")
        if self.kind not in ("volume", "order"):
            raise ConfigurationError(f"unknown experiment kind {self.kind!r}")
        # The smallest step's row composes round(horizon / t) steps; compared
        # as a float, since the ratio may overflow to inf.
        steps = grid[0] / grid[-1]
        if self.kind == "order" and steps > MAX_ORDER_STEPS + 0.5:
            raise ConfigurationError(
                f"order row of {steps:.4g} steps exceeds bound {MAX_ORDER_STEPS}")
        if self.base_point not in ("random", "identity"):
            raise ConfigurationError(f"unknown base point {self.base_point!r}")
        if self.threads < 1:
            raise ConfigurationError("threads must be positive")
        if self.threads > MAX_THREADS:
            raise ConfigurationError(
                f"threads {self.threads} exceeds bound {MAX_THREADS}")


@dataclass(frozen=True)
class ExperimentRow:
    t: float
    log_det: float
    abs_err: float
    method: str
    field: str
    seed: int


@dataclass(frozen=True)
class ExperimentResult:
    rows: tuple[ExperimentRow, ...]
    slope: float
    residual: float

    def csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(f"{r.t!r},{r.log_det!r},{r.abs_err!r},"
                         f"{r.method},{r.field},{r.seed}")
        lines.append(f"# slope={self.slope!r} residual={self.residual!r}")
        return "\n".join(lines) + "\n"


def _base_point(cfg: ExperimentConfig, frame: GroupFrame) -> np.ndarray:
    if cfg.base_point == "identity":
        p = np.eye(frame.basis[0].shape[0])
    else:
        p = random_rotation(random.Random(cfg.seed), frame)
    # Extended precision: the volume signals sit near the float64 fd floor.
    return np.asarray(p, dtype=np.longdouble)


def _map_rows(fn, grid: Sequence[float], threads: int) -> tuple:
    if threads > 1:
        # Imported here: a one-thread run, the default, never needs it.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return tuple(pool.map(fn, grid))
    return tuple(fn(t) for t in grid)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    group = GROUPS.get(cfg.group)
    if group is None:
        raise ConfigurationError(f"unknown group {cfg.group!r}")
    frame = group()
    F = make_field(cfg.field, frame, cfg.derivatives)
    p = _base_point(cfg, frame)
    if cfg.kind == "volume":
        return _volume_experiment(cfg, frame, F, p)
    return _order_experiment(cfg, frame, F, p)


def _volume_experiment(cfg, frame, F, p) -> ExperimentResult:
    stepper = make_stepper(cfg.method, F)
    stepper(p, cfg.t_grid[0])  # warm evaluation caches before any fan-out

    def one(t: float) -> ExperimentRow:
        ld = float(step_volume(stepper, p, t, frame))
        return ExperimentRow(t, ld, abs(ld), cfg.method, cfg.field, cfg.seed)

    rows = _map_rows(one, cfg.t_grid, cfg.threads)
    slope, residual = slope_estimate([(r.t, r.abs_err) for r in rows])
    return ExperimentResult(rows, slope, residual)


def _order_experiment(cfg, frame, F, p) -> ExperimentResult:
    """Global accuracy over the horizon t_max, one row per step size."""
    horizon = cfg.t_grid[0]
    reference = make_reference_stepper(F)
    target = reference(p, horizon)
    method = make_stepper(cfg.method, F)
    method(p, cfg.t_grid[0])  # warm evaluation caches before any fan-out

    def one(t: float) -> ExperimentRow:
        n = max(1, round(horizon / t))

        def composite(y, tt):
            h = tt / n
            for _ in range(n):
                y = method(y, h)
            return y

        ld, q = _step_volume_image(composite, p, horizon, frame)
        err = float(np.sqrt(np.sum((q - target) ** 2)))
        return ExperimentRow(horizon / n, float(ld), err, cfg.method, cfg.field, cfg.seed)

    rows = _map_rows(one, cfg.t_grid, cfg.threads)
    slope, residual = slope_estimate([(r.t, r.abs_err) for r in rows])
    return ExperimentResult(rows, slope, residual)
