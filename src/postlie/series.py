"""Truncated formal series in one parameter t over algebroid elements.

A series stores one homogeneous element per t-degree: the element at
degree k must have every term of combined grade k (word grade plus
coefficient degree), which makes t bookkeeping redundant and keeps all
arithmetic exact.  Products truncate at the stated order.  The public
constructor checks that grading; sums, negation, scaling, truncation and
products keep it by construction and build their results unchecked.

The module provides the two exponentials (Grossman-Larson and
concatenation), the Grossman-Larson logarithm used for backward error
analysis, flow composition, and the degree-3 preprocessed field whose
aroma coefficient is the opaque generator ``DIV_AROMA``; its numeric
meaning is supplied by the frame-evaluation layer.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping

from .algebroid import AlgebroidElement, concat_mul, gl_product
from .coeffs import CoeffPoly, AromaGenerator, Scalar
from .trees import CapacityError, Forest, LEAF, PlanarTree, single

#: Degree-2 aroma generator standing for the divergence of the applied
#: field; purely symbolic here.
DIV_AROMA = AromaGenerator("adiv", base_degree=2)

#: Highest order the exponentials, the logarithm and the modified fields
#: compute.  Cost grows steeply with the order: in a fresh process on a
#: 2-vCPU VM, ``series gl-exp`` takes 1.6 to 2.3 s at order 10 and
#: ``series modified-field --method lie-euler`` 7.4 to 10.3 s, most of
#: the latter in element sums and scaling inside ``log_gl``; ``gl-exp``
#: did not finish in 90 s at order 12.
MAX_SERIES_ORDER = 10


def _check_order(order: int) -> None:
    if order > MAX_SERIES_ORDER:
        raise CapacityError(f"order {order} exceeds bound {MAX_SERIES_ORDER}")


class TruncatedSeries:
    """Map from t-degree to a grade-homogeneous element, up to ``order``."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int,
                 coeffs: Mapping[int, AlgebroidElement] | None = None):
        if order < 0:
            raise ValueError("order must be nonnegative")
        clean: dict[int, AlgebroidElement] = {}
        if coeffs:
            for k, x in coeffs.items():
                if x.is_zero():
                    continue
                if k < 0 or k > order:
                    raise ValueError(f"degree {k} outside 0..{order}")
                if not x.is_homogeneous(k):
                    raise ValueError(f"element at degree {k} is not grade-{k} homogeneous")
                clean[k] = x
        self.order = order
        self.coeffs = clean

    @classmethod
    def _raw(cls, order: int,
             coeffs: dict[int, AlgebroidElement]) -> "TruncatedSeries":
        """Internal: every key in 0..order holds a nonzero element that is
        homogeneous of that grade.  Takes ownership of the dict."""
        out = object.__new__(cls)
        out.order = order
        out.coeffs = coeffs
        return out

    # -- constructors

    @staticmethod
    def zero(order: int) -> "TruncatedSeries":
        return TruncatedSeries(order)

    @staticmethod
    def one(order: int) -> "TruncatedSeries":
        return TruncatedSeries(order, {0: AlgebroidElement.unit()})

    # -- access

    def coeff(self, k: int) -> AlgebroidElement:
        return self.coeffs.get(k, AlgebroidElement.zero())

    def is_zero(self) -> bool:
        return not self.coeffs

    # -- linear structure

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        order = min(self.order, other.order)
        acc = {k: x for k, x in self.coeffs.items() if k <= order}
        for k, x in other.coeffs.items():
            if k > order:
                continue
            cur = acc.get(k)
            if cur is None:
                acc[k] = x
            else:
                cur = cur + x
                if cur.is_zero():
                    del acc[k]
                else:
                    acc[k] = cur
        return TruncatedSeries._raw(order, acc)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._raw(self.order, {k: -x for k, x in self.coeffs.items()})

    def scale(self, c: Scalar) -> "TruncatedSeries":
        c = Fraction(c)
        if not c:
            return TruncatedSeries(self.order)
        return TruncatedSeries._raw(self.order,
                                    {k: x.scale(c) for k, x in self.coeffs.items()})

    def truncate(self, order: int) -> "TruncatedSeries":
        if order < 0:
            raise ValueError("order must be nonnegative")
        return TruncatedSeries._raw(
            order, {k: x for k, x in self.coeffs.items() if k <= order})

    # -- comparison, display

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.order, frozenset(self.coeffs.items())))

    def dump(self) -> str:
        if not self.coeffs:
            return "0"
        lines = []
        for k in sorted(self.coeffs):
            for line in self.coeffs[k].dump().splitlines():
                lines.append(f"t^{k} | {line}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.dump().replace("\n", "; ")

    def __repr__(self) -> str:
        return f"TruncatedSeries<order={self.order}; {self}>"


def field_series(order: int) -> TruncatedSeries:
    """t . o: the bare single-vertex field as a degree-1 series, truncated
    at ``order`` (the zero series at order 0)."""
    field = TruncatedSeries(1, {1: AlgebroidElement.from_forest(single(LEAF))})
    return field.truncate(order)


# ---------------------------------------------------------------------------
# Products, exponentials, logarithm


_Mul = Callable[[AlgebroidElement, AlgebroidElement], AlgebroidElement]


def _series_product(a: TruncatedSeries, b: TruncatedSeries, mul: _Mul,
                    order: int) -> TruncatedSeries:
    acc: dict[int, AlgebroidElement] = {}
    for i, x in a.coeffs.items():
        if i > order:
            continue
        for j, y in b.coeffs.items():
            k = i + j
            if k > order:
                continue
            p = mul(x, y)
            if p.is_zero():
                continue
            cur = acc.get(k)
            acc[k] = p if cur is None else cur + p
    return TruncatedSeries._raw(order, {k: v for k, v in acc.items() if not v.is_zero()})


def _exp(x: TruncatedSeries, order: int, mul: _Mul) -> TruncatedSeries:
    _check_order(order)
    if not x.coeff(0).is_zero():
        raise ValueError("exponential needs a series with no constant term")
    x = x.truncate(order)
    out = TruncatedSeries.one(order)
    power = TruncatedSeries.one(order)
    factorial = 1
    for n in range(1, order + 1):
        power = _series_product(power, x, mul, order)
        if power.is_zero():
            break
        factorial *= n
        out = out + power.scale(Fraction(1, factorial))
    return out


def exp_gl(x: TruncatedSeries, order: int) -> TruncatedSeries:
    """Grossman-Larson exponential of a series without constant term."""
    return _exp(x, order, gl_product)


def exp_concat(x: TruncatedSeries, order: int) -> TruncatedSeries:
    """Concatenation exponential of a series without constant term."""
    return _exp(x, order, concat_mul)


def log_gl(s: TruncatedSeries, order: int) -> TruncatedSeries:
    """Inverse of exp_gl on series with constant term 1.

    Triangular in the filtration degree: the n-th power of s - 1 only
    reaches degrees >= n, so the sum is finite at each order.
    """
    _check_order(order)
    if s.coeff(0) != AlgebroidElement.unit():
        raise ValueError("logarithm needs constant term 1")
    z = s.truncate(order) - TruncatedSeries.one(order)
    out = TruncatedSeries.zero(order)
    power = TruncatedSeries.one(order)
    for n in range(1, order + 1):
        power = _series_product(power, z, gl_product, order)
        if power.is_zero():
            break
        out = out + power.scale(Fraction((-1) ** (n + 1), n))
    return out


def compose_gl(s2: TruncatedSeries, s1: TruncatedSeries) -> TruncatedSeries:
    """Flow composition: the degreewise Grossman-Larson product s2 * s1."""
    order = min(s2.order, s1.order)
    return _series_product(s2, s1, gl_product, order)


# ---------------------------------------------------------------------------
# Modified fields


def preprocessed_field(order: int) -> TruncatedSeries:
    """The degree-3 preprocessed field

        t.o + (t^2/2).[o] - (t^3/3).[[o]] - (t^3/12).adiv.o
            + (t^3/6).(o [o] - [o] o)

    with adiv the opaque divergence aroma.  Terms beyond t^3 vanish."""
    if order < 3:
        raise ValueError("preprocessed field needs order >= 3")
    cherry = PlanarTree((LEAF,))
    chain3 = PlanarTree((cherry,))
    E = AlgebroidElement.from_forest
    deg3 = (
        E(single(chain3), Fraction(-1, 3))
        + E(Forest((LEAF, cherry)), Fraction(1, 6))
        + E(Forest((cherry, LEAF)), Fraction(-1, 6))
        + E(single(LEAF), CoeffPoly.generator(DIV_AROMA).scale(Fraction(-1, 12)))
    )
    return TruncatedSeries(order, {
        1: E(single(LEAF)),
        2: E(single(cherry), Fraction(1, 2)),
        3: deg3,
    })


def modified_field(method: str, order: int) -> TruncatedSeries:
    """Backward-error modified field of a named one-step method."""
    _check_order(order)
    if method == "lie-euler":
        return log_gl(exp_concat(field_series(order), order), order)
    if method == "aromatic":
        return preprocessed_field(order)
    raise ValueError(f"unknown method {method!r}")
