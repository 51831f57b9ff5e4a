"""Truncated formal series in one parameter t over algebroid elements.

A series stores one homogeneous element per t-degree: the element at
degree k must have every term of combined grade k (word grade plus
coefficient degree), which makes t bookkeeping redundant and keeps all
arithmetic exact.  Products truncate at the stated order.  The public
constructor checks that grading; sums, negation, scaling, truncation and
products keep it by construction and build their results unchecked.

The module provides the two exponentials (Grossman-Larson and
concatenation), the Grossman-Larson logarithm used for backward error
analysis, and the degree-3 preprocessed field whose aroma coefficient is
the opaque generator ``DIV_AROMA``; its numeric meaning is supplied by
the frame-evaluation layer.

The exponentials and the logarithm are one power sum,
sum weight(n) . z^n, with weights 1/n! and (-1)^(n+1)/n.  A series is
pure when every degree has rational constant coefficients only.  Pure
series, such as the field and the modified field of Lie-Euler, run in
integers from input to output: each degree is held as integer numerators
over one denominator, the powers go through the integer smash loop of
the algebroid layer with the pure-word kernel of the product, a weight
p/q multiplies the numerators by p and the denominator by q, and a sum
of degrees works over the lcm of the two denominators and divides out
the gcd.  Each output word takes one division, when the result becomes
elements.  A series with any coefficient-carrying degree, such as the
preprocessed field, runs the same loop on elements.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Mapping

from .algebroid import (
    AlgebroidElement,
    _accumulate,
    _bump,
    _gl_words,
    _numerators,
    _over,
    _smash_ints,
    concat_mul,
    gl_product,
)
from .coeffs import CoeffPoly, AromaGenerator, Scalar
from .trees import CapacityError, EMPTY_FOREST, Forest, LEAF, PlanarTree, single

#: Degree-2 aroma generator standing for the divergence of the applied
#: field; purely symbolic here.
DIV_AROMA = AromaGenerator("adiv", base_degree=2)

#: Highest order the exponentials, the logarithm and the modified fields
#: compute.  Cost grows about fourfold per order.  On a 2-vCPU VM with
#: Python 3.11.7, in a fresh process, ``series modified-field --method
#: lie-euler`` takes 0.80 s and 69 MB at order 10 (2.9 s and 92 MB when
#: the series layer summed ``Fraction`` elements) and ``series gl-exp``
#: 0.61 s and 63 MB.  In process, order 11 takes 2.5 s and 175 MB for
#: lie-euler and 1.6 s and 147 MB for gl-exp, and each prints over 80,000
#: lines.
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
            if k <= order:
                _accumulate(acc, k, x)
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
#
# Products and power sums run on one of two forms of a series, each a
# dict from t-degree to a nonzero value: the element form holds the
# ``AlgebroidElement``; the pure form, when every degree passes
# ``_numerators``, holds (numerators, denominator) with the gcd divided
# out, and becomes elements through ``_over``.


_Mul = Callable[[AlgebroidElement, AlgebroidElement], AlgebroidElement]
_Words = Callable[[Forest, Forest], dict[Forest, int]]
_Pure = dict[int, tuple[dict[Forest, int], int]]


def _concat_words(w: Forest, v: Forest) -> dict[Forest, int]:
    """Pure-word concatenation, the word kernel of ``concat_mul``."""
    return {w + v: 1}


def _pure(s: TruncatedSeries) -> _Pure | None:
    """The pure form of s, or None when some degree is dressed."""
    out: _Pure = {}
    for k, x in s.coeffs.items():
        p = _numerators(x)
        if p is None:
            return None
        xs, d = p
        out[k] = (dict(xs), d)
    return out


def _from_pure(order: int, p: _Pure) -> TruncatedSeries:
    return TruncatedSeries._raw(order, {
        k: AlgebroidElement._raw(_over(xs, d)) for k, (xs, d) in p.items()})


def _store(acc: _Pure, k: int, xs: dict[Forest, int], d: int) -> None:
    """acc[k] = xs / d with the gcd divided out; a degree that cancelled
    to nothing is dropped."""
    if not xs:
        acc.pop(k, None)
        return
    g = math.gcd(d, *xs.values())
    if g != 1:
        xs = {w: x // g for w, x in xs.items()}
        d //= g
    acc[k] = (xs, d)


def _pure_product(a: _Pure, b: _Pure, words: _Words, order: int) -> _Pure:
    """Degreewise product of pure forms, truncated at ``order``: each
    output degree sums its degree pairs through ``_smash_ints`` over the
    lcm of the pairs' denominators."""
    pairs: dict[int, list[tuple[dict[Forest, int], dict[Forest, int], int]]] = {}
    for i, (xs, da) in a.items():
        for j, (ys, db) in b.items():
            if i + j <= order:
                pairs.setdefault(i + j, []).append((xs, ys, da * db))
    out: _Pure = {}
    for k, terms in pairs.items():
        d = math.lcm(*(e for _, _, e in terms))
        sums: dict[Forest, int] = {}
        for xs, ys, e in terms:
            if e != d:
                xs = {w: x * (d // e) for w, x in xs.items()}
            _smash_ints(xs.items(), ys.items(), words, sums)
        _store(out, k, sums, d)
    return out


def _add_pure(acc: _Pure, p: _Pure, c: Fraction) -> None:
    """acc += c . p on pure forms, degree by degree over the lcm of the
    two denominators."""
    for k, (xs, d) in p.items():
        d *= c.denominator
        old, e = acc.get(k, ({}, d))
        n = math.lcm(e, d)
        sums = {w: x * (n // e) for w, x in old.items()}
        m = c.numerator * (n // d)
        for w, x in xs.items():
            _bump(sums, w, x * m)
        _store(acc, k, sums, n)


def _element_product(a: dict[int, AlgebroidElement], b: dict[int, AlgebroidElement],
                     mul: _Mul, order: int) -> dict[int, AlgebroidElement]:
    """Degreewise product of element forms, truncated at ``order``."""
    acc: dict[int, AlgebroidElement] = {}
    for i, x in a.items():
        for j, y in b.items():
            if i + j <= order:
                p = mul(x, y)
                if not p.is_zero():
                    _accumulate(acc, i + j, p)
    return acc


def _add_elements(acc: dict[int, AlgebroidElement], p: dict[int, AlgebroidElement],
                  c: Fraction) -> None:
    """acc += c . p on element forms."""
    for k, x in p.items():
        _accumulate(acc, k, x.scale(c))


def _power_sum(z: TruncatedSeries, order: int, mul: _Mul, words: _Words,
               weight: Callable[[int], Fraction], unit: bool) -> TruncatedSeries:
    """[1 +] sum over n >= 1 of weight(n) . z^n, truncated at ``order``,
    for z without constant term: the one loop behind the exponentials and
    the logarithm.  z^n only reaches degrees >= n, so the sum is finite.
    A pure z runs on the pure form with the word kernel ``words``; any
    other z runs on the element form with the product ``mul``."""
    pure = _pure(z)
    if pure is None:
        one = AlgebroidElement.unit()
        product = functools.partial(_element_product, b=z.coeffs, mul=mul, order=order)
        add = _add_elements
    else:
        one = ({EMPTY_FOREST: 1}, 1)
        product = functools.partial(_pure_product, b=pure, words=words, order=order)
        add = _add_pure
    out = {0: one} if unit else {}
    power = {0: one}
    for n in range(1, order + 1):
        power = product(power)
        if not power:
            break
        add(out, power, weight(n))
    if pure is None:
        return TruncatedSeries._raw(order, out)
    return _from_pure(order, out)


def _exp(x: TruncatedSeries, order: int, mul: _Mul, words: _Words) -> TruncatedSeries:
    _check_order(order)
    if not x.coeff(0).is_zero():
        raise ValueError("exponential needs a series with no constant term")
    return _power_sum(x.truncate(order), order, mul, words,
                      lambda n: Fraction(1, math.factorial(n)), unit=True)


def exp_gl(x: TruncatedSeries, order: int) -> TruncatedSeries:
    """Grossman-Larson exponential of a series without constant term."""
    return _exp(x, order, gl_product, _gl_words)


def exp_concat(x: TruncatedSeries, order: int) -> TruncatedSeries:
    """Concatenation exponential of a series without constant term."""
    return _exp(x, order, concat_mul, _concat_words)


def log_gl(s: TruncatedSeries, order: int) -> TruncatedSeries:
    """Inverse of exp_gl on series with constant term 1:
    log(1 + z) = sum over n >= 1 of (-1)^(n+1)/n . z^n."""
    _check_order(order)
    if s.coeff(0) != AlgebroidElement.unit():
        raise ValueError("logarithm needs constant term 1")
    z = s.truncate(order) - TruncatedSeries.one(order)
    return _power_sum(z, order, gl_product, _gl_words,
                      lambda n: Fraction((-1) ** (n + 1), n), unit=False)


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
