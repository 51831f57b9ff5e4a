"""Truncated series, exponentials, logarithm, modified fields."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from postlie.algebroid import AlgebroidElement, concat_mul, gl_product, parse_element
from postlie.coeffs import CoeffPoly
from postlie.series import (
    DIV_AROMA,
    TruncatedSeries,
    exp_concat,
    exp_gl,
    field_series,
    log_gl,
    modified_field,
    preprocessed_field,
)
from postlie.trees import forests_of_grade

from oracles import compose_gl


def el(text: str) -> AlgebroidElement:
    return parse_element(text)


# -- container behaviour


def test_series_grading_enforced():
    with pytest.raises(ValueError):
        TruncatedSeries(3, {2: el("o")})


def test_series_truncates():
    s = field_series(4)
    assert s.coeff(1) == el("o")
    assert s.coeff(2).is_zero()
    t = s.truncate(0)
    assert t.is_zero()


def test_series_linear_ops():
    s = field_series(3)
    assert (s + s).coeff(1) == el("2 o")
    assert (s - s).is_zero()
    assert s.scale(Fraction(1, 2)).coeff(1) == el("1/2 o")


def test_dump_format():
    lines = field_series(2).dump().splitlines()
    assert lines[0].startswith("t^1 ")


# -- exponentials


def test_exp_gl_low_degrees():
    e = exp_gl(field_series(3), 3)
    assert e.coeff(0) == AlgebroidElement.unit()
    assert e.coeff(1) == el("o")
    # o*o = [o] + oo, halved.
    assert e.coeff(2) == el("1/2 [o] + 1/2 o o")


def test_exp_concat_is_divided_powers():
    e = exp_concat(field_series(4), 4)
    assert e.coeff(3) == el("1/6 o o o")
    assert e.coeff(4) == el("1/24 o o o o")


def test_exp_needs_no_constant_term():
    with pytest.raises(ValueError):
        exp_gl(TruncatedSeries.one(2), 2)


def test_log_needs_unit_constant_term():
    with pytest.raises(ValueError):
        log_gl(field_series(2), 2)


def test_log_inverts_exp():
    s = field_series(4)
    assert log_gl(exp_gl(s, 4), 4) == s.truncate(4)


def test_exp_inverts_log():
    e = exp_concat(field_series(3), 3)
    assert exp_gl(log_gl(e, 3), 3) == e


def test_compose_flows():
    # Composing the time-t flow with itself squares the exponential.
    e = exp_gl(field_series(3), 3)
    twice = compose_gl(e, e)
    doubled = exp_gl(field_series(3).scale(2), 3)
    assert twice == doubled


# -- modified fields


def test_lie_euler_backward_error_degree2():
    m = modified_field("lie-euler", 3)
    assert m.coeff(1) == el("o")
    assert m.coeff(2) == el("-1/2 [o]")


def test_lie_euler_modified_field_reproduces_method():
    # exp_gl of the modified field is the method's own series.
    m = modified_field("lie-euler", 4)
    assert exp_gl(m, 4) == exp_concat(field_series(4), 4)


def test_preprocessed_field_shape():
    from postlie.trees import parse_forest

    p = preprocessed_field(3)
    assert p.coeff(1) == el("o")
    assert p.coeff(2) == el("1/2 [o]")
    adiv = CoeffPoly.generator(DIV_AROMA).scale(Fraction(-1, 12))
    want = el("-1/3 [[o]] + 1/6 o [o] + -1/6 [o] o") + AlgebroidElement.from_forest(
        parse_forest("o"), adiv
    )
    assert p.coeff(3) == want
    assert p.coeff(4).is_zero() if p.order >= 4 else True


def test_preprocessed_degree3_is_grade_homogeneous():
    # The aroma generator carries grading weight 2, so adiv.o sits at t^3.
    assert DIV_AROMA.degree == 2
    deg3 = preprocessed_field(3).coeff(3)
    for w, c in deg3.terms.items():
        assert all(
            w.grade + sum(g.degree for g in mono) == 3 for mono, _ in c.sorted_terms()
        )


def test_modified_field_validation():
    with pytest.raises(ValueError):
        modified_field("midpoint", 3)
    with pytest.raises(ValueError):
        preprocessed_field(2)


def test_aromatic_alias():
    assert modified_field("aromatic", 3) == preprocessed_field(3)


# -- pure series against element arithmetic
#
# A pure series (rational constant coefficients only) runs on integer
# numerators inside the series layer.  The reference below builds the
# same sums from element products, ``AlgebroidElement.__add__`` and
# ``scale``, one power at a time.


def _ref_product(a, b, mul, order):
    acc = {}
    for i, x in a.coeffs.items():
        for j, y in b.coeffs.items():
            if i + j <= order:
                acc[i + j] = acc.get(i + j, AlgebroidElement.zero()) + mul(x, y)
    return TruncatedSeries(order, acc)


def _ref_power_sum(z, order, mul, weight, unit):
    out = TruncatedSeries.one(order) if unit else TruncatedSeries.zero(order)
    power = TruncatedSeries.one(order)
    for n in range(1, order + 1):
        power = _ref_product(power, z, mul, order)
        out = out + power.scale(weight(n))
    return out


def _ref_exp(x, order, mul):
    return _ref_power_sum(x, order, mul, lambda n: Fraction(1, math.factorial(n)), True)


def _ref_log(s, order):
    z = s - TruncatedSeries.one(order)
    return _ref_power_sum(z, order, gl_product,
                          lambda n: Fraction((-1) ** (n + 1), n), False)


def _random_pure(rng, order):
    """Up to three words per degree 1..order, with fractional coefficients."""
    coeffs = {}
    for k in range(1, order + 1):
        words = list(forests_of_grade(k))
        x = AlgebroidElement.zero()
        for w in rng.sample(words, min(len(words), rng.randint(0, 3))):
            x = x + AlgebroidElement.from_forest(
                w, Fraction(rng.randint(-6, 6), rng.randint(1, 12)))
        coeffs[k] = x
    return TruncatedSeries(order, coeffs)


def _cases(seed, count=12):
    rng = random.Random(seed)
    for _ in range(count):
        order = rng.randint(0, 6)
        yield order, _random_pure(rng, order), _random_pure(rng, order)


def _no_empty_degree(s):
    assert all(not x.is_zero() for x in s.coeffs.values())
    assert not any(line.endswith("| 0 | 1") for line in s.dump().splitlines())


PURE_OPS = {
    "exp_gl": (lambda x, y, n: exp_gl(x, n),
               lambda x, y, n: _ref_exp(x, n, gl_product)),
    "exp_concat": (lambda x, y, n: exp_concat(x, n),
                   lambda x, y, n: _ref_exp(x, n, concat_mul)),
    "log_gl": (lambda x, y, n: log_gl(TruncatedSeries.one(n) + x, n),
               lambda x, y, n: _ref_log(TruncatedSeries.one(n) + x, n)),
    "compose_gl": (lambda x, y, n: compose_gl(TruncatedSeries.one(n) + x, y),
                   lambda x, y, n: _ref_product(TruncatedSeries.one(n) + x, y,
                                                gl_product, n)),
}


@pytest.mark.parametrize("op", sorted(PURE_OPS))
@pytest.mark.parametrize("seed", [5, 6])
def test_pure_series_match_element_reference(op, seed):
    fast, ref = PURE_OPS[op]
    for order, x, y in _cases(seed):
        got, want = fast(x, y, order), ref(x, y, order)
        assert got == want, (op, order, x)
        assert got.dump() == want.dump()
        _no_empty_degree(got)


def test_pure_log_inverts_exp_on_random_series():
    for order, x, _ in _cases(7):
        back = log_gl(exp_gl(x, order), order)
        assert back == x
        _no_empty_degree(back)


def test_cancelled_degrees_are_dropped():
    # exp(x) * exp(-x) = 1: every positive degree cancels to zero.
    for order, x, _ in _cases(8, count=6):
        one = compose_gl(exp_gl(x, order), exp_gl(-x, order))
        assert one == TruncatedSeries.one(order)
        assert one.dump() == "t^0 | 1 | 1"
        assert log_gl(TruncatedSeries.one(order), order).dump() == "0"


def test_mixed_series_round_trips():
    # The aromatic degree-3 term carries a generator, so the whole series
    # takes the element path.
    p = preprocessed_field(4)
    e = exp_gl(p, 4)
    assert log_gl(e, 4) == p
    assert e == _ref_exp(p, 4, gl_product)
