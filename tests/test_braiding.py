"""Braiding operator on tensors over the coefficient algebra."""

from __future__ import annotations

import random
from fractions import Fraction

from postlie.algebroid import (
    AlgebroidElement,
    TensorElement,
    gl_product,
    parse_element,
    theta,
    triangle,
    word_triples,
)
from postlie.braiding import (
    braid_expansion,
    braid_pair,
    braid_r,
    check_braiding,
    multiply_tensor,
    reduce_pairs,
)
from postlie.checks import _dress, basis_tuples, random_element
from postlie.coeffs import CoeffPoly
from postlie.trees import EMPTY_FOREST, enumerate_forests, parse_forest


def el(text: str) -> AlgebroidElement:
    return parse_element(text)


def pure_tensor(w: str, v: str, c=1) -> TensorElement:
    return TensorElement(
        {(parse_forest(w), parse_forest(v)): CoeffPoly.scalar(Fraction(c))}
    )


def test_worked_example():
    got = braid_pair(el("o"), el("o"))
    want = pure_tensor("[o]", "1") + pure_tensor("o", "o") + pure_tensor("1", "[o]", -1)
    assert got == want


def test_swaps_against_unit():
    assert braid_r(pure_tensor("o o", "1")) == pure_tensor("1", "o o")
    assert braid_r(pure_tensor("1", "[o]")) == pure_tensor("[o]", "1")
    assert braid_r(pure_tensor("1", "1")) == pure_tensor("1", "1")


def test_braid_r_matches_braid_pair_on_pure():
    for w in enumerate_forests(2):
        for v in enumerate_forests(2):
            t = TensorElement({(w, v): CoeffPoly.one()})
            assert braid_r(t) == braid_pair(
                AlgebroidElement.from_forest(w), AlgebroidElement.from_forest(v)
            )


def test_braiding_preserves_multiplication():
    for w in enumerate_forests(2):
        for v in enumerate_forests(2):
            x = AlgebroidElement.from_forest(w)
            y = AlgebroidElement.from_forest(v)
            assert multiply_tensor(braid_pair(x, y)) == gl_product(x, y)


def test_reduce_pairs_move_identity():
    # f . x and its moved form are the same balanced tensor.
    from postlie.algebroid import gl_antipode_word, gl_product, word_action, word_splits

    f = CoeffPoly.generator("g")
    x = AlgebroidElement.from_forest(parse_forest("o o"), f)
    y = el("o")
    direct = reduce_pairs([(x, y)])
    # Move the coefficient across by hand: f . w = sum w1 * iota(S(w2) -> f).
    moved = []
    for w1, w2, m in word_splits(parse_forest("o o")):
        g = word_action(gl_antipode_word(w2), f)
        left = gl_product(
            AlgebroidElement.from_forest(w1, CoeffPoly.scalar(m)),
            AlgebroidElement.iota(g),
        )
        moved.append((left, y))
    assert direct == reduce_pairs(moved)
    # Canonical forms are stable: the coefficient now scales the right slot,
    # and reducing again changes nothing.
    rereduced = reduce_pairs(
        [
            (AlgebroidElement.from_forest(w), AlgebroidElement.from_forest(v, c))
            for (w, v), c in direct.items()
        ]
    )
    assert rereduced == direct


def test_expansion_pools_to_pair():
    x, y = el("o + [o]"), el("2 o")
    pooled = braid_pair(x, y)
    rebuilt = TensorElement.zero()
    for left, right in braid_expansion(x, y):
        rebuilt = rebuilt + TensorElement.of(left, right)
    assert rebuilt == pooled


def reference_braid_pairs(x: AlgebroidElement, y: AlgebroidElement):
    """r(x (x) y) = sum (x1 > y1) (x) theta(x2 > y2) * x3 * y3 straight from
    the definition, uncached and unpooled: each factor's coefficient rides
    the first leg of its three-way unshuffle splittings."""
    def legs(z):
        for w, f in z.terms.items():
            for w1, w2, w3, m in word_triples(w):
                yield (AlgebroidElement.from_forest(w1, f.scale(m)),
                       AlgebroidElement.from_forest(w2),
                       AlgebroidElement.from_forest(w3))

    return [
        (triangle(x1, y1), gl_product(gl_product(theta(triangle(x2, y2)), x3), y3))
        for x1, x2, x3 in legs(x)
        for y1, y2, y3 in legs(y)
    ]


def test_braid_pair_matches_definition():
    rng = random.Random(5)
    cases = [(_dress(rng, w, True), _dress(rng, v, True)) for w, v in basis_tuples(3, 2)]
    cases += [(random_element(rng, 3), random_element(rng, 3)) for _ in range(150)]
    for x, y in cases:
        pairs = reference_braid_pairs(x, y)
        pooled = TensorElement.zero()
        for left, right in pairs:
            pooled = pooled + TensorElement.of(left, right)
        assert braid_pair(x, y) == pooled, (x, y)
        assert reduce_pairs(braid_expansion(x, y)) == reduce_pairs(pairs), (x, y)


def test_braid_pair_pure_integer_path():
    rng = random.Random(13)
    words = enumerate_forests(3)

    def pure(n):
        # Denominators whose lcm exceeds each of them.
        x = AlgebroidElement.zero()
        for _ in range(n):
            c = Fraction(rng.choice((-5, -1, 1, 3, 6)), rng.choice((1, 4, 6, 10)))
            x = x + AlgebroidElement.from_forest(rng.choice(words), c)
        return x

    cases = [(el("1/4 o + -5/6 [o]"), el("5/6 [o] + 1/4 o")),
             (el("1/4 o o"), el("5/6 o + 3/10 1"))]
    cases += [(pure(rng.randint(1, 3)), pure(rng.randint(1, 3))) for _ in range(60)]
    for _ in range(30):
        x, y = pure(rng.randint(1, 2)), random_element(rng, 3)
        cases += [(x, y), (y, x)]
    for x, y in cases:
        pooled = TensorElement.zero()
        for left, right in reference_braid_pairs(x, y):
            pooled = pooled + TensorElement.of(left, right)
        got = braid_pair(x, y)
        assert got == pooled, (x, y)
        for f in got.terms.values():
            for c in f.terms.values():
                assert c != 0
                assert (type(c) is int) == (Fraction(c).denominator == 1), c


def test_check_braiding_small():
    reports = check_braiding(max_grade=2, samples=8, sample_grade=3, seed=1)
    assert reports
    assert all(r.passed for r in reports)
    assert {r.suite for r in reports} == {"braiding"}


def test_check_braiding_is_deterministic():
    a = [r.line() for r in check_braiding(max_grade=2, samples=6, sample_grade=3, seed=3)]
    b = [r.line() for r in check_braiding(max_grade=2, samples=6, sample_grade=3, seed=3)]
    assert a == b
