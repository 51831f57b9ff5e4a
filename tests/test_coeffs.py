"""Aroma coefficient polynomials: exact commutative ring with derivations."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from postlie.coeffs import AromaGenerator, CoeffPoly
from postlie.trees import LEAF, parse_tree

G = AromaGenerator("g")
H = AromaGenerator("h")
T2 = parse_tree("[o]")

gens = st.sampled_from([G, H, G.derive(LEAF), H.derive(T2)])
scalars = st.integers(min_value=-4, max_value=4).map(lambda n: Fraction(n, 3))
monomial_polys = st.lists(gens, min_size=0, max_size=2).map(
    lambda gs: CoeffPoly({tuple(sorted(gs, key=lambda g: g.sort_key)): 1})
)
polys = st.lists(
    st.tuples(monomial_polys, scalars), min_size=0, max_size=3
).map(lambda ps: sum((m.scale(c) for m, c in ps), CoeffPoly.zero()))


# -- generators


def test_generator_identity_ignores_grading():
    assert AromaGenerator("g", base_degree=2) == AromaGenerator("g")
    assert AromaGenerator("g") != AromaGenerator("h")
    assert AromaGenerator("g", base_degree=2).degree == 2


def test_derive_appends_and_interns():
    d = G.derive(LEAF)
    assert d.applied == (LEAF,)
    assert d.degree == 1
    assert d is G.derive(LEAF)
    assert d.derive(T2).degree == 3


def test_generator_str():
    assert str(G) == "g"
    assert str(G.derive(LEAF).derive(T2)) == "g^(o,[o])"


# -- ring structure


def test_constants():
    assert CoeffPoly.zero().is_zero()
    assert CoeffPoly.one().is_constant()
    assert CoeffPoly.scalar(Fraction(2, 3)).constant_value() == Fraction(2, 3)
    assert CoeffPoly.scalar(0) == CoeffPoly.zero()


def test_exact_fractions():
    third = CoeffPoly.scalar(Fraction(1, 3))
    assert (third + third + third) == CoeffPoly.one()


def test_generator_constructor():
    assert CoeffPoly.generator("g") == CoeffPoly.generator(G)
    assert CoeffPoly.generator("g", base_degree=2).degree() == 2


def test_known_product():
    g = CoeffPoly.generator(G)
    h = CoeffPoly.generator(H)
    p = (g + h) * (g - h)
    assert p == g * g - h * h


@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + CoeffPoly.zero() == a
    assert a * CoeffPoly.one() == a
    assert a - a == CoeffPoly.zero()


@given(polys)
def test_scale_matches_mul(a):
    assert a.scale(Fraction(5, 7)) == CoeffPoly.scalar(Fraction(5, 7)) * a
    assert 3 * a == a + a + a


# -- derivations


def test_leibniz_on_generators():
    g = CoeffPoly.generator(G)
    h = CoeffPoly.generator(H)
    d = (g * h).derive(LEAF)
    assert d == CoeffPoly.generator(G.derive(LEAF)) * h + g * CoeffPoly.generator(
        H.derive(LEAF)
    )


def test_derive_kills_constants():
    assert CoeffPoly.scalar(Fraction(7, 2)).derive(LEAF).is_zero()


@given(polys, polys)
def test_derive_is_linear_leibniz(a, b):
    assert (a + b).derive(T2) == a.derive(T2) + b.derive(T2)
    assert (a * b).derive(T2) == a.derive(T2) * b + a * b.derive(T2)


# -- grading and display


def test_degree_tracking():
    # One grading per base symbol: reuse of "g" at another degree would pick
    # up generators interned elsewhere, so grade a fresh name.
    k2 = CoeffPoly.generator(AromaGenerator("k", base_degree=2))
    assert k2.degree() == 2
    assert (k2 * k2).degree() == 4
    assert k2.derive(T2).degree() == 4
    assert k2.is_homogeneous(2)
    assert not (k2 + CoeffPoly.one()).is_homogeneous(2)


def test_str_is_deterministic():
    g = CoeffPoly.generator(G)
    h = CoeffPoly.generator(H)
    assert str(g * h + h * g) == str(g * h * CoeffPoly.scalar(2))


def test_sorted_terms_ordering():
    g = CoeffPoly.generator(G)
    h = CoeffPoly.generator(H)
    terms = (h + g * g).sorted_terms()
    assert len(terms) == 2
    assert all(isinstance(c, Fraction) for _, c in terms)
