"""Grafting, Grossman-Larson structure, antipodes, coefficient actions."""

from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from postlie import coeffs
from postlie.algebroid import (
    AlgebroidElement,
    TensorElement,
    _gl_words,
    _triangle_words,
    antipode_concat,
    concat_mul,
    coproduct,
    counit,
    gl_antipode,
    gl_antipode_word,
    gl_product,
    parse_element,
    theta,
    triangle,
    word_action,
    word_splits,
    word_triples,
)
from postlie.braiding import braid_pair
from postlie.checks import _dress, basis_tuples, random_element
from postlie.coeffs import AromaGenerator, CoeffPoly
from postlie.trees import (
    CapacityError,
    EMPTY_FOREST,
    Forest,
    LEAF,
    PlanarTree,
    enumerate_forests,
    graft_into_forest,
    parse_forest,
    single,
    trees_of_size,
)


def el(text: str) -> AlgebroidElement:
    return parse_element(text)


ONE = AlgebroidElement.from_forest(EMPTY_FOREST)
O = el("o")
O_WORD = parse_forest("o")
G = CoeffPoly.generator("g")


# -- element plumbing


rational_sums = st.lists(
    st.tuples(st.fractions(), st.sampled_from(enumerate_forests(5))), max_size=5,
).map(
    lambda terms: sum((AlgebroidElement.from_forest(w, c) for c, w in terms),
                      AlgebroidElement.zero()))


@given(rational_sums)
@example(el("2/3 [o] o + -1 o + 5 1"))
def test_parse_dump_round_trip(x):
    assert parse_element(x.dump().replace("\n", " + ").replace(" | ", " ")) == x


def test_parse_coefficient_spellings():
    # The coefficient may be followed by '*', with or without spaces.
    for text in ("2/3*[o] o", "2/3 *[o] o", "2/3* [o] o", "2/3 * [o] o"):
        assert el(text) == el("2/3 [o] o")
    assert el("-1*o + 5*1") == el("-1 o + 5 1")


def test_zero_and_scale():
    assert el("o").scale(0) == AlgebroidElement.zero()
    assert el("o").scale(Fraction(1, 2)) + el("1/2 o") == el("o")
    assert el("o + o") == el("2 o")


# Three summands of one kind, as elements and as tensors.
_SUMMANDS = {
    AlgebroidElement: (el("o"), el("2/3 [o] o").scale(G), el("-1 o + 5 1")),
    TensorElement: (TensorElement.of(el("o"), el("[o]")),
                    TensorElement.of(el("2/3 o o"), el("1")).scale(G),
                    TensorElement.of(el("-1 o + 5 1"), el("o"))),
}


@pytest.mark.parametrize("kind", [AlgebroidElement, TensorElement],
                         ids=lambda kind: kind.__name__)
def test_combination_core(kind):
    """Elements and tensors share one linear structure: cancellation,
    scaling by zero, order-free sums and hashes, and no mixing of kinds."""
    x, y, z = _SUMMANDS[kind]
    zero = x + (-x)
    assert zero.terms == {} and zero.is_zero() and zero == kind.zero()
    assert zero.dump() == {AlgebroidElement: "0 | 1", TensorElement: "0 | 1 | 1"}[kind]
    assert (x - x).is_zero() and x.scale(0).is_zero() and y.scale(0) == kind()
    forward, backward = x + y + z, z + (y + x)
    assert forward == backward and hash(forward) == hash(backward)
    assert forward.dump() == backward.dump()
    assert repr(forward) == f"{kind.__name__}<{forward}>"
    other = _SUMMANDS[TensorElement if kind is AlgebroidElement else AlgebroidElement][0]
    assert (x == other) is False and x != other
    with pytest.raises(TypeError):
        x + other


def test_iota_counit():
    assert counit(AlgebroidElement.iota(G)) == G
    assert counit(el("5/2 1 + o")) == CoeffPoly.scalar(Fraction(5, 2))
    assert counit(O).is_zero()


def test_parse_rejects_garbage():
    for text in ("o + + o", "2/3*", "2/3 * x", "1e99999999 o", "1e999999 o"):
        with pytest.raises(ValueError):
            parse_element(text)


# -- concatenation algebra


def test_concat_basic():
    assert concat_mul(el("[o]"), el("o")) == el("[o] o")
    assert concat_mul(el("o"), el("[o]")) == el("o [o]")
    assert concat_mul(ONE, el("o o")) == el("o o")


def test_concat_coefficients_multiply():
    x = AlgebroidElement.from_forest(parse_forest("o"), G)
    y = AlgebroidElement.iota(CoeffPoly.scalar(Fraction(3, 2)))
    got = concat_mul(y, x)
    assert got.terms[parse_forest("o")] == G.scale(Fraction(3, 2))


def test_concat_associative():
    a, b, c = el("o + [o]"), el("o o"), el("2 o + 1")
    assert concat_mul(concat_mul(a, b), c) == concat_mul(a, concat_mul(b, c))


# -- coproduct (unshuffle of letters)


def test_coproduct_counts():
    pairs = word_splits(parse_forest("o o"))
    assert sorted(m for _, _, m in pairs) == [1, 1, 2]


def test_coproduct_counit_axiom():
    for w in enumerate_forests(3):
        left = AlgebroidElement.zero()
        for w1, w2, mult in word_splits(w):
            c = counit(AlgebroidElement.from_forest(w1))
            left = left + AlgebroidElement.from_forest(w2, c.scale(mult))
        assert left == AlgebroidElement.from_forest(w)


def test_triples_refine_splits():
    # Unshuffling into three legs agrees with splitting twice.
    for w in enumerate_forests(3):
        twice: dict = {}
        for w1, rest, m in word_splits(w):
            for w2, w3, k in word_splits(rest):
                key = (w1, w2, w3)
                twice[key] = twice.get(key, 0) + m * k
        direct: dict = {}
        for w1, w2, w3, m in word_triples(w):
            direct[(w1, w2, w3)] = direct.get((w1, w2, w3), 0) + m
        assert twice == direct


def test_coproduct_is_cocommutative_on_words():
    for w in enumerate_forests(3):
        flipped: dict = {}
        for w1, w2, m in word_splits(w):
            flipped[(w2, w1)] = flipped.get((w2, w1), 0) + m
        straight = {}
        for w1, w2, m in word_splits(w):
            straight[(w1, w2)] = straight.get((w1, w2), 0) + m
        assert flipped == straight


# -- grafting product


def test_triangle_small_values():
    assert triangle(O, O) == el("[o]")
    assert triangle(O, el("[o]")) == el("[oo] + [[o]]")
    assert triangle(O, el("o o")) == el("[o] o + o [o]")
    assert triangle(ONE, el("o o")) == el("o o")
    assert triangle(O, ONE) == AlgebroidElement.zero()


def test_triangle_bilinear():
    a, b = el("o + 2 [o]"), el("o o + -1 o")
    split = triangle(el("o"), b) + triangle(el("2 [o]"), b)
    assert triangle(a, b) == split


def test_triangle_grade_capacity():
    big = AlgebroidElement.from_forest(Forest((LEAF,) * 40))
    with pytest.raises(CapacityError):
        triangle(big, big)


# -- Grossman-Larson product


def test_gl_small_values():
    assert gl_product(O, O) == el("[o] + o o")
    assert gl_product(ONE, el("o o")) == el("o o")
    assert gl_product(el("o o"), ONE) == el("o o")


def test_gl_triangle_factorisation():
    # x * y keeps the ungrafted letters on the left at each split.
    got = gl_product(el("o o"), O)
    want = el("[oo] + 2 o [o] + o o o")
    # Independent expansion: sum over splits of (x1 concat (x2 > y)).
    acc = AlgebroidElement.zero()
    for w1, w2, m in word_splits(parse_forest("o o")):
        a1 = AlgebroidElement.from_forest(w1)
        a2 = AlgebroidElement.from_forest(w2)
        acc = acc + concat_mul(a1, triangle(a2, O)).scale(m)
    assert got == acc == want


def test_gl_associative_spot():
    a, b, c = el("o + [o]"), el("o o"), el("o + 2 1")
    assert gl_product(gl_product(a, b), c) == gl_product(a, gl_product(b, c))


# -- antipodes


def test_antipode_values():
    assert gl_antipode(O) == el("-1 o")
    assert gl_antipode(el("[o]")) == el("-1 [o]")
    assert gl_antipode(el("o o")) == el("2 [o] + o o")
    assert antipode_concat(O) == el("-1 o")
    assert antipode_concat(el("o o")) == el("o o")


@pytest.mark.parametrize("product,antipode", [
    (gl_product, gl_antipode),
    (concat_mul, antipode_concat),
])
def test_antipode_convolution_identity(product, antipode):
    # m (S x id) delta = iota o counit, on every word of grade <= 3.
    for w in enumerate_forests(3):
        x = AlgebroidElement.from_forest(w)
        acc = AlgebroidElement.zero()
        for w1, w2, mult in word_splits(w):
            acc = acc + product(
                antipode(AlgebroidElement.from_forest(w1)),
                AlgebroidElement.from_forest(w2),
            ).scale(mult)
        assert acc == AlgebroidElement.iota(counit(x))


def test_gl_antipode_is_involutive_small():
    for w in enumerate_forests(3):
        x = AlgebroidElement.from_forest(w)
        assert gl_antipode(gl_antipode(x)) == x


# -- coefficient actions


def _words(x: AlgebroidElement) -> dict:
    """A pure element as a rational combination of words."""
    return {w: f.constant_value() for w, f in x.terms.items()}


def test_module_action_values():
    assert word_action({O_WORD: 1}, G) == CoeffPoly.generator(AromaGenerator("g", (LEAF,)))
    t = parse_forest("[o]").trees[0]
    assert word_action({single(t): 1}, G) == CoeffPoly.generator(
        AromaGenerator("g", (t,))
    )
    # Two-letter words pick up a correction from the grafted bracket.
    got = word_action({parse_forest("o o"): 1}, G)
    want = CoeffPoly.generator(AromaGenerator("g", (LEAF, LEAF))) - CoeffPoly.generator(
        AromaGenerator("g", (t,))
    )
    assert got == want
    # Non-empty words kill constants; the empty word scales.
    assert word_action({O_WORD: 1, EMPTY_FOREST: 3}, CoeffPoly.scalar(2)) == CoeffPoly.scalar(6)


def test_module_action_leibniz_over_gl():
    h = CoeffPoly.generator("h")
    for w in enumerate_forests(2):
        for v in enumerate_forests(2):
            x = AlgebroidElement.from_forest(w)
            y = AlgebroidElement.from_forest(v)
            assert word_action(_words(gl_product(x, y)), G * h) == word_action(
                {w: 1}, word_action({v: 1}, G * h)
            )


# -- independent reference for the coefficient path


def _ref_word(w: Forest, y: AlgebroidElement) -> AlgebroidElement:
    """w > y by the plain uncached recursion

        (x X) > y  =  x > (X > y)  -  (x > X) > y,
        x > (g . v)  =  derive(x, g) . v  +  g . (x > v),

    with a single tree grafting letterwise into v."""
    if not w.trees:
        return y
    x = w.trees[0]
    if len(w) == 1:
        out = AlgebroidElement.zero()
        for v, g in y.terms.items():
            out = out + AlgebroidElement.from_forest(v, g.derive(x))
            for u, m in graft_into_forest(x, v).items():
                out = out + AlgebroidElement.from_forest(u, g.scale(m))
        return out
    rest = Forest(w.trees[1:])
    out = _ref_word(single(x), _ref_word(rest, y))
    for u, m in graft_into_forest(x, rest).items():
        out = out - _ref_word(u, y).scale(m)
    return out


def _ref_triangle(a: AlgebroidElement, b: AlgebroidElement) -> AlgebroidElement:
    out = AlgebroidElement.zero()
    for w, f in a.terms.items():
        out = out + _ref_word(w, b).scale(f)
    return out


def _ref_gl(a: AlgebroidElement, b: AlgebroidElement) -> AlgebroidElement:
    out = AlgebroidElement.zero()
    for w, f in a.terms.items():
        for w1, w2, m in word_splits(w):
            out = out + concat_mul(AlgebroidElement.from_forest(w1, f.scale(m)),
                                   _ref_word(w2, b))
    return out


def test_coefficient_path_matches_reference():
    rng = random.Random(5)
    cases = [(_dress(rng, w, True), _dress(rng, v, True))
             for w, v in basis_tuples(3, 2)]
    for i in range(150):
        cases.append(tuple(random_element(rng, 3, coeffs=(i + k) % 3 != 0)
                           for k in range(2)))
    words = enumerate_forests(3)
    cases += [(AlgebroidElement.from_forest(w), AlgebroidElement.iota(G)) for w in words]
    for x, y in cases:
        assert triangle(x, y) == _ref_triangle(x, y)
        assert gl_product(x, y) == _ref_gl(x, y)
    for w in words:
        x = AlgebroidElement.from_forest(w)
        assert word_action({w: 1}, G) == counit(_ref_triangle(x, AlgebroidElement.iota(G)))
        assert word_action({w: 1}, G) == counit(triangle(x, AlgebroidElement.iota(G)))


# -- integer path for pure operands


def _assert_int_iff_integral(x: AlgebroidElement) -> None:
    for f in x.terms.values():
        for c in f.terms.values():
            assert c != 0
            assert (type(c) is int) == (Fraction(c).denominator == 1), c


def _pure(rng: random.Random, words, n: int) -> AlgebroidElement:
    """n terms whose denominators are drawn so that their lcm exceeds each."""
    x = AlgebroidElement.zero()
    for _ in range(n):
        c = Fraction(rng.choice((-7, -5, -3, -1, 1, 2, 5, 6)), rng.choice((1, 4, 6, 10, 15)))
        x = x + AlgebroidElement.from_forest(rng.choice(words), c)
    return x


def test_pure_integer_path_matches_reference():
    rng = random.Random(11)
    words = enumerate_forests(3)
    # o > o = [o] and [o] > o = [[o]] against o > [o] = [[o]] + [oo]: the
    # [[o]] terms cancel exactly, 1/4 * 5/6 - 5/6 * 1/4 = 0.
    a = el("1/4 o + -5/6 [o]")
    b = el("5/6 [o] + 1/4 o")
    cases = [(a, b), (b, a), (el("1/4 o"), el("5/6 o o"))]
    cases += [(_pure(rng, words, rng.randint(1, 3)), _pure(rng, words, rng.randint(1, 3)))
              for _ in range(120)]
    # Pure against dressed, in both orders.
    for _ in range(40):
        x = _pure(rng, words, rng.randint(1, 3))
        y = random_element(rng, 3)
        cases += [(x, y), (y, x)]
    for x, y in cases:
        got = triangle(x, y)
        assert got == _ref_triangle(x, y), (x, y)
        _assert_int_iff_integral(got)
        got = gl_product(x, y)
        assert got == _ref_gl(x, y), (x, y)
        _assert_int_iff_integral(got)
    assert parse_forest("[[o]]") not in triangle(a, b).terms


def test_pure_integer_antipode():
    # S(o o) = 2 [o] + o o and S([o]) = -[o]: the [o] terms cancel.
    assert gl_antipode(el("1/4 o o + 1/2 [o]")) == el("1/4 o o")
    rng = random.Random(12)
    words = enumerate_forests(4)
    for _ in range(100):
        x = _pure(rng, words, rng.randint(1, 4))
        got = gl_antipode(x)
        want = AlgebroidElement.zero()
        for w, f in x.terms.items():
            want = want + gl_antipode(AlgebroidElement.from_forest(w)).scale(
                f.constant_value())
        assert got == want == theta(x)
        _assert_int_iff_integral(got)
        assert gl_antipode(got) == x


# -- closed-form grafting


def _closed_form_graft(w: Forest, v: Forest) -> dict[Forest, int]:
    """w > v as the sum over all maps of the letters of w to the vertices
    of v: each letter becomes a new leftmost child of its vertex, and the
    letters sent to one vertex keep their order in w.  No memo and no
    signed cancellation."""
    def paths(t, path):
        yield path
        for j, c in enumerate(t.children):
            yield from paths(c, path + (j,))

    def rebuild(t, path, extra):
        children = tuple(rebuild(c, path + (j,), extra) for j, c in enumerate(t.children))
        return PlanarTree(tuple(extra.get(path, ())) + children)

    vertices = [p for i, t in enumerate(v.trees) for p in paths(t, (i,))]
    out: dict[Forest, int] = {}
    for targets in itertools.product(vertices, repeat=len(w)):
        extra: dict[tuple, list] = {}
        for letter, p in zip(w.trees, targets):
            extra.setdefault(p, []).append(letter)
        u = Forest(tuple(rebuild(t, (i,), extra) for i, t in enumerate(v.trees)))
        out[u] = out.get(u, 0) + 1
    return out


def test_triangle_words_matches_closed_form():
    words = enumerate_forests(6)
    pairs = [(w, v) for w in words for v in words if w.grade + v.grade <= 6]
    for w, v in pairs:
        assert _triangle_words(w, v) == _closed_form_graft(w, v), (w, v)
    assert len(pairs) == 625


def test_triangle_words_grafts_single_trees():
    # One letter grafts letterwise: the kernel against the trees layer.
    pairs = [(x, v) for n in range(1, 9) for x in trees_of_size(n)
             for v in enumerate_forests(8 - n, bound=8)]
    for x, v in pairs:
        assert _triangle_words(single(x), v) == graft_into_forest(x, v), (x, v)
    assert len(pairs) == 2055


def test_gl_antipode_word_is_convolution_inverse():
    # sum  w1 * S_gl(w2)  =  counit(w) . 1, on every word of grade <= 7.
    words = enumerate_forests(7, bound=7)
    for w in words:
        acc: dict[Forest, int] = {}
        for w1, w2, mult in word_splits(w):
            for v, k in gl_antipode_word(w2).items():
                for u, m in _gl_words(w1, v).items():
                    acc[u] = acc.get(u, 0) + mult * k * m
        acc = {u: n for u, n in acc.items() if n}
        assert acc == ({} if w.trees else {EMPTY_FOREST: 1}), w
    assert len(words) == 626


# -- theta


def test_theta_values():
    assert theta(O) == el("-1 o")
    carrying = AlgebroidElement.from_forest(parse_forest("o"), G)
    got = theta(carrying)
    dg = CoeffPoly.generator(AromaGenerator("g", (LEAF,)))
    want = AlgebroidElement.iota(-dg) + AlgebroidElement.from_forest(
        parse_forest("o"), -G
    )
    assert got == want


def test_theta_involution():
    x = AlgebroidElement.from_forest(parse_forest("[o] o"), G) + el("2 [[o]]")
    assert theta(theta(x)) == x


def test_theta_antihomomorphism_spot():
    x, y = el("o + [o]"), el("o o + -2 o")
    assert theta(gl_product(x, y)) == gl_product(theta(y), theta(x))


# -- the dressed path on rank monomials


def _dressed_pairs(seed: int, n: int):
    rng = random.Random(seed)
    return [(random_element(rng, rng.randint(0, 3)), random_element(rng, rng.randint(0, 3)))
            for _ in range(n)]


DRESSED_OPS = {
    "triangle": triangle,
    "gl_product": gl_product,
    "theta": lambda a, b: theta(a),
    "braid_pair": braid_pair,
}


# sha256 of the dumps on 200 seeded dressed pairs of grade <= 3, blank-line
# separated, pinned from the coefficient code that preceded rank monomials.
@pytest.mark.parametrize("name, lines, digest", [
    ("triangle", 611, "670fe67bc5896bff912bd4361f481eb9435a3e660f2d47601160408959dcc56f"),
    ("gl_product", 840, "c9f5a8b2fa3b96d262e2163cb4c780d9b304b6cff5fdb6f559ea11a59069875b"),
    ("theta", 607, "5668d1487998d48cd127bd353dbf724d7c6e5b186246db6d3c5e8ad2ecb05074"),
    ("braid_pair", 1466, "607842421f0850370beaf04fa4ce239b38453b31c72d0853e9e737a758b2def7"),
])
def test_dressed_dumps_golden(name, lines, digest):
    op = DRESSED_OPS[name]
    text = "\n\n".join(op(a, b).dump() for a, b in _dressed_pairs(1515, 200))
    assert len(text.splitlines()) == lines
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_dressed_operations_build_no_terms_view(monkeypatch):
    # The generator view of a coefficient is for display and evaluation;
    # the dressed operations stay on rank monomials and integer numerators.
    calls = []
    to_generators = coeffs._generators

    def counted(m):
        calls.append(m)
        return to_generators(m)

    monkeypatch.setattr(coeffs, "_generators", counted)
    results = []
    for a, b in _dressed_pairs(7, 40):
        results += [triangle(a, b), gl_product(a, b), theta(a)]
    assert not calls
    for x in results:
        x.dump()
    assert calls
