"""Braiding operator on the Grossman-Larson algebroid.

The operator sends a word pair to

    r(x (x) y)  =  (x1 > y1)  (x)  theta(x2 > y2) * x3 * y3

summed over three-way unshuffle splittings of both factors.  Pure words
stay pure under >, theta and *, so the kernel ``_braid_words`` runs on
integer combinations of word pairs; ``braid_r`` extends it linearly over
the pooled pair coefficient of a :class:`TensorElement`, which reads that
coefficient off the left factor.  ``braid_pair`` keeps the two factors
separate and runs the kernel through the algebroid's smash loop,

    r((f . w) (x) (g . v))  =  sum  f . (w1 -> g) . r(w2 (x) v),

which is exact because the unshuffle coproduct is coassociative and the
right output leg theta(x2 > y2) * x3 * y3 is always pure.  The two
evaluations agree whenever the right factor is pure.  ``reduce_pairs``
compares sums of element pairs by moving each left coefficient across
the tensor with the algebroid's ``_twisted``, the loop ``theta`` runs on.

``check_braiding`` verifies the six braiding axioms and the counit
consequence on pure tensors, and the two scalar-slot identities (left
multiplication in the first factor, right multiplication in the second)
with coefficient-carrying elements.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from .algebroid import (
    AlgebroidElement,
    TensorElement,
    _accumulate,
    _bump,
    _gl_words,
    _guard,
    _smash,
    _triangle_words,
    _twisted,
    counit,
    gl_antipode_word,
    gl_product,
    word_splits,
    word_triples,
)
from .checks import CheckReport, _run_suite, basis_tuples, random_element, random_poly
from .coeffs import CoeffPoly
from .trees import Forest

_Pair = tuple[Forest, Forest]


# ---------------------------------------------------------------------------
# Kernel


def _chain_gl(d: dict[Forest, int], u: Forest) -> dict[Forest, int]:
    """Right gl-multiply an integer combination of words by the word u."""
    out: dict[Forest, int] = {}
    for z, k in d.items():
        for p, m in _gl_words(z, u).items():
            _bump(out, p, k * m)
    return out


@functools.lru_cache(maxsize=None)
def _braid_words(w: Forest, v: Forest) -> dict[_Pair, int]:
    """The braiding on a pure word pair, as an integer combination.

    The returned dict is cached and shared; callers must not mutate it.
    """
    out: dict[_Pair, int] = {}
    for w1, w2, w3, mw in word_triples(w):
        for v1, v2, v3, mv in word_triples(v):
            left = _triangle_words(w1, v1)
            if not left:
                continue
            mid = _triangle_words(w2, v2)
            if not mid:
                continue
            twisted: dict[Forest, int] = {}
            for u, k in mid.items():
                for z, s in gl_antipode_word(u).items():
                    _bump(twisted, z, k * s)
            right = _chain_gl(_chain_gl(twisted, w3), v3)
            m = mw * mv
            for a, ka in left.items():
                for b, kb in right.items():
                    _bump(out, (a, b), m * ka * kb)
    return out


def braid_r(p: TensorElement) -> TensorElement:
    """Braiding operator on tensors, linear over the pair coefficient.

    Sends 1 (x) x to x (x) 1 and x (x) 1 to 1 (x) x.
    """
    acc: dict[_Pair, CoeffPoly] = {}
    for (w, v), c in p.terms.items():
        _guard(w.grade + v.grade + c.degree())
        for pair, m in _braid_words(w, v).items():
            _accumulate(acc, pair, c.scale(m))
    return TensorElement(acc)


def braid_pair(x: AlgebroidElement, y: AlgebroidElement) -> TensorElement:
    """Braiding of an explicit element pair, slot aware.

    The right factor's coefficients meet the derivations of the left
    factor's leading splitting leg:  (f . w) (x) (g . v)  goes to
    sum  f . (w1 -> g) . r(w2 (x) v).  Matches ``braid_r`` on tensors
    whose right factor is pure.
    """
    return TensorElement(_smash(x, y, _braid_words))


def braid_expansion(
    x: AlgebroidElement, y: AlgebroidElement,
) -> list[tuple[AlgebroidElement, AlgebroidElement]]:
    """The terms of ``braid_pair`` as element pairs (c . a, b), with each
    pair coefficient on its left factor; compare sums of pairs through
    :func:`reduce_pairs`."""
    return [(AlgebroidElement.from_forest(a, c), AlgebroidElement.from_forest(b))
            for (a, b), c in braid_pair(x, y).terms.items()]


def reduce_pairs(
    pairs: list[tuple[AlgebroidElement, AlgebroidElement]],
) -> dict[_Pair, CoeffPoly]:
    """Canonical form of a sum of element pairs in the balanced tensor.

    Every left-slot coefficient is moved across the tensor with

        f . x  =  sum  x1 * iota((S(x2) -> f)),

    after which the left words are bare and the pair coefficient means
    scalar multiplication on the right slot.  Two sums of pairs represent
    the same balanced tensor exactly when their reductions agree.
    """
    acc: dict[_Pair, CoeffPoly] = {}
    for a, b in pairs:
        for w, c in a.terms.items():
            for w1, g in _twisted(c, w):
                for v, d in b.terms.items():
                    _accumulate(acc, (w1, v), g * d)
    return acc


def multiply_tensor(t: TensorElement) -> AlgebroidElement:
    """Collapse a tensor with the gl product, linear over the pair
    coefficient."""
    acc: dict[Forest, CoeffPoly] = {}
    for (w, v), c in t.terms.items():
        _guard(w.grade + v.grade)
        for u, m in _gl_words(w, v).items():
            _accumulate(acc, u, c.scale(m))
    return AlgebroidElement._raw(acc)


# ---------------------------------------------------------------------------
# Axiom checks


_Quad = tuple[Forest, Forest, Forest, Forest]


def _coproduct_compatible(x: AlgebroidElement, y: AlgebroidElement) -> bool:
    """Axiom (a): coproducts of both output legs, with the middle flip,
    agree with braiding both halves of the split pair.  Pure inputs only;
    the four-fold tensor pools to one rational per word quadruple."""
    lhs: dict[_Quad, Fraction] = {}
    for (a, b), c in braid_r(TensorElement.of(x, y)).terms.items():
        cv = c.constant_value()
        for a1, a2, m1 in word_splits(a):
            for b1, b2, m2 in word_splits(b):
                _bump(lhs, (a1, b1, a2, b2), cv * m1 * m2)
    rhs: dict[_Quad, Fraction] = {}
    for w, f in x.terms.items():
        for v, g in y.terms.items():
            c = f.constant_value() * g.constant_value()
            for x1, x2, m1 in word_splits(w):
                for y1, y2, m2 in word_splits(v):
                    k = c * m1 * m2
                    for (p, q), k1 in _braid_words(x1, y1).items():
                        for (s, t), k2 in _braid_words(x2, y2).items():
                            _bump(rhs, (p, q, s, t), k * k1 * k2)
    return lhs == rhs


def _multiplication_preserved(x: AlgebroidElement, y: AlgebroidElement) -> bool:
    """Axiom (b): m r = m."""
    return multiply_tensor(braid_r(TensorElement.of(x, y))) == gl_product(x, y)


def _left_product_rule(x: AlgebroidElement, y: AlgebroidElement,
                       z: AlgebroidElement) -> bool:
    """Axiom (c): r(m (x) id) = (id (x) m)(r (x) id)(id (x) r)."""
    lhs = braid_r(TensorElement.of(gl_product(x, y), z))
    acc: dict[_Pair, CoeffPoly] = {}
    for (p, q), c1 in braid_r(TensorElement.of(y, z)).terms.items():
        inner = braid_r(TensorElement.of(x, AlgebroidElement.from_forest(p, c1)))
        for (s, t), c2 in inner.terms.items():
            for u, m in _gl_words(t, q).items():
                _accumulate(acc, (s, u), c2.scale(m))
    return lhs == TensorElement(acc)


def _right_product_rule(x: AlgebroidElement, y: AlgebroidElement,
                        z: AlgebroidElement) -> bool:
    """Axiom (d): r(id (x) m) = (m (x) id)(id (x) r)(r (x) id)."""
    lhs = braid_r(TensorElement.of(x, gl_product(y, z)))
    acc: dict[_Pair, CoeffPoly] = {}
    for (p, q), c1 in braid_r(TensorElement.of(x, y)).terms.items():
        inner = braid_r(TensorElement.of(AlgebroidElement.from_forest(q, c1), z))
        for (s, t), c2 in inner.terms.items():
            for u, m in _gl_words(p, s).items():
                _accumulate(acc, (u, t), c2.scale(m))
    return lhs == TensorElement(acc)


def _unit_left(x: AlgebroidElement) -> bool:
    """Axiom (e): r(1 (x) x) = x (x) 1."""
    one = AlgebroidElement.unit()
    return braid_r(TensorElement.of(one, x)) == TensorElement.of(x, one)


def _unit_right(x: AlgebroidElement) -> bool:
    """Axiom (f): r(x (x) 1) = 1 (x) x."""
    one = AlgebroidElement.unit()
    return braid_r(TensorElement.of(x, one)) == TensorElement.of(one, x)


def _counit_lemma(x: AlgebroidElement, y: AlgebroidElement) -> bool:
    """counit(m(r(x (x) y))) = counit(x * iota(counit(y)))."""
    lhs = counit(multiply_tensor(braid_r(TensorElement.of(x, y))))
    rhs = counit(gl_product(x, AlgebroidElement.iota(counit(y))))
    return lhs == rhs


def _bimodule_left(x: AlgebroidElement, y: AlgebroidElement, f: CoeffPoly) -> bool:
    """r((iota(f) * x) (x) y) multiplies the left output slot by iota(f)."""
    iota_f = AlgebroidElement.iota(f)
    lhs = braid_expansion(gl_product(iota_f, x), y)
    rhs = [(gl_product(iota_f, a), b) for a, b in braid_expansion(x, y)]
    return reduce_pairs(lhs) == reduce_pairs(rhs)


def _bimodule_right(x: AlgebroidElement, y: AlgebroidElement, f: CoeffPoly) -> bool:
    """r(x (x) (y * iota(f))) gl-multiplies the right output slot by iota(f)."""
    iota_f = AlgebroidElement.iota(f)
    lhs = braid_expansion(x, gl_product(y, iota_f))
    rhs = [(a, gl_product(b, iota_f)) for a, b in braid_expansion(x, y)]
    return reduce_pairs(lhs) == reduce_pairs(rhs)


def _random_pure_tuple(rng: random.Random, arity: int,
                       budget: int) -> tuple[AlgebroidElement, ...]:
    """Random pure elements whose grade budgets sum to at most budget."""
    out = []
    remaining = budget
    for i in range(arity):
        share = rng.randint(0, remaining) if i < arity - 1 else remaining
        out.append(random_element(rng, share, coeffs=False))
        remaining -= share
    return tuple(out)


def check_braiding(max_grade: int = 3, samples: int = 200,
                   sample_grade: int = 4, seed: int = 0) -> list[CheckReport]:
    """Verify the braiding axioms, the counit consequence and the two
    scalar-slot identities.  Exhaustive over basis tensors of total grade
    <= max_grade, plus random cases of total grade <= sample_grade.  The
    axiom ids are a..f, counit-lemma, bimodule-left and bimodule-right."""
    rng = random.Random(seed)

    def dress(tup):
        return tuple(AlgebroidElement.from_forest(w) for w in tup)

    pairs = [dress(t) for t in basis_tuples(max_grade, 2)]
    pairs += [_random_pure_tuple(rng, 2, sample_grade) for _ in range(samples)]
    triples = [dress(t) for t in basis_tuples(max_grade, 3)]
    triples += [_random_pure_tuple(rng, 3, sample_grade) for _ in range(samples)]
    singles = [dress(t) for t in basis_tuples(max_grade, 1)]
    singles += [_random_pure_tuple(rng, 1, sample_grade) for _ in range(samples)]
    dressed = [
        (random_element(rng, max_grade), random_element(rng, max_grade),
         random_poly(rng))
        for _ in range(samples)
    ]

    return _run_suite("braiding", [
        ("a", pairs, _coproduct_compatible),
        ("b", pairs, _multiplication_preserved),
        ("c", triples, _left_product_rule),
        ("d", triples, _right_product_rule),
        ("e", singles, _unit_left),
        ("f", singles, _unit_right),
        ("counit-lemma", pairs, _counit_lemma),
        ("bimodule-left", dressed, _bimodule_left),
        ("bimodule-right", dressed, _bimodule_right),
    ], max_grade, seed)
