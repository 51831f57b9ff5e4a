"""The forest algebroid: concatenation, grafting action, and both antipodes.

An element is a finite sum  sum_w  c_w . w  where w is an ordered forest
and c_w a coefficient polynomial.  The coefficient algebra sits centrally
inside the non-commutative word algebra, so one coefficient per forest
(and per word pair, for tensors) is a faithful representation.  Elements
and tensors share one base, ``_Combination``, which holds that dict and
owns the linear structure, equality, hashing and the dump.  Every sum of
keyed values goes through ``_accumulate``: its values have ``+`` and
``is_zero()``, and the existing value is the left operand of each ``+``.

The structure maps:

* ``concat_mul``    word concatenation, coefficients multiply.
* ``coproduct``     unshuffle: trees are primitive, words split over
                    ordered letter subsets.
* ``counit``        picks the empty-word coefficient.
* ``antipode_concat``  (-1)^n with the word reversed.
* ``triangle``      the grafting action of the word algebra on itself,
                    extended to coefficients so that single trees act as
                    the free derivations of the coefficient algebra.
* ``gl_product``    the Grossman-Larson style product
                    x * y = concat(x1, triangle(x2, y)).
* ``gl_antipode_word``  the antipode of the gl product on pure words,
                    computed from the concatenation antipode (below).
* ``word_action``   the action of a combination of pure words on a bare
                    coefficient (what a forest does to a scalar function,
                    expressed in free derivations).
* ``theta``         the gl antipode twisted onto coefficient-carrying
                    elements through ``_twisted``, the loop that
                    ``braiding.reduce_pairs`` shares.

On pure words, triangle and the gl product are integer kernels
(``_triangle_words``, ``_gl_words``).  A word acts on a product through
the coproduct,  w > (y z) = sum (w1 > y)(w2 > z),  which is the
post-Hopf axiom.  With every sum over the unshuffle splittings w1 (x) w2
of w, and B+(c) the tree whose root has the children forest c:

    w > 1         =  counit(w)
    w > B+(c)     =  sum  B+(w1 . (w2 > c))
    w > (t . v')  =  sum  (w1 > t) . (w2 > v')     (t a single tree)

Each step shrinks the right operand and every multiplicity is positive,
so nothing cancels.  The gl antipode follows from the concatenation
antipode S(w) = (-1)^len(w) reversed(w):

    S_gl(w)  =  S(w)  -  sum over w1 != 1 of  w1 > S_gl(w2).

The kernels are memoised on pure words only.  Coefficients enter
through the smash-product factorisation

    (f . w) > (g . v)  =  sum  f . (w1 -> g) . (w2 > v)
    (f . w) * (g . v)  =  sum  f . (w1 -> g) . (w2 * v)

over unshuffle splittings of w, where w1 -> g is ``word_action``.  A
non-empty word kills constants, so pure terms take the kernel alone.
``_smash`` is that one loop.  It has three clients: ``triangle``,
``gl_product`` and ``braiding.braid_pair``, whose kernel ``_braid_words``
maps a word pair to word pairs.

Pure elements, whose coefficients are all rational constants, never
leave the integers: ``_smash`` and ``gl_antipode`` scale each pure
operand by the lcm of its denominators, sum the kernel multiplicities as
plain ``int`` per output word, and divide once per word at the end.  The
integer loop of ``_smash`` is ``_smash_ints``, which the series layer
shares.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from fractions import Fraction
from typing import Callable, Collection, Hashable, Iterable, Iterator, Mapping, Union

from .coeffs import CoeffPoly, Scalar
from .trees import (
    EMPTY_FOREST,
    CapacityError,
    Forest,
    MAX_OPERATION_GRADE,
    PlanarTree,
    single,
)

# ---------------------------------------------------------------------------
# Linear combinations


def _accumulate(acc: dict, key: Hashable, value) -> None:
    """acc[key] += value, dropping the key when the sum is zero.

    Values are anything with ``+`` and ``is_zero()``: coefficients, or the
    elements of a series.  The existing value is the left operand, so a
    sum is built in the order its summands arrive.  ``value`` itself must
    be nonzero."""
    g = acc.get(key)
    if g is None:
        acc[key] = value
    else:
        g = g + value
        if g.is_zero():
            del acc[key]
        else:
            acc[key] = g


def _bump(acc: dict[Hashable, Scalar], w: Hashable, m: Scalar) -> None:
    n = acc.get(w, 0) + m
    if n:
        acc[w] = n
    else:
        acc.pop(w, None)


def _outer(a: _Combination, b: _Combination,
           key: Callable[[Hashable, Hashable], Hashable]) -> dict:
    """sum  (f . g) key(w, v)  over the terms f . w of a and g . v of b:
    concatenation with ``key`` the word sum, the tensor product with
    ``key`` the pair."""
    acc: dict = {}
    for w, f in a.terms.items():
        for v, g in b.terms.items():
            _accumulate(acc, key(w, v), f * g)
    return acc


class _Combination:
    """Finite sum of nonzero coefficient polynomials keyed on words or on
    word pairs: the linear structure that elements and tensors share.

    A subclass supplies the order of its keys (``_key_order``), the text
    of a key in ``dump`` (``_key_text``) and the dump of zero (``_EMPTY``).
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[Hashable, CoeffPoly] | None = None):
        self.terms = {k: f for k, f in (terms or {}).items() if not f.is_zero()}
        self._hash = None

    @classmethod
    def _raw(cls, terms: dict[Hashable, CoeffPoly]):
        """Internal: no zero polynomials among the values.  Takes ownership."""
        out = object.__new__(cls)
        out.terms = terms
        out._hash = None
        return out

    @classmethod
    def zero(cls):
        return cls()

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        acc = dict(self.terms)
        for k, f in other.terms.items():
            _accumulate(acc, k, f)
        return self._raw(acc)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._raw({k: -f for k, f in self.terms.items()})

    def scale(self, c: Union[Scalar, CoeffPoly]):
        """Multiply every coefficient by a scalar or coefficient polynomial."""
        if not isinstance(c, CoeffPoly):
            if c == 1:
                return self
            c = CoeffPoly.scalar(c)
        return type(self)({k: c * f for k, f in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def sorted_terms(self) -> list[tuple[Hashable, CoeffPoly]]:
        order = self._key_order
        return sorted(self.terms.items(), key=lambda kv: order(kv[0]))

    def dump(self) -> str:
        """One line per term: ``coeff | key`` in canonical order."""
        if not self.terms:
            return self._EMPTY
        text = self._key_text
        return "\n".join(f"{f} | {text(k)}" for k, f in self.sorted_terms())

    def __str__(self) -> str:
        return self.dump().replace("\n", "; ")

    def __repr__(self) -> str:
        return f"{type(self).__name__}<{self}>"


class AlgebroidElement(_Combination):
    """Finite sum of coefficient-weighted forests."""

    __slots__ = ()
    _EMPTY = "0 | 1"

    @staticmethod
    def _key_order(w: Forest):
        return w.sort_key

    @staticmethod
    def _key_text(w: Forest) -> str:
        return w.encoding

    @staticmethod
    def unit() -> "AlgebroidElement":
        return AlgebroidElement({EMPTY_FOREST: CoeffPoly.one()})

    @staticmethod
    def from_forest(w: Forest, coeff: CoeffPoly | Scalar = 1) -> "AlgebroidElement":
        if not isinstance(coeff, CoeffPoly):
            coeff = CoeffPoly.scalar(coeff)
        return AlgebroidElement({w: coeff})

    @staticmethod
    def iota(f: CoeffPoly) -> "AlgebroidElement":
        """Embed a coefficient as f . (empty word)."""
        return AlgebroidElement({EMPTY_FOREST: f})

    def max_grade(self) -> int:
        """Largest combined grade (word grade + coefficient degree)."""
        if not self.terms:
            return 0
        return max(w.grade + f.degree() for w, f in self.terms.items())

    def is_homogeneous(self, k: int) -> bool:
        return all(
            f.is_homogeneous(k - w.grade) for w, f in self.terms.items()
        )


# ---------------------------------------------------------------------------
# Concatenation Hopf structure


def concat_mul(a: AlgebroidElement, b: AlgebroidElement) -> AlgebroidElement:
    return AlgebroidElement(_outer(a, b, operator.add))


@functools.lru_cache(maxsize=None)
def word_splits(w: Forest) -> tuple[tuple[Forest, Forest, int], ...]:
    """All unshuffle splittings of a word, with multiplicities merged."""
    n = len(w)
    acc: dict[tuple[Forest, Forest], int] = {}
    for mask in range(1 << n):
        left = tuple(t for i, t in enumerate(w.trees) if mask >> i & 1)
        right = tuple(t for i, t in enumerate(w.trees) if not mask >> i & 1)
        key = (Forest(left), Forest(right))
        acc[key] = acc.get(key, 0) + 1
    return tuple((l, r, m) for (l, r), m in sorted(
        acc.items(), key=lambda kv: (kv[0][0].sort_key, kv[0][1].sort_key)))


@functools.lru_cache(maxsize=None)
def word_triples(w: Forest) -> tuple[tuple[Forest, Forest, Forest, int], ...]:
    """All three-way unshuffle splittings (iterated coproduct) of a word."""
    n = len(w)
    acc: dict[tuple[Forest, Forest, Forest], int] = {}
    for colour in range(3 ** n) if n else [0]:
        parts: list[list[PlanarTree]] = [[], [], []]
        c = colour
        for t in w.trees:
            parts[c % 3].append(t)
            c //= 3
        key = (Forest(tuple(parts[0])), Forest(tuple(parts[1])), Forest(tuple(parts[2])))
        acc[key] = acc.get(key, 0) + 1
    return tuple((a, b, c, m) for (a, b, c), m in sorted(
        acc.items(), key=lambda kv: tuple(f.sort_key for f in kv[0])))


def counit(a: AlgebroidElement) -> CoeffPoly:
    return a.terms.get(EMPTY_FOREST, CoeffPoly.zero())


def antipode_concat(a: AlgebroidElement) -> AlgebroidElement:
    acc: dict[Forest, CoeffPoly] = {}
    for w, f in a.terms.items():
        rev = Forest(tuple(reversed(w.trees)))
        _accumulate(acc, rev, f if len(w) % 2 == 0 else -f)
    return AlgebroidElement(acc)


# ---------------------------------------------------------------------------
# Tensors (over the coefficient algebra, which is central: one coefficient
# per word pair)


class TensorElement(_Combination):
    """Finite sum of coefficient-weighted word pairs."""

    __slots__ = ()
    _EMPTY = "0 | 1 | 1"

    @staticmethod
    def _key_order(pair: tuple[Forest, Forest]):
        return pair[0].sort_key, pair[1].sort_key

    @staticmethod
    def _key_text(pair: tuple[Forest, Forest]) -> str:
        return f"{pair[0].encoding} | {pair[1].encoding}"

    @staticmethod
    def of(a: AlgebroidElement, b: AlgebroidElement) -> "TensorElement":
        return TensorElement(_outer(a, b, lambda w, v: (w, v)))


def coproduct(a: AlgebroidElement) -> TensorElement:
    """Unshuffle coproduct; coefficients ride on the left leg (centrally)."""
    acc: dict[tuple[Forest, Forest], CoeffPoly] = {}
    for w, f in a.terms.items():
        for left, right, mult in word_splits(w):
            _accumulate(acc, (left, right), f.scale(mult))
    return TensorElement._raw(acc)


# ---------------------------------------------------------------------------
# Triangle action


def _guard(total: int) -> None:
    if total > MAX_OPERATION_GRADE:
        raise CapacityError(
            f"operation grade {total} exceeds bound {MAX_OPERATION_GRADE}")


@functools.lru_cache(maxsize=None)
def _triangle_words(w: Forest, v: Forest) -> dict[Forest, int]:
    """w > v on pure words, as an integer combination, by the three
    rules of the module docstring: the counit on the empty forest, the
    root rule on a single tree, the coproduct rule on a longer forest.

    The returned dict is cached and shared; callers must not mutate it.
    """
    if not w.trees:
        return {v: 1}
    if not v.trees:
        return {}
    acc: dict[Forest, int] = {}
    if len(v) == 1:
        c = Forest(v.trees[0].children)
        for w1, w2, mult in word_splits(w):
            for u, m in _triangle_words(w2, c).items():
                _bump(acc, single(PlanarTree((w1 + u).trees)), mult * m)
        return acc
    t = single(v.trees[0])
    rest = Forest(v.trees[1:])
    for w1, w2, mult in word_splits(w):
        right = _triangle_words(w2, rest)
        for a, m in _triangle_words(w1, t).items():
            for b, k in right.items():
                _bump(acc, a + b, mult * m * k)
    return acc


def _numerators(a: AlgebroidElement) -> tuple[list[tuple[Forest, int]], int] | None:
    """A pure element as integer numerators over the lcm of its
    denominators, or None when some coefficient is not a constant.  An
    element of integers is returned as it stands, over 1."""
    xs, dens = [], []
    for w, f in a.terms.items():
        c = f.num.get(())
        if c is None or len(f.num) != 1:
            return None
        xs.append((w, c))
        dens.append(f.den)
    d = math.lcm(*dens)
    if d == 1:
        return xs, 1
    return [(w, c * (d // e)) for (w, c), e in zip(xs, dens)], d


def _over(acc: dict[Hashable, int], d: int) -> dict[Hashable, CoeffPoly]:
    """Nonzero integer numerators over the common denominator d > 0, as
    constant coefficients in lowest terms."""
    out: dict[Hashable, CoeffPoly] = {}
    for u, n in acc.items():
        g = math.gcd(n, d)
        out[u] = CoeffPoly._raw({(): n // g}, d // g)
    return out


def _smash_ints(xs: Iterable[tuple[Forest, int]], ys: Collection[tuple[Forest, int]],
                kernel: Callable[[Forest, Forest], dict[Hashable, int]],
                sums: dict[Hashable, int]) -> dict[Hashable, int]:
    """The pure branch of ``_smash``: adds  sum x . y . kernel(w, v)  over
    the integer terms (w, x) of xs and (v, y) of ys into ``sums`` and
    returns it.  Every word pair passes ``_guard``."""
    for w, x in xs:
        for v, y in ys:
            _guard(w.grade + v.grade)
            xy = x * y
            for u, m in kernel(w, v).items():
                _bump(sums, u, xy * m)
    return sums


def _smash(a: AlgebroidElement, b: AlgebroidElement,
           kernel: Callable[[Forest, Forest], dict[Hashable, int]],
           ) -> dict[Hashable, CoeffPoly]:
    """The smash-product loop shared by ``triangle``, ``gl_product`` and
    ``braiding.braid_pair``:

        (f . w) op (g . v)  =  sum  f . (w1 -> g) . kernel(w2, v)

    over unshuffle splittings of w, with ``kernel`` the pure-word form of
    the operation; its keys are words, or word pairs for the braiding.  A
    non-empty word kills constants, so a constant g takes the empty split
    alone: one kernel lookup and no splitting.  When both operands are
    pure, every term is such a pair, and the loop is ``_smash_ints`` on
    the integer numerators of ``_numerators``, dividing once per output
    key by the product of the two common denominators.  Returns the term
    dict, which holds no zero coefficient.
    """
    pa = _numerators(a)
    pb = _numerators(b) if pa is not None else None
    if pb is not None:
        (xs, da), (ys, db) = pa, pb
        return _over(_smash_ints(xs, ys, kernel, {}), da * db)
    acc: dict[Hashable, CoeffPoly] = {}
    for w, f in a.terms.items():
        for v, g in b.terms.items():
            _guard(w.grade + v.grade + g.degree())
            if g.is_constant():
                legs = [(g, w)]
            else:
                act = _Derivatives(g).act
                legs = [(act({w1: mult}), w2) for w1, w2, mult in word_splits(w)]
            for h, w2 in legs:
                if h.is_zero():
                    continue
                p = f * h
                for u, m in kernel(w2, v).items():
                    _accumulate(acc, u, p.scale(m))
    return acc


def triangle(a: AlgebroidElement, b: AlgebroidElement) -> AlgebroidElement:
    """The grafting action a > b.

    Left coefficients factor out; the left word acts on a right term
    g . v through the smash factorisation  w > (g . v) = sum
    (w1 -> g) . (w2 > v).
    """
    return AlgebroidElement._raw(_smash(a, b, _triangle_words))


# ---------------------------------------------------------------------------
# Grossman-Larson product and antipodes


@functools.lru_cache(maxsize=None)
def _gl_words(w: Forest, v: Forest) -> dict[Forest, int]:
    """Pure-word gl product  w * v = sum concat(w1, w2 > v).

    The returned dict is cached and shared; callers must not mutate it.
    """
    acc: dict[Forest, int] = {}
    for w1, w2, mult in word_splits(w):
        for u, m in _triangle_words(w2, v).items():
            _bump(acc, w1 + u, mult * m)
    return acc


def gl_product(a: AlgebroidElement, b: AlgebroidElement) -> AlgebroidElement:
    """x * y = sum over splittings  concat(x1, triangle(x2, y)), computed as
    (f . w) * (g . v) = sum  f . (w1 -> g) . (w2 * v)."""
    return AlgebroidElement._raw(_smash(a, b, _gl_words))


@functools.lru_cache(maxsize=None)
def gl_antipode_word(w: Forest) -> dict[Forest, int]:
    """Antipode of the gl product on a pure word, as an integer combination.

    Since  sum  w1 . (w2 > S_gl(w3))  =  counit(w) . 1,  the map
    w -> sum  w1 > S_gl(w2)  is the concatenation antipode S, whence
    S_gl(w) = S(w) - sum over w1 != 1 of  w1 > S_gl(w2); each w2 there
    has fewer letters than w.  The returned dict is cached and shared;
    callers must not mutate it.
    """
    acc: dict[Forest, int] = {Forest(w.trees[::-1]): -1 if len(w) % 2 else 1}
    for w1, w2, mult in word_splits(w):
        if not w1.trees:
            continue
        for v, k in gl_antipode_word(w2).items():
            for u, m in _triangle_words(w1, v).items():
                _bump(acc, u, -mult * k * m)
    return acc


def gl_antipode(a: AlgebroidElement) -> AlgebroidElement:
    """gl antipode extended linearly over constant coefficients.

    Only correct on pure elements; coefficient-carrying elements go
    through ``theta``.
    """
    pure = _numerators(a)
    if pure is None:
        raise ValueError("gl_antipode is defined on pure elements; use theta")
    xs, d = pure
    sums: dict[Forest, int] = {}
    for w, x in xs:
        _guard(w.grade)
        for v, m in gl_antipode_word(w).items():
            _bump(sums, v, x * m)
    return AlgebroidElement._raw(_over(sums, d))


# ---------------------------------------------------------------------------
# Module action of words on coefficients


@functools.lru_cache(maxsize=None)
def _kmap(w: Forest) -> tuple[tuple[int, tuple[PlanarTree, ...]], ...]:
    """The action of a pure word on coefficients, as an integer
    combination of derivation sequences (applied left to right).

    Recursion:  (v X) -> f  =  v -> (X -> f)  -  (v > X) -> f,
    with v > X the grafting kernel on the single tree v.
    """
    if not w.trees:
        return ((1, ()),)
    v = w.trees[0]
    rest = Forest(w.trees[1:])
    acc: dict[tuple[PlanarTree, ...], int] = {}
    for c, seq in _kmap(rest):
        key = seq + (v,)
        acc[key] = acc.get(key, 0) + c
    for u, m in _triangle_words(single(v), rest).items():
        for c, seq in _kmap(u):
            acc[seq] = acc.get(seq, 0) - m * c
    return tuple(sorted(
        ((c, seq) for seq, c in acc.items() if c),
        key=lambda it: tuple(t.sort_key for t in it[1])))


class _Derivatives:
    """One coefficient and its derivatives along tree sequences.

    Each prefix is derived once per table: the ``_kmap`` sequences of a
    word's sub-words share most of their prefixes.
    """

    __slots__ = ("table",)

    def __init__(self, f: CoeffPoly):
        self.table: dict[tuple[PlanarTree, ...], CoeffPoly] = {(): f}

    def along(self, seq: tuple[PlanarTree, ...]) -> CoeffPoly:
        """f derived along seq, applied left to right."""
        h = self.table.get(seq)
        if h is None:
            h = self.along(seq[:-1])
            if not h.is_zero():
                h = h.derive(seq[-1])
            self.table[seq] = h
        return h

    def act(self, d: Mapping[Forest, Scalar]) -> CoeffPoly:
        """d -> f; a non-empty word kills constants, so only the empty
        word acts on one."""
        constant = self.table[()].is_constant()
        total = CoeffPoly.zero()
        for w, k in d.items():
            if constant and w.trees:
                continue
            for c, seq in _kmap(w):
                h = self.along(seq)
                if not h.is_zero():
                    total = total + h.scale(c * k)
        return total


def word_action(d: Mapping[Forest, Scalar], f: CoeffPoly) -> CoeffPoly:
    """d -> f: the action of a rational combination of pure words on a
    coefficient, through the derivation sequences of ``_kmap``."""
    return _Derivatives(f).act(d)


# ---------------------------------------------------------------------------
# Theta


def _twisted(f: CoeffPoly, w: Forest) -> Iterator[tuple[Forest, CoeffPoly]]:
    """The pairs  (w1, m . (S(w2) -> f))  over the unshuffle splittings
    (w1, w2, m) of w, with S the pure-word gl antipode, zeros skipped:
    how a coefficient f on w moves across the antipode.  ``theta`` and
    ``braiding.reduce_pairs`` both run on it."""
    act = _Derivatives(f).act
    for w1, w2, m in word_splits(w):
        g = act(gl_antipode_word(w2))
        if not g.is_zero():
            yield w1, g.scale(m)


def theta(a: AlgebroidElement) -> AlgebroidElement:
    """The gl antipode twisted to coefficient-carrying elements:

        theta(f . w)  =  sum  (S(w2) -> f) . S(w1)

    over unshuffle splittings of w, with S the pure-word gl antipode (the
    unshuffle coproduct is cocommutative, so the legs may be swapped).
    On pure elements this collapses to the gl antipode itself.
    """
    acc: dict[Forest, CoeffPoly] = {}
    for w, f in a.terms.items():
        _guard(w.grade + f.degree())
        for w1, g in _twisted(f, w):
            for v, m in gl_antipode_word(w1).items():
                _accumulate(acc, v, g.scale(m))
    return AlgebroidElement._raw(acc)


# ---------------------------------------------------------------------------
# Text input


#: A leading coefficient ends at a '*', spaces around it optional, or at
#: whitespace.
_COEFF_END = re.compile(r"\s*\*\s*|\s+")

#: Coefficient spellings: an optional minus, then digits over an optional
#: nonzero denominator, or a plain decimal.  No exponents: ``Fraction``
#: would build all the digits of "1e99999999" before anything could fail.
_COEFF = re.compile(r"-?([0-9]+(/0*[1-9][0-9]*)?|[0-9]*\.[0-9]+|[0-9]+\.)")


def parse_element(text: str) -> AlgebroidElement:
    """Parse ``forest`` or ``coeff forest`` sums separated by '+'.

    Intentionally small: rational coefficient, optional '*', then a
    forest.  Used by the command line front end.
    """
    from .trees import parse_forest

    out = AlgebroidElement.zero()
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError("empty summand")
        coeff = Fraction(1)
        body = chunk
        head = _COEFF_END.split(chunk, 1)
        if _COEFF.fullmatch(head[0]):
            coeff = Fraction(head[0])
            body = head[1] if len(head) > 1 else "1"
        body = body.replace("*", " ").strip()
        out = out + AlgebroidElement.from_forest(parse_forest(body), coeff)
    return out
