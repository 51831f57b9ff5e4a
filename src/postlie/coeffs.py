"""Coefficient algebra with one free derivation per planar tree.

The coefficients form a free commutative algebra over Q on "aroma"
generators.  A generator is a base symbol together with the ordered
sequence of trees whose derivations have been applied to it, innermost
first; deriving a generator just appends another tree.  Nothing ever
cancels between distinct generators, which is exactly what "free
differential algebra" means here.

Rational scalars are the degenerate case: with no generators in sight
every derivation is identically zero.

Generators are hash-consed on (base, applied, base_degree), like the
trees they carry: constructing or deriving one returns the single object
for that value, with its degree, sort key, hash and integer ``rank``
filled once.  The rank is drawn before the generator is published, and
``AromaGenerator._by_rank`` maps it back.  Neither table is ever cleared,
so a routine that frees caches must leave them alone.

A polynomial holds its monomials as ascending tuples of ranks, so that
hashing, equality and sorting run on ints, and its coefficients as
``int`` numerators ``num`` over one denominator ``den > 0`` in lowest
terms (no zero numerator, ``gcd(den, *num.values()) == 1``).  The form is
canonical, and ``==`` and ``hash`` read it.  ``terms`` is a read-only
view, built once per polynomial on first use: generator tuples in
``sort_key`` order, in the order the arithmetic made the terms, map to an
``int`` when integral and a ``Fraction`` otherwise.  ``sorted_terms`` and
``constant_value`` return ``Fraction``.  A rank belongs to one interned
object, so generators that differ only in ``base_degree`` are equal but
give unequal monomials; no code here builds such a pair.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import attrgetter
from types import MappingProxyType
from typing import Mapping, Union

from .trees import PlanarTree

Scalar = Union[Fraction, int]


class AromaGenerator:
    """A generator ``base^(t1,...,tk)`` of the coefficient algebra.

    ``applied`` lists the trees whose derivations have hit the base
    symbol, innermost first.  ``base_degree`` feeds the grading (default
    0) but is deliberately excluded from equality: identity is the pair
    (base, applied).

    Interned on ``(base, applied, base_degree)``: constructing a generator
    twice returns one object, whose ``degree``, ``sort_key``, ``rank`` and
    hash are filled once.
    """

    __slots__ = ("base", "applied", "base_degree", "degree", "sort_key", "rank",
                 "_hash", "_derived")

    # (base, applied, base_degree) -> the generator, and rank -> the
    # generator.  Never cleared, as for trees and forests.
    _interned: dict[tuple, "AromaGenerator"] = {}
    _by_rank: dict[int, "AromaGenerator"] = {}
    _ranks = itertools.count()

    def __new__(cls, base: str, applied: tuple[PlanarTree, ...] = (),
                base_degree: int = 0) -> "AromaGenerator":
        if type(applied) is not tuple:
            applied = tuple(applied)
        key = (base, applied, base_degree)
        gen = cls._interned.get(key)
        if gen is not None:
            return gen
        gen = object.__new__(cls)
        gen.base = base
        gen.applied = applied
        gen.base_degree = base_degree
        gen.degree = base_degree + sum(t.size for t in applied)
        gen.sort_key = (base, tuple(t.sort_key for t in applied))
        gen._hash = hash((base, applied))
        gen._derived = {}
        # Ranked and tabled before publication: no caller sees it unranked.
        gen.rank = rank = next(cls._ranks)
        cls._by_rank[rank] = gen
        won = cls._interned.setdefault(key, gen)
        if won is not gen:
            del cls._by_rank[rank]
        return won

    def __reduce__(self):
        return AromaGenerator, (self.base, self.applied, self.base_degree)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, AromaGenerator):
            return NotImplemented
        return self.base == other.base and self.applied == other.applied

    def __hash__(self) -> int:
        return self._hash

    def derive(self, tau: PlanarTree) -> "AromaGenerator":
        d = self._derived.get(tau)
        if d is None:
            d = AromaGenerator(self.base, self.applied + (tau,), self.base_degree)
            self._derived[tau] = d
        return d

    def __str__(self) -> str:
        if not self.applied:
            return self.base
        return self.base + "^(" + ",".join(t.encoding for t in self.applied) + ")"

    def __repr__(self) -> str:
        return (f"AromaGenerator(base={self.base!r}, applied={self.applied!r}, "
                f"base_degree={self.base_degree!r})")


#: A monomial is a multiset of generators: the ascending tuple of their ranks.
Monomial = tuple[int, ...]

_BY_RANK = AromaGenerator._by_rank
_SORT_KEY, _DEGREE = attrgetter("sort_key"), attrgetter("degree")


def _generators(m: Monomial) -> tuple[AromaGenerator, ...]:
    """A rank monomial as its generators, in ``sort_key`` order."""
    return tuple(sorted(map(_BY_RANK.__getitem__, m), key=_SORT_KEY))


def _rank_degree(m: Monomial) -> int:
    return sum(map(_DEGREE, map(_BY_RANK.__getitem__, m)))


def _raw(num: dict[Monomial, int], den: int) -> "CoeffPoly":
    """``num`` over ``den``, already in lowest terms; takes the dict."""
    out = object.__new__(CoeffPoly)
    out.num, out.den, out._terms = num, den, None
    return out


def _reduced(num: dict[Monomial, int], den: int) -> "CoeffPoly":
    """Nonzero numerators over ``den > 0``, their gcd divided out once."""
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            den //= g
            num = {m: n // g for m, n in num.items()}
    return _raw(num, den)


class CoeffPoly:
    """Sparse polynomial: monomial -> exact rational, zeros dropped."""

    __slots__ = ("num", "den", "_terms")
    _raw = staticmethod(_raw)

    def __new__(cls, terms: Mapping[tuple[AromaGenerator, ...], Scalar] | None = None):
        acc: dict[Monomial, Fraction] = {}
        for gens, c in (terms or {}).items():
            m = tuple(sorted(g.rank for g in gens))
            acc[m] = acc.get(m, 0) + Fraction(c)
        acc = {m: c for m, c in acc.items() if c}
        # Over the lcm of reduced denominators the form is in lowest terms.
        den = math.lcm(*(c.denominator for c in acc.values()))
        return _raw({m: c.numerator * (den // c.denominator) for m, c in acc.items()}, den)

    # -- constructors

    @staticmethod
    def zero() -> "CoeffPoly":
        return _ZERO

    @staticmethod
    def scalar(c: Scalar) -> "CoeffPoly":
        c = c if type(c) is int else Fraction(c)
        return _raw({(): c.numerator}, c.denominator) if c else _ZERO

    @staticmethod
    def one() -> "CoeffPoly":
        return CoeffPoly.scalar(1)

    @staticmethod
    def generator(gen: AromaGenerator | str, base_degree: int = 0) -> "CoeffPoly":
        if isinstance(gen, str):
            gen = AromaGenerator(gen, (), base_degree)
        return _raw({(gen.rank,): 1}, 1)

    @property
    def terms(self) -> Mapping[tuple[AromaGenerator, ...], Scalar]:
        if self._terms is None:
            den = self.den
            self._terms = MappingProxyType({
                _generators(m): Fraction(n, den) if n % den else n // den
                for m, n in self.num.items()})
        return self._terms

    def __reduce__(self):
        # Ranks are local to a process: a copy travels in generator form.
        return CoeffPoly, (dict(self.terms),)

    # -- predicates

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return not self.num or (len(self.num) == 1 and () in self.num)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial has non-constant terms")
        return Fraction(self.num.get((), 0), self.den)

    def degree(self) -> int:
        """Max monomial degree; zero polynomial reports 0."""
        return max(map(_rank_degree, self.num), default=0)

    def is_homogeneous(self, d: int) -> bool:
        return all(_rank_degree(m) == d for m in self.num)

    # -- ring operations

    def __add__(self, other: "CoeffPoly") -> "CoeffPoly":
        if not isinstance(other, CoeffPoly):
            return NotImplemented
        if not self.num:
            return other
        if not other.num:
            return self
        den = math.lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        acc = dict(self.num) if s == 1 else {m: n * s for m, n in self.num.items()}
        for m, n in other.num.items():
            n = acc.get(m, 0) + n * t
            if n:
                acc[m] = n
            else:
                del acc[m]
        return _reduced(acc, den)

    def __sub__(self, other: "CoeffPoly") -> "CoeffPoly":
        return self + (-other)

    def __neg__(self) -> "CoeffPoly":
        return _raw({m: -n for m, n in self.num.items()}, self.den)

    def __mul__(self, other) -> "CoeffPoly":
        if isinstance(other, CoeffPoly):
            acc: dict[Monomial, int] = {}
            for m1, c1 in self.num.items():
                for m2, c2 in other.num.items():
                    m = tuple(sorted(m1 + m2)) if m1 and m2 else m1 + m2
                    acc[m] = acc.get(m, 0) + c1 * c2
            return _reduced({m: c for m, c in acc.items() if c}, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other) -> "CoeffPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: Scalar) -> "CoeffPoly":
        if c == 1:
            return self
        c = c if type(c) is int else Fraction(c)
        if not c:
            return _ZERO
        p = c.numerator
        return _reduced({m: n * p for m, n in self.num.items()}, self.den * c.denominator)

    def derive(self, tau: PlanarTree) -> "CoeffPoly":
        """Free derivation attached to tau, by the Leibniz rule.

        Each generator in a monomial is hit in turn, in ``sort_key``
        order as in the ``terms`` view; constants vanish.
        """
        acc: dict[Monomial, int] = {}
        for mono, c in self.num.items():
            if len(mono) == 1:
                m = (_BY_RANK[mono[0]].derive(tau).rank,)
                acc[m] = acc.get(m, 0) + c
                continue
            for gen in sorted(map(_BY_RANK.__getitem__, mono), key=_SORT_KEY):
                i = mono.index(gen.rank)
                m = tuple(sorted(mono[:i] + (gen.derive(tau).rank,) + mono[i + 1:]))
                acc[m] = acc.get(m, 0) + c
        return _reduced({m: c for m, c in acc.items() if c}, self.den)

    # -- equality, hashing, display

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoeffPoly):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.den, frozenset(self.num.items())))

    def sorted_terms(self) -> list[tuple[tuple[AromaGenerator, ...], Fraction]]:
        return sorted(
            ((_generators(m), Fraction(n, self.den)) for m, n in self.num.items()),
            key=lambda kv: (sum(g.degree for g in kv[0]), tuple(g.sort_key for g in kv[0])),
        )

    def __str__(self) -> str:
        if not self.num:
            return "0"
        parts = []
        for mono, c in self.sorted_terms():
            name = "*".join(map(str, mono))
            if not mono:
                body = str(c)
            elif c == 1:
                body = name
            elif c == -1:
                body = "-" + name
            else:
                body = f"{c}*{name}"
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self) -> str:
        return f"CoeffPoly({self})"


_ZERO = CoeffPoly()
