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
for that value, with its degree, sort key and hash filled once.  The
intern table is never cleared, so a routine that frees caches must leave
it alone.  Polynomial coefficients are stored as ``int`` while integral
and as ``Fraction`` only when a denominator appears; every result with
denominator 1 goes back to ``int``.  The public accessors
``sorted_terms`` and ``constant_value`` return ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
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
    twice returns one object, whose ``degree``, ``sort_key`` and hash are
    filled once.
    """

    __slots__ = ("base", "applied", "base_degree", "degree", "sort_key", "_hash")

    # (base, applied, base_degree) -> the generator.  Never cleared, as for
    # trees and forests.
    _interned: dict[tuple, "AromaGenerator"] = {}

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
        return cls._interned.setdefault(key, gen)

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
        return AromaGenerator(self.base, self.applied + (tau,), self.base_degree)

    def __str__(self) -> str:
        if not self.applied:
            return self.base
        return self.base + "^(" + ",".join(t.encoding for t in self.applied) + ")"

    def __repr__(self) -> str:
        return (f"AromaGenerator(base={self.base!r}, applied={self.applied!r}, "
                f"base_degree={self.base_degree!r})")


#: A monomial is a multiset of generators, stored as a sorted tuple.
Monomial = tuple[AromaGenerator, ...]

_ONE_MONOMIAL: Monomial = ()


def _sorted_monomial(gens) -> Monomial:
    return tuple(sorted(gens, key=lambda g: g.sort_key))


def monomial_degree(m: Monomial) -> int:
    return sum(g.degree for g in m)


def _format_monomial(m: Monomial) -> str:
    return "*".join(str(g) for g in m)


def _norm(c: Scalar) -> Scalar:
    """An int or Fraction as a stored coefficient: int when integral."""
    if type(c) is int or c.denominator != 1:
        return c
    return c.numerator


def _exact(c) -> Scalar:
    """Any exact scalar ``Fraction`` accepts, as a stored coefficient."""
    return c if type(c) is int else _norm(Fraction(c))


class CoeffPoly:
    """Sparse polynomial: monomial -> exact rational, zeros dropped.

    A stored coefficient is an ``int`` exactly when it is integral and a
    ``Fraction`` otherwise; ``sorted_terms`` and ``constant_value`` hand
    out ``Fraction``.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        clean: dict[Monomial, Scalar] = {}
        if terms:
            for mono, c in terms.items():
                c = _exact(c)
                if c:
                    clean[mono] = c
        self.terms = clean
        self._hash = None

    @classmethod
    def _raw(cls, terms: dict[Monomial, Scalar]) -> "CoeffPoly":
        """Internal: terms already canonical (sorted keys, stored
        coefficients, no zeros).  Takes ownership of the dict."""
        out = object.__new__(cls)
        out.terms = terms
        out._hash = None
        return out

    # -- constructors

    @staticmethod
    def zero() -> "CoeffPoly":
        return CoeffPoly()

    @staticmethod
    def scalar(c: Scalar) -> "CoeffPoly":
        c = _exact(c)
        return CoeffPoly._raw({_ONE_MONOMIAL: c} if c else {})

    @staticmethod
    def one() -> "CoeffPoly":
        return CoeffPoly.scalar(1)

    @staticmethod
    def generator(gen: AromaGenerator | str, base_degree: int = 0) -> "CoeffPoly":
        if isinstance(gen, str):
            gen = AromaGenerator(gen, (), base_degree)
        return CoeffPoly._raw({(gen,): 1})

    # -- predicates

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m == _ONE_MONOMIAL for m in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial has non-constant terms")
        return Fraction(self.terms.get(_ONE_MONOMIAL, 0))

    def degree(self) -> int:
        """Max monomial degree; zero polynomial reports 0."""
        if not self.terms:
            return 0
        return max(monomial_degree(m) for m in self.terms)

    def is_homogeneous(self, d: int) -> bool:
        return all(monomial_degree(m) == d for m in self.terms)

    # -- ring operations

    def __add__(self, other: "CoeffPoly") -> "CoeffPoly":
        if not isinstance(other, CoeffPoly):
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        acc = dict(self.terms)
        for m, c in other.terms.items():
            v = acc.get(m)
            if v is None:
                acc[m] = c
            else:
                v = v + c
                if v:
                    acc[m] = _norm(v)
                else:
                    del acc[m]
        return CoeffPoly._raw(acc)

    def __sub__(self, other: "CoeffPoly") -> "CoeffPoly":
        return self + (-other)

    def __neg__(self) -> "CoeffPoly":
        return CoeffPoly._raw({m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> "CoeffPoly":
        if isinstance(other, CoeffPoly):
            acc: dict[Monomial, Scalar] = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = _sorted_monomial(m1 + m2) if m1 and m2 else m1 + m2
                    v = acc.get(m)
                    acc[m] = c1 * c2 if v is None else v + c1 * c2
            return CoeffPoly._raw({m: _norm(c) for m, c in acc.items() if c})
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
        c = _exact(c)
        if not c:
            return CoeffPoly()
        return CoeffPoly._raw({m: _norm(c * v) for m, v in self.terms.items()})

    def derive(self, tau: PlanarTree) -> "CoeffPoly":
        """Free derivation attached to tau, by the Leibniz rule.

        Each generator in a monomial is hit in turn; constants vanish.
        """
        acc: dict[Monomial, Scalar] = {}
        for mono, c in self.terms.items():
            for i, gen in enumerate(mono):
                m = _sorted_monomial(mono[:i] + (gen.derive(tau),) + mono[i + 1:])
                v = acc.get(m)
                acc[m] = c if v is None else v + c
        return CoeffPoly._raw({m: _norm(c) for m, c in acc.items() if c})

    # -- equality, hashing, display

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoeffPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(
            ((m, Fraction(c)) for m, c in self.terms.items()),
            key=lambda kv: (monomial_degree(kv[0]), tuple(g.sort_key for g in kv[0])),
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, c in self.sorted_terms():
            if mono == _ONE_MONOMIAL:
                body = str(c)
            elif c == 1:
                body = _format_monomial(mono)
            elif c == -1:
                body = "-" + _format_monomial(mono)
            else:
                body = f"{c}*{_format_monomial(mono)}"
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self) -> str:
        return f"CoeffPoly({self})"

