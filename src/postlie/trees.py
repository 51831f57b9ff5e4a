"""Planar rooted trees and ordered forests.

Everything downstream is built on these: a canonical text encoding, a
deterministic total order, enumeration by grade (vertex count), and the
left-grafting magma product that makes the span of trees a free post-Lie
algebra.

Encodings::

    tree   :=  "o"  |  "[" tree* "]"
    forest :=  "1"  |  tree (" " tree)*

"o" is the single vertex; "[t1 t2 ... tk]" (written without spaces) is a
root whose ordered children are t1..tk.  "[]" parses to the single vertex
but always formats back to "o".
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator

#: Default ceiling for enumeration by grade.  Grade g contributes
#: Catalan(g) forests, so this keeps full enumerations comfortably small.
DEFAULT_MAX_GRADE = 6

#: Ceiling on the total grade any single triangle/product recursion may
#: touch.  Generous; it exists to fail loudly instead of thrashing.
MAX_OPERATION_GRADE = 64

#: Ceiling on bracket nesting in parsed text.  Each node caches its own
#: encoding, so a chain of depth d holds about d * d characters.
MAX_PARSE_DEPTH = 4096


class ParseError(ValueError):
    """Malformed tree or forest text.  ``offset`` points at the bad byte."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class CapacityError(RuntimeError):
    """A request exceeded a configured grade bound."""


@dataclass(frozen=True, eq=False)
class PlanarTree:
    """A planar (ordered) rooted tree.  Immutable and hashable."""

    children: tuple["PlanarTree", ...] = ()

    @functools.cached_property
    def size(self) -> int:
        """Number of vertices."""
        return 1 + sum(c.size for c in self.children)

    @functools.cached_property
    def encoding(self) -> str:
        if not self.children:
            return "o"
        return "[" + "".join(c.encoding for c in self.children) + "]"

    @functools.cached_property
    def sort_key(self) -> tuple[int, str]:
        return (self.size, self.encoding)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, PlanarTree):
            return NotImplemented
        return self.encoding == other.encoding

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(self.encoding)
            self.__dict__["_hash"] = h
        return h

    def __lt__(self, other: "PlanarTree") -> bool:
        return self.sort_key < other.sort_key

    def __str__(self) -> str:
        return self.encoding

    def __repr__(self) -> str:
        return f"PlanarTree({self.encoding!r})"


LEAF = PlanarTree()


@dataclass(frozen=True, eq=False)
class Forest:
    """An ordered tuple of planar trees.  The empty forest is the unit word."""

    trees: tuple[PlanarTree, ...] = ()

    @functools.cached_property
    def grade(self) -> int:
        """Total vertex count."""
        return sum(t.size for t in self.trees)

    @functools.cached_property
    def encoding(self) -> str:
        if not self.trees:
            return "1"
        return " ".join(t.encoding for t in self.trees)

    @functools.cached_property
    def sort_key(self) -> tuple[int, str]:
        return (self.grade, self.encoding)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Forest):
            return NotImplemented
        return self.encoding == other.encoding

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(self.encoding)
            self.__dict__["_hash"] = h
        return h

    def __lt__(self, other: "Forest") -> bool:
        return self.sort_key < other.sort_key

    def __len__(self) -> int:
        return len(self.trees)

    def __iter__(self) -> Iterator[PlanarTree]:
        return iter(self.trees)

    def __add__(self, other: "Forest") -> "Forest":
        return Forest(self.trees + other.trees)

    def __str__(self) -> str:
        return self.encoding

    def __repr__(self) -> str:
        return f"Forest({self.encoding!r})"


EMPTY_FOREST = Forest()


def single(tree: PlanarTree) -> Forest:
    return Forest((tree,))


# ---------------------------------------------------------------------------
# Parsing


def _parse_tree_at(text: str, i: int) -> tuple[PlanarTree, int]:
    """Parse one tree starting at offset i; return it and the next offset.

    Iterative, so nesting depth does not touch the call stack.  A node's
    size and encoding are computed as it closes, from children that hold
    theirs already, so reading them later does not recurse either.
    """
    open_children: list[list[PlanarTree]] = []
    while True:
        if i >= len(text):
            raise ParseError("unclosed '['" if open_children
                             else "unexpected end of input", i)
        c = text[i]
        i += 1
        if c == "[":
            if len(open_children) == MAX_PARSE_DEPTH:
                raise ParseError(f"nesting deeper than {MAX_PARSE_DEPTH}", i - 1)
            open_children.append([])
            continue
        if c == "o":
            tree = LEAF
        elif c == "]" and open_children:
            tree = PlanarTree(tuple(open_children.pop()))
            tree.size, tree.encoding  # cache both bottom-up
        else:
            raise ParseError(f"expected 'o' or '[', got {c!r}", i - 1)
        if not open_children:
            return tree, i
        open_children[-1].append(tree)


def parse_tree(text: str) -> PlanarTree:
    """Parse a single tree.  Raises ParseError with a byte offset."""
    tree, i = _parse_tree_at(text, 0)
    if i != len(text):
        raise ParseError("trailing input after tree", i)
    return tree


def parse_forest(text: str) -> Forest:
    """Parse a forest: ``"1"`` or whitespace-separated trees."""
    stripped = text.strip()
    if stripped == "1":
        return EMPTY_FOREST
    if not stripped:
        raise ParseError("empty input", 0)
    return Forest(tuple(parse_tree(tok) for tok in stripped.split()))


def format_tree(tree: PlanarTree) -> str:
    return tree.encoding


def format_forest(forest: Forest) -> str:
    return forest.encoding


# ---------------------------------------------------------------------------
# Enumeration


def _compositions(total: int) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of positive integers summing to ``total`` (>= 1)."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


@functools.lru_cache(maxsize=None)
def trees_of_size(n: int) -> tuple[PlanarTree, ...]:
    """All planar trees with n vertices, in canonical order."""
    if n < 1:
        return ()
    if n == 1:
        return (LEAF,)
    out = []
    for comp in _compositions(n - 1):
        for choice in itertools.product(*(trees_of_size(k) for k in comp)):
            out.append(PlanarTree(choice))
    return tuple(sorted(out))


@functools.lru_cache(maxsize=None)
def forests_of_grade(g: int) -> tuple[Forest, ...]:
    """All forests of grade g, in canonical order."""
    if g < 0:
        return ()
    if g == 0:
        return (EMPTY_FOREST,)
    out = []
    for comp in _compositions(g):
        for choice in itertools.product(*(trees_of_size(k) for k in comp)):
            out.append(Forest(choice))
    return tuple(sorted(out))


def enumerate_forests(max_grade: int, bound: int = DEFAULT_MAX_GRADE) -> list[Forest]:
    """Every forest of grade <= max_grade, graded then canonical within grade."""
    if max_grade > bound:
        raise CapacityError(f"max_grade {max_grade} exceeds bound {bound}")
    out: list[Forest] = []
    for g in range(max_grade + 1):
        out.extend(forests_of_grade(g))
    return out


# ---------------------------------------------------------------------------
# Left grafting


@functools.lru_cache(maxsize=None)
def _left_graft(tau: PlanarTree, sigma: PlanarTree) -> tuple[tuple[PlanarTree, int], ...]:
    acc: dict[PlanarTree, int] = {}
    rooted = PlanarTree((tau,) + sigma.children)
    acc[rooted] = acc.get(rooted, 0) + 1
    for i, child in enumerate(sigma.children):
        for grafted, mult in _left_graft(tau, child):
            t = PlanarTree(sigma.children[:i] + (grafted,) + sigma.children[i + 1:])
            acc[t] = acc.get(t, 0) + mult
    return tuple(sorted(acc.items(), key=lambda kv: kv[0].sort_key))


def left_graft(tau: PlanarTree, sigma: PlanarTree) -> dict[PlanarTree, int]:
    """Sum over vertices v of sigma of "attach tau as new leftmost child of v".

    Returns an integer combination of trees; the total multiplicity is the
    vertex count of sigma.
    """
    return dict(_left_graft(tau, sigma))


@functools.lru_cache(maxsize=None)
def _graft_into_forest(tau: PlanarTree, word: Forest) -> tuple[tuple[Forest, int], ...]:
    acc: dict[Forest, int] = {}
    for i, letter in enumerate(word.trees):
        for grafted, mult in _left_graft(tau, letter):
            f = Forest(word.trees[:i] + (grafted,) + word.trees[i + 1:])
            acc[f] = acc.get(f, 0) + mult
    return tuple(sorted(acc.items(), key=lambda kv: kv[0].sort_key))


def graft_into_forest(tau: PlanarTree, word: Forest) -> dict[Forest, int]:
    """Graft tau into each letter of the word in turn (derivation letterwise).

    Empty word maps to the empty sum: grafting into no letters gives 0.
    """
    return dict(_graft_into_forest(tau, word))
