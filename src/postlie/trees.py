"""Planar rooted trees and ordered forests.

Everything downstream is built on these: a canonical text encoding, a
deterministic total order, enumeration by grade (vertex count), and the
left-grafting magma product that makes the span of trees a free post-Lie
algebra.  ``left_graft`` and ``graft_into_forest`` are plain uncached
recursions: the algebra grafts through the memoised word kernel of
``algebroid``, and these stay as its independent reference.

Encodings::

    tree   :=  "o"  |  "[" tree* "]"
    forest :=  "1"  |  tree (" " tree)*

"o" is the single vertex; "[t1 t2 ... tk]" (written without spaces) is a
root whose ordered children are t1..tk.  "[]" parses to the single vertex
but always formats back to "o".

Trees and forests are hash-consed: each value has exactly one object,
looked up by its children (or letters) tuple when it is constructed, so
equality and hashing are by identity and cost one pointer.  Copying,
deep-copying and unpickling go through the constructor and return that
object.  The intern tables are never cleared; identity equality depends
on every tree and forest handed out staying the one for its value, so a
routine that frees caches must leave them alone.
"""

from __future__ import annotations

import functools
import itertools
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


# The numeric layer's errors live here too, so that the command line can
# catch them without importing that layer, and numpy with it.
class ConfigurationError(ValueError):
    """A requested mode, recipe or option is unavailable."""


class NumericError(RuntimeError):
    """A numeric operation left its domain of validity."""


class PlanarTree:
    """A planar (ordered) rooted tree, interned; its fields are never assigned.

    ``PlanarTree(children)`` returns the one tree with those children, so
    equal trees are the same object and compare and hash by identity.
    ``size``, ``encoding`` and ``sort_key`` are filled once, when the tree
    is first built.
    """

    __slots__ = ("children", "size", "encoding", "sort_key")

    # children tuple -> the tree.  Never cleared: identity equality holds
    # only while every tree ever handed out stays the one for its value.
    _interned: dict[tuple["PlanarTree", ...], "PlanarTree"] = {}

    def __new__(cls, children: tuple["PlanarTree", ...] = ()) -> "PlanarTree":
        if type(children) is not tuple:
            children = tuple(children)
        tree = cls._interned.get(children)
        if tree is not None:
            return tree
        tree = object.__new__(cls)
        tree.children = children
        tree.size = 1 + sum(c.size for c in children)
        tree.encoding = ("[" + "".join(c.encoding for c in children) + "]"
                         if children else "o")
        tree.sort_key = (tree.size, tree.encoding)
        # setdefault: of two threads building one value, both get the winner.
        return cls._interned.setdefault(children, tree)

    def __reduce__(self):
        return PlanarTree, (self.children,)

    def __lt__(self, other: "PlanarTree") -> bool:
        return self.sort_key < other.sort_key

    def __str__(self) -> str:
        return self.encoding

    def __repr__(self) -> str:
        return f"PlanarTree({self.encoding!r})"


LEAF = PlanarTree()


class Forest:
    """An ordered tuple of planar trees.  The empty forest is the unit word.

    Interned like ``PlanarTree``: one object per letters tuple, identity
    equality and hashing, ``grade``, ``encoding`` and ``sort_key`` filled
    at construction.
    """

    __slots__ = ("trees", "grade", "encoding", "sort_key")

    # letters tuple -> the forest.  Never cleared, as for trees.
    _interned: dict[tuple[PlanarTree, ...], "Forest"] = {}

    def __new__(cls, trees: tuple[PlanarTree, ...] = ()) -> "Forest":
        if type(trees) is not tuple:
            trees = tuple(trees)
        forest = cls._interned.get(trees)
        if forest is not None:
            return forest
        forest = object.__new__(cls)
        forest.trees = trees
        forest.grade = sum(t.size for t in trees)
        forest.encoding = " ".join(t.encoding for t in trees) if trees else "1"
        forest.sort_key = (forest.grade, forest.encoding)
        return cls._interned.setdefault(trees, forest)

    def __reduce__(self):
        return Forest, (self.trees,)

    def __lt__(self, other: "Forest") -> bool:
        return self.sort_key < other.sort_key

    def __len__(self) -> int:
        return len(self.trees)

    def __iter__(self) -> Iterator[PlanarTree]:
        return iter(self.trees)

    def __add__(self, other: "Forest") -> "Forest":
        if not other.trees:
            return self
        if not self.trees:
            return other
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

    Iterative, so nesting depth does not touch the call stack.  A node is
    built as it closes, from children already built, so filling its size
    and encoding does not recurse either.
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


def left_graft(tau: PlanarTree, sigma: PlanarTree) -> dict[PlanarTree, int]:
    """Sum over vertices v of sigma of "attach tau as new leftmost child of v".

    Returns an integer combination of trees; the total multiplicity is the
    vertex count of sigma.
    """
    acc = {PlanarTree((tau,) + sigma.children): 1}
    for i, child in enumerate(sigma.children):
        for grafted, mult in left_graft(tau, child).items():
            t = PlanarTree(sigma.children[:i] + (grafted,) + sigma.children[i + 1:])
            acc[t] = acc.get(t, 0) + mult
    return acc


def graft_into_forest(tau: PlanarTree, word: Forest) -> dict[Forest, int]:
    """Graft tau into each letter of the word in turn (derivation letterwise).

    Empty word maps to the empty sum: grafting into no letters gives 0.
    """
    acc: dict[Forest, int] = {}
    for i, letter in enumerate(word.trees):
        for grafted, mult in left_graft(tau, letter).items():
            f = Forest(word.trees[:i] + (grafted,) + word.trees[i + 1:])
            acc[f] = acc.get(f, 0) + mult
    return acc
