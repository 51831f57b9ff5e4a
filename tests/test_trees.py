"""Planar tree and forest combinatorics."""

from __future__ import annotations

import copy
import pickle
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from postlie.trees import (
    CapacityError,
    EMPTY_FOREST,
    Forest,
    LEAF,
    ParseError,
    PlanarTree,
    enumerate_forests,
    forests_of_grade,
    format_forest,
    format_tree,
    graft_into_forest,
    left_graft,
    parse_forest,
    parse_tree,
    single,
    trees_of_size,
)

trees = st.recursive(
    st.just(LEAF),
    lambda kids: st.lists(kids, min_size=1, max_size=3).map(
        lambda ch: PlanarTree(tuple(ch))
    ),
    max_leaves=6,
)

forests = st.lists(trees, min_size=0, max_size=3).map(lambda ts: Forest(tuple(ts)))


# -- basic structure


def test_leaf():
    assert LEAF.size == 1
    assert LEAF.children == ()
    assert format_tree(LEAF) == "o"


def test_sizes_add_up():
    t = parse_tree("[o[o]o]")
    assert t.size == 5
    assert len(t.children) == 3
    assert t.children[1] == parse_tree("[o]")


def test_forest_grade_and_concat():
    w = parse_forest("[o] o")
    assert w.grade == 3
    assert len(w) == 2
    assert w + single(LEAF) == parse_forest("[o] o o")
    assert EMPTY_FOREST + w == w


def test_planarity_respected():
    # Mirror-image trees are distinct words in the planar setting.
    assert parse_tree("[[o]o]") != parse_tree("[o[o]]")
    assert parse_forest("[o] o") != parse_forest("o [o]")


# -- interning


def test_parsing_twice_gives_one_object():
    for text in ("o", "[o[o]o]", "[[o]o] o [oo]", "1"):
        assert parse_forest(text) is parse_forest(text)
    assert parse_tree("[o[o]]") is parse_tree("[o[o]]")
    assert parse_tree("[]") is LEAF


def test_forest_from_its_letters_is_the_parsed_forest():
    for text in ("o", "[o] o", "[[o]o] o [oo]", "1"):
        w = parse_forest(text)
        assert Forest(tuple(w)) is w
        assert Forest(list(w)) is w
    assert PlanarTree(parse_tree("[o[o]]").children) is parse_tree("[o[o]]")


@pytest.mark.parametrize("text", ["o", "[o[o]o]", "[[o]o] o [oo]", "1"])
def test_copies_are_the_interned_object(text):
    w = parse_forest(text)
    for x in (w, *w.trees):
        assert copy.copy(x) is x
        assert copy.deepcopy(x) is x
        assert pickle.loads(pickle.dumps(x)) is x


def test_concurrent_construction_gives_one_object_per_value():
    # Values no other test builds, so every thread races to intern them.
    def build(i):
        bush = PlanarTree((LEAF,) * (40 + i))
        return Forest((PlanarTree((bush, LEAF, bush)), bush))

    n_threads, n_values = 4, 200
    results = [None] * n_threads
    start = threading.Barrier(n_threads)

    def work(k):
        start.wait()
        results[k] = [build(i) for i in range(n_values)]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for i in range(n_values):
        assert len({id(r[i]) for r in results}) == 1
        assert results[0][i] is build(i)


# -- parsing and formatting


@given(trees)
def test_tree_round_trip(t):
    assert parse_tree(format_tree(t)) == t


@given(forests)
def test_forest_round_trip(w):
    assert parse_forest(format_forest(w)) == w


def test_parse_whitespace():
    assert parse_forest("  [oo]   o ") == parse_forest("[oo] o")
    assert parse_forest(" 1 ") == EMPTY_FOREST


def test_bracketed_leaf_spelling():
    # A root with no children is the single-node tree.
    assert parse_tree("[]") == LEAF


@pytest.mark.parametrize("bad", ["[o", "o]", "x", "[ox]", "o o", ""])
def test_parse_tree_rejects(bad):
    with pytest.raises(ParseError):
        parse_tree(bad)


def test_parse_forest_rejects():
    with pytest.raises(ParseError):
        parse_forest("[o] [")
    with pytest.raises(ParseError):
        parse_forest("")


# -- enumeration


def test_catalan_counts():
    assert [len(trees_of_size(n)) for n in range(1, 6)] == [1, 1, 2, 5, 14]


def test_forest_counts_match_trees():
    # Planar forests with n nodes biject with planar trees with n+1 nodes.
    for n in range(0, 5):
        assert len(forests_of_grade(n)) == len(trees_of_size(n + 1))


def test_enumeration_order():
    got = [format_forest(w) for w in enumerate_forests(2)]
    assert got == ["1", "o", "[o]", "o o"]


def test_enumeration_is_graded():
    grades = [w.grade for w in enumerate_forests(4)]
    assert grades == sorted(grades)
    assert len(enumerate_forests(3)) == 1 + 1 + 2 + 5


def test_enumeration_capacity():
    with pytest.raises(CapacityError):
        enumerate_forests(7)
    assert len(enumerate_forests(7, bound=7)) > len(enumerate_forests(6, bound=7))


# -- grafting


def test_graft_onto_leaf():
    assert left_graft(LEAF, LEAF) == {parse_tree("[o]"): 1}


def test_graft_leftmost_attachment():
    # Attaching at the root prepends the new child on the left.
    got = left_graft(LEAF, parse_tree("[o]"))
    assert got == {parse_tree("[oo]"): 1, parse_tree("[[o]]"): 1}


def test_graft_keeps_subtree_order():
    got = left_graft(LEAF, parse_tree("[o[o]]"))
    assert parse_tree("[oo[o]]") in got
    assert parse_tree("[o[o]o]") not in got


def test_graft_term_count_is_target_size():
    # One summand per node of the target, so the coefficients total its size.
    for a in ("o", "[o]", "[oo]", "[[o]o]"):
        for b in ("o", "[o]", "[o[o]]"):
            got = left_graft(parse_tree(a), parse_tree(b))
            assert sum(got.values()) == parse_tree(b).size


def test_graft_into_forest_leibniz():
    got = graft_into_forest(LEAF, parse_forest("o o"))
    assert got == {parse_forest("[o] o"): 1, parse_forest("o [o]"): 1}


def test_graft_into_empty_forest():
    assert graft_into_forest(LEAF, EMPTY_FOREST) == {}


def test_graft_into_forest_total():
    # Letterwise derivation: total multiplicity is the word grade.
    w = parse_forest("[o] o [oo]")
    assert sum(graft_into_forest(LEAF, w).values()) == w.grade
    for f in graft_into_forest(LEAF, w):
        assert f.grade == w.grade + 1
        assert len(f) == len(w)
