"""Tests for the hash-consed (interned) Tree core."""

import copy
import gc
import pickle

import pytest
from hypothesis import given, settings

from repro.errors import TreeError
from repro.trees.alphabet import RankedAlphabet
from repro.trees.tree import (
    Tree,
    intern_stats,
    interned_count,
    leaf,
    parse_term,
    reset_intern_stats,
    tree,
)

from tests.conftest import BINARY_ALPHABET, trees_over


class TestInterning:
    def test_identical_construction_returns_same_object(self):
        kids = (leaf("a"), leaf("b"))
        assert Tree("f", kids) is Tree("f", kids)

    def test_structurally_equal_construction_is_identity(self):
        assert parse_term("f(a, g(b))") is parse_term("f(a, g(b))")

    def test_distinct_trees_are_distinct_objects(self):
        assert parse_term("f(a, b)") is not parse_term("f(b, a)")

    def test_subtrees_are_shared(self):
        outer = parse_term("f(g(a), g(a))")
        assert outer.children[0] is outer.children[1]
        assert outer.children[0] is parse_term("g(a)")

    def test_uid_stable_and_unique(self):
        s = parse_term("f(a, b)")
        t = parse_term("f(a, a)")
        assert s.uid == parse_term("f(a, b)").uid
        assert s.uid != t.uid

    def test_uids_never_reused_after_gc(self):
        victim = Tree("only-here-once", (leaf("x-unique"),))
        old_uid = victim.uid
        del victim
        gc.collect()
        reborn = Tree("only-here-once", (leaf("x-unique"),))
        assert reborn.uid != old_uid

    def test_intern_table_is_weak(self):
        gc.collect()
        before = interned_count()
        keep = Tree("weakness-probe", (leaf("weakness-leaf"),))
        assert interned_count() > before
        del keep
        gc.collect()
        assert interned_count() <= before + 2  # probes may linger briefly

    def test_hit_miss_counters(self):
        reset_intern_stats()
        a = Tree("counter-probe", ())
        first = intern_stats()
        assert first["misses"] >= 1
        b = Tree("counter-probe", ())
        second = intern_stats()
        assert b is a
        assert second["hits"] == first["hits"] + 1

    def test_unhashable_label_rejected(self):
        with pytest.raises(TreeError):
            Tree(["not", "hashable"], ())


class TestEqualityStability:
    def test_hash_equals_for_equal_trees(self):
        assert hash(parse_term("f(a, b)")) == hash(parse_term("f(a, b)"))

    def test_equality_is_o1_identity(self):
        s = parse_term("f(g(a), g(a))")
        t = parse_term("f(g(a), g(a))")
        assert s == t and s is t

    @given(trees_over(BINARY_ALPHABET), trees_over(BINARY_ALPHABET))
    @settings(max_examples=80)
    def test_equality_iff_identity(self, s, t):
        assert (s == t) == (s is t)

    @given(trees_over(BINARY_ALPHABET))
    @settings(max_examples=50)
    def test_hash_stable_across_reconstruction(self, s):
        rebuilt = Tree(s.label, tuple(Tree(c.label, c.children) for c in s.children))
        assert rebuilt is s
        assert hash(rebuilt) == hash(s)


class TestImmutabilityAndCopies:
    def test_mutation_raises(self):
        node = leaf("a")
        with pytest.raises(TreeError):
            node.label = "b"
        with pytest.raises(TreeError):
            node.children = ()

    def test_copy_and_deepcopy_return_self(self):
        node = parse_term("f(a, g(b))")
        assert copy.copy(node) is node
        assert copy.deepcopy(node) is node

    def test_pickle_roundtrip_reinterns(self):
        node = parse_term("f(a, g(b))")
        assert pickle.loads(pickle.dumps(node)) is node

    def test_map_labels_shares_relabeled_subtrees(self):
        node = parse_term("f(g(a), g(a))")
        upper = node.map_labels(str.upper)
        assert upper is parse_term("F(G(A), G(A))")
        assert upper.children[0] is upper.children[1]


class TestSharingEconomics:
    def test_full_binary_tree_allocates_linearly(self):
        """2^n - 1 logical nodes, n distinct objects — the hash-consing win."""
        height = 16
        level = leaf("l")
        distinct = {level.uid}
        for _ in range(height - 1):
            level = tree("f", level, level)
            distinct.add(level.uid)
        assert level.size == 2 ** height - 1
        assert len(distinct) == height


WIDE_ALPHABET = RankedAlphabet({"k": 4, "h": 3, "f": 2, "g": 1, "a": 0, "b": 0})


class _HashAs:
    """Stands in for a child with a given hash, so a recomputation never
    reads the stored ``_hash`` of the tree it checks."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __hash__(self):
        return self.value


def recomputed(node):
    """``(size, height, hash)`` of ``node`` from scratch, recursively."""
    measures = [recomputed(child) for child in node.children]
    size = 1 + sum(m[0] for m in measures)
    height = 1 + max((m[1] for m in measures), default=0)
    digest = hash((node.label, tuple(_HashAs(m[2]) for m in measures)))
    return size, height, digest


class TestConstructorArityPaths:
    """The constructor unrolls arity 0-2; every arity must agree."""

    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_non_tree_child_rejected_at_every_position(self, arity):
        for position in range(arity):
            children = [leaf("a")] * arity
            children[position] = "not-a-tree"
            with pytest.raises(TreeError) as caught:
                Tree("f", tuple(children))
            assert str(caught.value) == "child 'not-a-tree' is not a Tree"

    @pytest.mark.parametrize("arity", [0, 1, 2, 3, 4])
    def test_list_and_generator_children_intern_like_a_tuple(self, arity):
        kids = tuple(leaf(f"kid{i}") for i in range(arity))
        expected = Tree("arity-probe", kids)
        assert Tree("arity-probe", list(kids)) is expected
        assert Tree("arity-probe", (kid for kid in kids)) is expected
        assert type(expected.children) is tuple

    @given(trees_over(WIDE_ALPHABET))
    @settings(max_examples=150)
    def test_size_height_hash_equal_a_recursive_recomputation(self, node):
        for _, subtree in node.subtrees():
            assert (subtree.size, subtree.height, hash(subtree)) == recomputed(
                subtree
            )
