"""E12 — hash-consing and persistent memoization on the evaluation hot path.

Not a paper experiment: this benchmark guards the engineering claims of
the interned tree core.  (a) Structurally shared inputs are translated
once — cache misses grow with the number of *distinct* subtrees, not
with tree size; (b) re-running a transducer over overlapping inputs is
served by the persistent ``(state, uid)`` memo and is measurably faster
than cold evaluation; (c) memoized and cold evaluation agree.  It also
reports what one intern-table miss and one hit cost at arity 0, 1 and 2,
without a timing gate: on a shared runner one would be flaky.
"""

import time

from repro.trees.tree import (
    Tree,
    intern_stats,
    leaf,
    reset_intern_stats,
    tree,
)
from repro.transducers.dtop import DTOP
from repro.transducers.rhs import rhs_tree
from repro.trees.alphabet import RankedAlphabet

from benchmarks.conftest import report

ALPHABET = RankedAlphabet({"f": 2, "g": 1, "a": 0, "b": 0})


def _flip() -> DTOP:
    return DTOP(
        ALPHABET,
        ALPHABET,
        rhs_tree(("q", 0)),
        {
            ("q", "f"): rhs_tree(("f", ("q", 2), ("q", 1))),
            ("q", "g"): rhs_tree(("g", ("q", 1))),
            ("q", "a"): rhs_tree("a"),
            ("q", "b"): rhs_tree("b"),
        },
    )


def _full_binary(height: int) -> Tree:
    level = leaf("a")
    for _ in range(height - 1):
        level = tree("f", level, level)
    return level


def _comb(height: int) -> Tree:
    node = leaf("b")
    for _ in range(height - 1):
        node = tree("f", node, leaf("a"))
    return node


def test_e12_shared_subtrees_translated_once(benchmark):
    def run():
        machine = _flip()
        output = machine.apply(_full_binary(18))
        return machine.cache_stats, output.size

    stats, out_size = benchmark.pedantic(run, rounds=1, iterations=1)
    # 2^18 - 1 logical nodes, but only 18 distinct (state, subtree) pairs.
    assert stats["misses"] == 18
    report(
        "E12/sharing",
        "hash-consing: cache misses scale with distinct subtrees",
        f"|s| = {out_size} nodes translated with {stats['misses']} rule "
        f"instantiations ({stats['hits']} cache hits)",
    )


def test_e12_memoized_vs_cold(benchmark):
    inputs = [_comb(h) for h in range(40, 220, 3)]

    def cold():
        results = []
        for s in inputs:
            machine = _flip()  # fresh memo every time
            results.append(machine.apply(s))
        return results

    def warm():
        machine = _flip()
        return [machine.apply(s) for s in inputs]

    start = time.perf_counter()
    cold_results = cold()
    cold_elapsed = time.perf_counter() - start

    warm_results = benchmark.pedantic(warm, rounds=1, iterations=1)
    start = time.perf_counter()
    warm_again = warm()
    warm_elapsed = time.perf_counter() - start

    assert cold_results == warm_results == warm_again
    speedup = cold_elapsed / max(warm_elapsed, 1e-9)
    assert speedup > 1.0, "persistent memo slower than cold evaluation"
    report(
        "E12/memo",
        "persistent (state, uid) memo beats cold evaluation on overlap",
        f"{len(inputs)} overlapping combs: cold {cold_elapsed * 1e3:.1f} ms, "
        f"memoized {warm_elapsed * 1e3:.1f} ms ({speedup:.1f}×)",
    )


def _intern_costs(arity: int, count: int = 20000, repeats: int = 5):
    """Best-of-``repeats`` µs per intern miss and per hit at ``arity``."""
    children = tuple(leaf(f"intern-cost-child-{i}") for i in range(arity))
    best_miss = best_hit = float("inf")
    for repeat in range(repeats):
        labels = [f"intern-cost-{arity}-{repeat}-{i}" for i in range(count)]
        reset_intern_stats()
        start = time.perf_counter()
        built = [Tree(label, children) for label in labels]
        middle = time.perf_counter()
        again = [Tree(label, children) for label in labels]
        end = time.perf_counter()
        stats = intern_stats()
        assert stats["misses"] == count and stats["hits"] == count
        assert all(a is b for a, b in zip(built, again))
        best_miss = min(best_miss, (middle - start) / count * 1e6)
        best_hit = min(best_hit, (end - middle) / count * 1e6)
        del built, again
    return best_miss, best_hit


def test_e12_intern_miss_and_hit_costs():
    costs = {arity: _intern_costs(arity) for arity in (0, 1, 2)}
    report(
        "E12/intern",
        "hash-consing: a hit is cheap, a miss allocates one node",
        ", ".join(
            f"arity {arity}: miss {miss:.2f} µs, hit {hit:.2f} µs"
            for arity, (miss, hit) in costs.items()
        ),
    )
