"""``trim_memo``: the engine memo budget of long-lived callers.

Dropping the pair memo must never change an output, must count one
reset, and must leave every cumulative counter — the engine's own
``hits``/``misses``/``batches`` and the process-wide per-backend tallies
— counting upward.
"""

import random

import pytest

from repro.engine import available_backends, backend_stats, engine_for
from repro.trees.generate import random_tree
from repro.workloads.families import random_total_dtop

COUNTERS = ("hits", "misses", "batches")


def forests(machine, seed, count=6, size=12):
    rng = random.Random(seed)
    return [
        [
            random_tree(machine.input_alphabet, max_height=5, rng=rng)
            for _ in range(size)
        ]
        for _ in range(count)
    ]


@pytest.mark.parametrize("backend", available_backends())
def test_outputs_identical_across_resets_and_counters_only_grow(backend):
    machine, _domain = random_total_dtop(num_states=3, seed=11)
    batches = forests(machine, seed=3)
    # Reference: the recursive interpreter (``DTOP.apply``).
    reference = [[str(machine.apply(tree)) for tree in forest] for forest in batches]

    engine = engine_for(machine, backend)
    previous = dict(engine.cache_stats)
    previous_process = backend_stats().get(backend, {})
    resets = 0
    for forest, want in zip(batches * 2, reference * 2):
        got = [str(tree) for tree in engine.run_batch(forest)]
        assert got == want
        before_trim = engine.cache_stats
        process_before_trim = backend_stats()[backend]
        dropped = engine.trim_memo(8)
        resets += dropped
        stats = engine.cache_stats
        # The trim touches the memo and the reset count, nothing else.
        assert {k: stats[k] for k in COUNTERS} == {
            k: before_trim[k] for k in COUNTERS
        }
        assert backend_stats()[backend] == process_before_trim
        assert stats["entries"] == (0 if dropped else before_trim["entries"])
        assert stats["resets"] == resets
        for counter in COUNTERS:
            assert stats[counter] >= previous[counter]
            assert (
                backend_stats()[backend][counter]
                >= previous_process.get(counter, 0)
            )
        previous = dict(stats)
        previous_process = backend_stats()[backend]
    assert resets > 0, "the budget never fired; the test exercised nothing"


@pytest.mark.parametrize("backend", available_backends())
def test_within_budget_keeps_the_memo(backend):
    machine, _domain = random_total_dtop(num_states=3, seed=12)
    engine = engine_for(machine, backend)
    engine.run_batch(forests(machine, seed=4, count=1)[0])
    entries = engine.cache_stats["entries"]
    assert entries > 0
    assert engine.trim_memo(entries) is False
    assert engine.cache_stats["entries"] == entries
    assert engine.cache_stats["resets"] == 0
    assert engine.trim_memo(entries - 1) is True
    assert engine.cache_stats["resets"] == 1
    engine.clear_cache()
    assert engine.cache_stats["resets"] == 0
