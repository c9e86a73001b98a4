"""The ``learn`` workload: cold ``rpni_dtop`` runs, in process, no server.

Each target is one of the repository's transducer families, built with
symbol names no earlier target in the process used.  Learning memoizes
on interned trees and machines, and a warm repeat runs several times
faster than a cold one, so a target must never repeat within a process.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Dict, List, Tuple

from repro import api
from repro.automata.dtta import DTTA
from repro.errors import ReproError
from repro.learning.charset import characteristic_sample
from repro.learning.rpni import rpni_dtop
from repro.learning.sample import Sample
from repro.transducers.dtop import DTOP
from repro.transducers.minimize import canonicalize
from repro.transducers.rhs import Call
from repro.trees.alphabet import RankedAlphabet
from repro.workloads.families import cycle_relabel, rotate_lists, random_total_dtop

from perfbench.common import Tally, dag_nodes, peak_rss_mb

#: One batch of targets: ``(family, size)``.  Sizes step through each
#: family so that learn times form a continuum and the median does not
#: sit in a gap between two sizes.  The seed picks only the
#: ``random_total_dtop`` seeds and the symbol names, never the sizes.
SCHEDULE = (
    tuple(("cycle", n) for n in range(3, 17))
    + tuple(("rotate", k) for k in range(2, 7))
    + tuple(("random", states) for states in (2, 3, 4, 5) for _ in range(2))
)

#: Batches learned before ``peak_rss_mb`` is read.
RSS_BATCHES = 8


def _relabeled(dtop: DTOP, domain: DTTA, suffix: str) -> Tuple[DTOP, DTTA]:
    """The same target over symbol names ending in ``suffix``."""

    def rename(label):
        return label if isinstance(label, Call) else f"{label}{suffix}"

    def alphabet(ranked: RankedAlphabet) -> RankedAlphabet:
        return RankedAlphabet({rename(symbol): rank for symbol, rank in ranked.items()})

    rules = {
        (state, rename(symbol)): rhs.map_labels(rename)
        for (state, symbol), rhs in dtop.rules.items()
    }
    machine = DTOP(
        alphabet(dtop.input_alphabet),
        alphabet(dtop.output_alphabet),
        dtop.axiom.map_labels(rename),
        rules,
    )
    transitions = {
        (state, rename(symbol)): children
        for (state, symbol), children in domain.transitions.items()
    }
    return machine, DTTA(alphabet(domain.alphabet), domain.initial, transitions)


class Targets:
    """Builds batches of fresh targets from one seed."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.built = 0

    def target(self, family: str, size: int) -> Tuple[DTOP, DTTA]:
        self.built += 1
        suffix = f"_{self.built}x{self.rng.randrange(1 << 20)}"
        if family == "cycle":
            dtop, domain = cycle_relabel(size)
        elif family == "rotate":
            dtop, domain = rotate_lists(size)
        else:
            dtop, domain = random_total_dtop(size, self.rng.randrange(1 << 30))
        return _relabeled(dtop, domain, suffix)


def prepare_batch(targets: Targets, timings: Dict[str, List[float]]):
    """Targets, canonical forms and characteristic-sample pairs.

    Returns ``(seconds, [(canonical, pairs)])``; ``timings`` collects the
    canonicalize and characteristic-sample seconds per target.
    """
    clock = time.perf_counter
    started = clock()
    prepared = []
    for family, size in SCHEDULE:
        dtop, domain = targets.target(family, size)
        before_canonical = clock()
        canonical = canonicalize(dtop, domain)
        before_sample = clock()
        pairs = list(characteristic_sample(canonical))
        done = clock()
        timings["canonicalize"].append(before_sample - before_canonical)
        timings["charset"].append(done - before_sample)
        prepared.append((canonical, pairs))
    return clock() - started, prepared


def learn_one(canonical, pairs, timings: Dict[str, List[float]]):
    """``Sample(pairs)`` plus ``rpni_dtop``; returns (seconds, learned).

    The cyclic garbage collector is paused while the clock runs.  A full
    collection here takes about 100 ms against a few ms per learn,
    scales with everything the process holds, and is triggered by
    whichever code allocated last; left on, it would decide the mean
    learn time by chance.  It runs between learns instead.
    """
    clock = time.perf_counter
    gc.disable()
    try:
        started = clock()
        sample = Sample(pairs)
        built = clock()
        learned = rpni_dtop(sample, canonical.domain)
        finished = clock()
    finally:
        gc.enable()
    timings["sample"].append(built - started)
    timings["rpni"].append(finished - built)
    timings["validate"].append(learned.stats["validate_s"])
    timings["loop"].append(learned.stats["loop_s"])
    timings["pairs"].append(len(sample))
    timings["nodes"].append(dag_nodes(tree for pair in pairs for tree in pair))
    return finished - started, learned


def check_learned(tally: Tally, learned, canonical) -> bool:
    """Count one learned machine: is it equivalent to its target?"""
    try:
        same = api.equivalent(learned.dtop, canonical.dtop, canonical.domain)
    except ReproError as error:
        return tally.check(True, error)
    return tally.check(True, same)


def new_timings() -> Dict[str, List[float]]:
    keys = ("canonicalize", "charset", "sample", "rpni", "validate", "loop", "pairs", "nodes")
    return {key: [] for key in keys}


def run_phase(targets: Targets, seconds: float, tally: Tally, timings=None):
    """Learn fresh batches for ``seconds``.

    Returns ``(learn seconds per target, targets per second of learning
    per batch, set-up seconds per batch, peak RSS in MiB after
    RSS_BATCHES batches)``.  The learner's memos grow
    with every target, so the peak is read after a fixed amount of work,
    not at a time that depends on speed.  Every learned machine is
    checked against its canonical target with ``api.equivalent``
    (outside the timed region).
    """
    timings = timings if timings is not None else new_timings()
    latencies: List[float] = []
    rates: List[float] = []
    setups: List[float] = []
    rss_mb = None
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        if len(setups) == RSS_BATCHES:
            rss_mb = peak_rss_mb()
        setup_s, prepared = prepare_batch(targets, timings)
        setups.append(setup_s)
        batch_started = len(latencies)
        for canonical, pairs in prepared:
            try:
                elapsed, learned = learn_one(canonical, pairs, timings)
            except ReproError as error:  # a failed learn is an outcome
                tally.check(True, error)
                continue
            if check_learned(tally, learned, canonical):
                latencies.append(elapsed)
        batch = latencies[batch_started:]
        if batch:
            rates.append(len(batch) / sum(batch))
    return latencies, rates, setups, rss_mb if rss_mb is not None else peak_rss_mb()

