"""The traced run's layer ledger, timed from outside the program.

The server keeps no per-layer timers, so the traced run replays the
documents it served, in the same batch sizes, through the same public
calls in this process: ``parse_document``, then ``run_batch`` (what a
batch dispatch runs) with a :class:`~repro.obs.trace.TraceContext`,
whose ``pipeline.encode``, ``execute`` and ``pipeline.decode`` spans give
those layers, then ``render_output``.  The origin-tracking interpreter
runs inside ``pipeline.decode``; it is timed once more on its own to
break that span down.  The spans are subtracted from the server's own
dispatch histogram to give ``pipeline.unattributed_ms``; nothing is
hidden in a layer.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict
from typing import Dict, Sequence, Tuple

from repro.obs.trace import TraceContext
from repro.server.registry import KIND_DTOP, KIND_JSON, KIND_XML, ModelRegistry
from repro.transducers.origins import apply_with_origins

from perfbench.common import dag_nodes
from perfbench.serving import fresh_models

#: Span names of ``run_batch`` and the ledger layer each one times.
SPAN_LAYERS = {"pipeline.encode": "encode", "execute": "execute", "pipeline.decode": "decode"}
#: Per model kind: the codec prefix of the span layers, and the parse layer.
PARSE_LAYERS = {
    KIND_DTOP: ("term", "term.parse"),
    KIND_JSON: ("json", "jsonio.parse"),
    KIND_XML: ("xml", "xmlio.parse"),
}


class Ledger:
    """Seconds and calls per layer, plus work counts."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)

    def add(self, layer: str, seconds: float, calls: int = 1) -> None:
        self.seconds[layer] += seconds
        self.calls[layer] += calls

    def mean_ms(self, layer: str) -> float:
        calls = self.calls.get(layer, 0)
        return self.seconds.get(layer, 0.0) * 1e3 / calls if calls else 0.0


def time_registry(checkout: str, work_dir: str, loads: int) -> Tuple[float, float, ModelRegistry]:
    """Median ``ModelRegistry(dir)`` and ``registry.warm()`` seconds.

    Each load reads a fresh sidecar-free copy of ``models/``; the last
    registry stays open for the replay and is returned.
    """
    load_times, warm_times = [], []
    registry = None
    for index in range(loads):
        if registry is not None:
            registry.close()
        directory = fresh_models(checkout, os.path.join(work_dir, f"replay-{index}"))
        started = time.perf_counter()
        registry = ModelRegistry(directory, jobs=1)
        loaded = time.perf_counter()
        registry.warm()
        warmed = time.perf_counter()
        load_times.append(loaded - started)
        warm_times.append(warmed - loaded)
    return statistics.median(load_times), statistics.median(warm_times), registry


def replay_batch(
    registry: ModelRegistry,
    model: str,
    documents: Sequence[str],
    expected: Sequence[str],
    ledger: Ledger,
) -> None:
    """Replay one batch through the layers of ``registry``'s model.

    The outputs must equal ``expected``.
    """
    entry = registry.get(model)
    clock = time.perf_counter
    started = clock()
    parsed = [entry.parse_document(document) for document in documents]
    parsed_at = clock()
    trace = TraceContext()
    outcomes = entry.run_batch(parsed, trace=trace)
    ran_at = clock()
    rendered = [
        outcome if isinstance(outcome, Exception) else entry.render_output(outcome)
        for outcome in outcomes
    ]
    finished = clock()
    for got, want in zip(rendered, expected):
        if got != want:
            raise RuntimeError(f"replay of {model} diverged from the reference: {got!r} != {want!r}")
    codec, parse_layer = PARSE_LAYERS[entry.kind]
    ledger.add(parse_layer, parsed_at - started, len(documents))
    for span in trace.root.children:
        layer = SPAN_LAYERS[span.name]
        if layer != "execute":
            ledger.add(f"{codec}.{layer}", span.duration_s, len(documents))
        elif span.meta["documents"]:  # no engine runs when every document carries values
            ledger.add(layer, span.duration_s)
    ledger.add("render", finished - ran_at, len(documents))
    if entry.kind == KIND_DTOP:
        trees = parsed
    else:
        transformation = entry.transformation
        encoder = transformation.encoder if entry.kind == KIND_JSON else transformation.input_encoder
        encoded = [encoder.encode_with_values(document) for document in parsed]
        trees = [tree for tree, _values in encoded]
        for tree, values in encoded:
            if values:
                before = clock()
                apply_with_origins(transformation.transducer, tree)
                ledger.add("origins", clock() - before)
    ledger.counts["documents"] += len(documents)
    ledger.counts["encoded_nodes"] += sum(tree.size for tree in trees)
    ledger.counts["dag_nodes"] += dag_nodes(trees)
    ledger.counts["batches"] += 1


def dispatch_seconds(ledger: Ledger) -> float:
    """Replayed seconds of the ``run_batch`` spans a batch dispatch covers."""
    return sum(
        ledger.seconds.get(layer, 0.0)
        for layer in ("xml.encode", "json.encode", "execute", "xml.decode", "json.decode")
    )
