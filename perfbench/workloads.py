"""The three workloads and the metrics each run reports.

Every workload reports every end-to-end metric; what an "operation" is
depends on the workload (see ``README.md``):

* ``interactive`` — one ``transform`` request;
* ``bulk`` — one document of a ``transform_stream`` (latency: one cycle
  of three stream requests, one of each kind);
* ``learn`` — learning one target.

A traced run (``trace=True``) spends the first half of its time exactly
like an untraced run and the second half between two ``metrics``
scrapes.  It sends the same requests as an untraced run; the scrapes
and the replay add no work to them.  The per-layer ledger comes from the
server's histogram and engine-counter deltas over the second half and
from an in-process replay of the documents served in it.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from typing import Callable, Dict, List, Tuple

from repro.server.batcher import DEFAULT_MAX_BATCH
from repro.server.registry import ModelRegistry

from perfbench import inputs, learn, replay
from perfbench.common import Tally, mean, metric, percentile
from perfbench.serving import (
    PhaseDelta,
    ServerProcess,
    boot_times,
    drive_requests,
    drive_streams,
    engine_pairs,
    fresh_models,
)

#: Server boots before and after the measured one in an untraced
#: serving run; ``setup_s`` is the median of all of them.
BOOTS_BEFORE = 5
BOOTS_AFTER = 4
#: Seconds of unmeasured load before measuring (caches fill, lazy set-up).
WARMUP_S = 0.5
#: Fresh registry loads per traced run; the layer figures are medians.
REGISTRY_LOADS = 3
#: Seconds of layer replay a traced bulk run spends at most; the
#: replay stops at the first cycle boundary past it.
REPLAY_BUDGET_S = 6.0
#: The model of the pooled ``bulk`` streams (fresh streams: see
#: ``inputs.FreshStreams``).
STREAM_MODELS = {"json": "rename-json@1", "xml": "xmlflip@1"}

#: Every per-layer metric and its unit, in ledger order.
LAYER_UNITS = {
    "server.request_ms": "ms",
    "server.unattributed_ms": "ms",
    "batcher.queue_wait_ms": "ms",
    "batcher.batch_docs": "docs",
    "batcher.dispatch_ms": "ms",
    "batcher.overloads": "count",
    "term.parse_ms": "ms",
    "xmlio.parse_ms": "ms",
    "jsonio.parse_ms": "ms",
    "xml.encode_ms": "ms",
    "xml.decode_ms": "ms",
    "json.encode_ms": "ms",
    "json.decode_ms": "ms",
    "origins.apply_ms": "ms",
    "origins.share": "share",
    "engine.execute_ms": "ms",
    "engine.pairs": "count",
    "engine.memo_hit_share": "share",
    "render_ms": "ms",
    "pipeline.unattributed_ms": "ms",
    "engine.memo_entries": "count",
    "registry.load_s": "s",
    "registry.warm_s": "s",
    "minimize.canonicalize_ms": "ms",
    "charset.sample_ms": "ms",
    "sample.build_ms": "ms",
    "rpni.validate_ms": "ms",
    "rpni.loop_ms": "ms",
    "rpni.unattributed_ms": "ms",
    "work.ops": "count",
    "work.encoded_nodes": "nodes",
    "work.dag_nodes": "nodes",
    "work.pairs": "pairs",
    "work.dag_nodes_per_s": "1/s",
    "work.pairs_per_s": "1/s",
    "work.sample_pairs": "pairs",
    "work.sample_nodes": "nodes",
    "latency_p90_ms": "ms",
    "latency_p99_ms": "ms",
    "ops_per_s": "1/s",
    "stream.json_docs_per_s": "1/s",
    "stream.xml_docs_per_s": "1/s",
    "stream.fresh_docs_per_s": "1/s",
}


def run(workload: str, seed: int, seconds: float, trace: bool, checkout: str, work_dir: str) -> Dict:
    if workload == "learn":
        tally, metrics = _learn(seed, seconds, trace)
    elif workload == "interactive":
        tally, metrics = _interactive(seed, seconds, trace, checkout, work_dir)
    else:
        tally, metrics = _bulk(seed, seconds, trace, checkout, work_dir)
    if trace:
        # Layers a workload does not exercise did no work: 0, with 0 calls.
        for name, unit in LAYER_UNITS.items():
            metrics.setdefault(name, metric(0.0, unit, 0))
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def _end_to_end(setup: List[float], latencies_s: List[float], tally: Tally, rss_mb: float) -> Dict:
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "latency_p50_ms": metric(percentile(latencies_s, 50) * 1e3, "ms"),
        "ok_share": metric(tally.ok_share, "share"),
        "peak_rss_mb": metric(rss_mb, "MiB"),
    }


def _references(checkout: str, work_dir: str, pairs: List[Tuple[str, str]]) -> List[str]:
    registry = ModelRegistry(fresh_models(checkout, os.path.join(work_dir, "reference")), jobs=1)
    try:
        return [inputs.reference_output(registry, model, document) for model, document in pairs]
    finally:
        registry.close()


def _serve(checkout: str, work_dir: str, seconds: float, trace: bool, drive: Callable) -> Dict:
    """Boot, warm up, and run the load ``drive(client, seconds, first, rss_probe)``.

    Untraced: one phase of ``seconds``; ``setup_s`` is the median of
    every boot, taken before and after the measured server so that the
    median spans the run.  The server's peak RSS is read when the phase
    asks (streams) or at its end (requests).  Traced: an untraced half,
    then a half between two ``metrics`` scrapes.
    """
    session = {"setups": [] if trace else boot_times(checkout, work_dir, BOOTS_BEFORE)}
    server = ServerProcess(checkout, work_dir, "measured")
    try:
        session["setups"].append(server.start())
        with server.client() as client:
            first = drive(client, WARMUP_S, 0).end
            if not trace:
                session["phase"] = phase = drive(client, seconds, first, server.peak_rss_mb)
                session["rss_mb"] = phase.rss_mb or server.peak_rss_mb()
            else:
                session["plain"] = plain = drive(client, seconds / 2, first)
                with server.client() as admin:
                    before = admin.metrics()
                    session["phase"] = drive(client, seconds / 2, plain.end)
                    session["delta"] = PhaseDelta(before, admin.metrics())
    finally:
        server.stop()
    if not trace:
        session["setups"] += boot_times(checkout, work_dir, BOOTS_AFTER)
    return session


def _untraced(session: Dict, tally: Tally) -> Dict:
    phase = session["phase"]
    return _end_to_end(session["setups"], phase.latencies, tally, session["rss_mb"])


def _traced(session: Dict, ledger: replay.Ledger, timings: Tuple[float, float], unattributed_ms: float) -> Dict:
    """The per-layer ledger of a traced serving run."""
    phase, delta = session["phase"], session["delta"]
    metrics = _server_layers(delta)
    request_count, request_sum = delta.histogram("repro_request_seconds")
    metrics["server.request_ms"] = metric(mean(request_sum, request_count) * 1e3, "ms", request_count)
    metrics["server.unattributed_ms"] = metric(unattributed_ms, "ms", phase.ops)
    metrics.update(_replay_layers(ledger, delta, phase.ops / phase.wall))
    metrics["registry.load_s"] = metric(timings[0], "s", REGISTRY_LOADS)
    metrics["registry.warm_s"] = metric(timings[1], "s", REGISTRY_LOADS)
    metrics["work.ops"] = metric(phase.ops, "count")
    metrics.update(_untraced_half(session["plain"].latencies, session["plain"].rates))
    return metrics


def _untraced_half(latencies_s: List[float], rates: List[float]) -> Dict:
    """Tail latencies and throughput of the untraced half of a traced run.

    They are ledger figures, not end-to-end ones: on a shared host they
    count how often the host took the CPU away, and throughput is also
    ``latency_p50_ms`` again wherever every operation has a fixed size
    (see README.md, "Noise").
    """
    return {
        **{
            f"latency_p{p}_ms": metric(percentile(latencies_s, p) * 1e3, "ms", len(latencies_s))
            for p in (90, 99)
        },
        "ops_per_s": metric(statistics.median(rates), "1/s", len(rates)),
    }


# ----------------------------------------------------------------------
# interactive
# ----------------------------------------------------------------------


def _interactive(seed: int, seconds: float, trace: bool, checkout: str, work_dir: str):
    requests = inputs.interactive_requests(random.Random(seed))
    expected = _references(checkout, work_dir, requests)
    tally = Tally()

    def drive(client, phase_seconds, first, rss_probe=None):
        return drive_requests(client, requests, expected, phase_seconds, tally, first)

    session = _serve(checkout, work_dir, seconds, trace, drive)
    if not trace:
        return tally, _untraced(session, tally)
    phase, delta = session["phase"], session["delta"]
    load_s, warm_s, registry = replay.time_registry(checkout, work_dir, REGISTRY_LOADS)
    ledger = replay.Ledger()
    try:
        for position in range(phase.first, phase.end):
            model, document = requests[position % len(requests)]
            replay.replay_batch(registry, model, [document], [expected[position % len(requests)]], ledger)
    finally:
        registry.close()
    request_count, request_sum = delta.histogram("repro_request_seconds")
    unattributed_ms = (statistics.fmean(phase.latencies) - mean(request_sum, request_count)) * 1e3
    return tally, _traced(session, ledger, (load_s, warm_s), unattributed_ms)


# ----------------------------------------------------------------------
# bulk
# ----------------------------------------------------------------------


def _bulk(seed: int, seconds: float, trace: bool, checkout: str, work_dir: str):
    rng = random.Random(seed)
    registry = ModelRegistry(fresh_models(checkout, os.path.join(work_dir, "reference")), jobs=1)
    try:
        pools = {}
        for kind, make in (("json", inputs.json_stream), ("xml", inputs.xml_stream)):
            model = STREAM_MODELS[kind]
            documents = [make(rng) for _ in range(inputs.BULK_STREAMS)]
            expected = [[inputs.reference_output(registry, model, d) for d in stream] for stream in documents]
            pools[kind] = inputs.StreamPool(kind, model, documents, expected)
        pools["fresh"] = inputs.FreshStreams(rng, registry)
        source = inputs.BulkStreams(pools)
        tally = Tally()

        def drive(client, phase_seconds, first, rss_probe=None):
            return drive_streams(client, source, phase_seconds, tally, first, rss_probe)

        session = _serve(checkout, work_dir, seconds, trace, drive)
    finally:
        registry.close()
    if not trace:
        return tally, _untraced(session, tally)
    phase, delta = session["phase"], session["delta"]
    load_s, warm_s, registry = replay.time_registry(checkout, work_dir, REGISTRY_LOADS)
    ledger = replay.Ledger()
    try:
        deadline = time.perf_counter() + REPLAY_BUDGET_S
        for position, (stream, mask, _) in enumerate(phase.streams, 1):
            _replay_stream(registry, stream, mask, ledger)
            if position % len(inputs.BULK_KINDS) == 0 and time.perf_counter() >= deadline:
                break
    finally:
        registry.close()
    # Per document: the request wall time no batch dispatch covers
    # (wire, stream parsing, admission, rendering, responses).
    _, dispatch_sum = delta.histogram("repro_dispatch_seconds")
    unattributed_ms = mean(phase.wall - dispatch_sum, phase.ops) * 1e3
    metrics = _traced(session, ledger, (load_s, warm_s), unattributed_ms)
    metrics.update(_kind_rates(session["plain"]))
    return tally, metrics


def _replay_stream(registry, stream, mask, ledger) -> None:
    """Replay a stream's succeeded documents in batches of ``DEFAULT_MAX_BATCH``."""
    kept = [(document, want) for document, want, ok in zip(stream.documents, stream.expected, mask) if ok]
    for start in range(0, len(kept), DEFAULT_MAX_BATCH):
        chunk = kept[start:start + DEFAULT_MAX_BATCH]
        replay.replay_batch(registry, stream.model, [d for d, _ in chunk], [w for _, w in chunk], ledger)


def _kind_rates(phase) -> Dict:
    """Succeeded documents per second of each stream kind, median over
    the streams of the untraced half: the ``bulk`` throughput split."""
    rates: Dict[str, List[float]] = {kind: [] for kind in inputs.BULK_KINDS}
    for stream, mask, seconds in phase.streams:
        rates[stream.kind].append(sum(mask) / seconds)
    return {
        f"stream.{kind}_docs_per_s": metric(statistics.median(values), "1/s", len(values))
        for kind, values in rates.items()
    }


# ----------------------------------------------------------------------
# Ledger assembly
# ----------------------------------------------------------------------


def _server_layers(delta: PhaseDelta) -> Dict:
    queue_count, queue_sum = delta.histogram("repro_queue_wait_seconds")
    batch_count, batch_docs = delta.histogram("repro_batch_documents")
    dispatch_count, dispatch_sum = delta.histogram("repro_dispatch_seconds")
    hits, misses = delta.engine_pairs()
    return {
        "batcher.queue_wait_ms": metric(mean(queue_sum, queue_count) * 1e3, "ms", queue_count),
        "batcher.batch_docs": metric(mean(batch_docs, batch_count), "docs", batch_count),
        "batcher.dispatch_ms": metric(mean(dispatch_sum, dispatch_count) * 1e3, "ms", dispatch_count),
        "batcher.overloads": metric(delta.counter("repro_overloads_total"), "count"),
        "engine.pairs": metric(mean(misses, batch_count), "count", batch_count),
        "engine.memo_hit_share": metric(mean(hits, hits + misses), "share", hits + misses),
        "engine.memo_entries": metric(engine_pairs(delta.after)[1], "count"),
    }


def _replay_layers(ledger: replay.Ledger, delta: PhaseDelta, docs_per_s: float) -> Dict:
    counts = ledger.counts
    documents = counts["documents"]
    metrics = {}
    for layer in ("term.parse", "xmlio.parse", "jsonio.parse", "xml.encode", "xml.decode", "json.encode", "json.decode"):
        metrics[f"{layer}_ms"] = metric(ledger.mean_ms(layer), "ms", ledger.calls.get(layer, 0))
    origins = ledger.calls.get("origins", 0)
    metrics["origins.apply_ms"] = metric(ledger.mean_ms("origins"), "ms", origins)
    metrics["origins.share"] = metric(mean(origins, documents), "share", documents)
    metrics["engine.execute_ms"] = metric(ledger.mean_ms("execute"), "ms", ledger.calls.get("execute", 0))
    metrics["render_ms"] = metric(ledger.mean_ms("render"), "ms", ledger.calls.get("render", 0))
    dispatch_count, dispatch_sum = delta.histogram("repro_dispatch_seconds")
    replayed_per_batch = mean(replay.dispatch_seconds(ledger), counts["batches"])
    metrics["pipeline.unattributed_ms"] = metric(
        (mean(dispatch_sum, dispatch_count) - replayed_per_batch) * 1e3, "ms", counts["batches"]
    )
    # Served documents of the phase, for the server's pair counts.
    _, served = delta.histogram("repro_batch_documents")
    dag_per_doc = mean(counts["dag_nodes"], documents)
    pairs_per_doc = mean(delta.engine_pairs()[1], served)
    metrics["work.encoded_nodes"] = metric(mean(counts["encoded_nodes"], documents), "nodes", documents)
    metrics["work.dag_nodes"] = metric(dag_per_doc, "nodes", documents)
    metrics["work.pairs"] = metric(pairs_per_doc, "pairs", served)
    metrics["work.dag_nodes_per_s"] = metric(dag_per_doc * docs_per_s, "1/s")
    metrics["work.pairs_per_s"] = metric(pairs_per_doc * docs_per_s, "1/s")
    return metrics


# ----------------------------------------------------------------------
# learn
# ----------------------------------------------------------------------


def _learn(seed: int, seconds: float, trace: bool):
    tally = Tally()
    targets = learn.Targets(seed)
    # Warm-up: one batch, so imports and module set-up are not timed.
    learn.run_phase(targets, 0.0, tally)
    if not trace:
        latencies, _, setups, rss_mb = learn.run_phase(targets, seconds, tally)
        return tally, _end_to_end(setups, latencies, tally, rss_mb)
    plain, plain_rates, _, _ = learn.run_phase(targets, seconds / 2, tally)
    timings = learn.new_timings()
    traced, _, _, _ = learn.run_phase(targets, seconds / 2, tally, timings)
    count = len(timings["rpni"])
    rpni_total = sum(timings["rpni"])
    metrics = {
        "minimize.canonicalize_ms": _mean_ms(timings["canonicalize"]),
        "charset.sample_ms": _mean_ms(timings["charset"]),
        "sample.build_ms": _mean_ms(timings["sample"]),
        "rpni.validate_ms": _mean_ms(timings["validate"]),
        "rpni.loop_ms": _mean_ms(timings["loop"]),
        "rpni.unattributed_ms": metric(
            mean(rpni_total - sum(timings["validate"]) - sum(timings["loop"]), count) * 1e3, "ms", count
        ),
        "work.ops": metric(len(traced), "count"),
        "work.sample_pairs": metric(mean(sum(timings["pairs"]), count), "pairs", count),
        "work.sample_nodes": metric(mean(sum(timings["nodes"]), count), "nodes", count),
        **_untraced_half(plain, plain_rates),
    }
    return tally, metrics


def _mean_ms(values: List[float]) -> Dict:
    return metric(mean(sum(values), len(values)) * 1e3, "ms", len(values))
