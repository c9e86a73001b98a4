"""End-to-end request tracing and the ``profile`` verb over the wire.

The acceptance invariants of the tracing subsystem:

* a traced ``transform`` answers with a span tree whose names cover
  decode → queue → dispatch → execute → encode;
* root-level spans are sequential, so their durations sum to at most
  the root's;
* on a sharded model the execute span carries the *worker-side* trace
  id and pid — proof a worker process really ran the sweep;
* untraced requests carry no ``trace`` key and traced/untraced outputs
  are identical;
* ``--trace-sample-rate`` / ``--slow-ms`` emit ``trace.sample`` /
  ``trace.slow`` events on the event log, and traced requests count in
  ``repro_traces_total``;
* ``profile`` answers non-empty per-rule counts for a stock model.
"""

import pytest

from repro.server import ServerClient, ServerThread
from repro.server.logging import EventLog
from repro.workloads.flip import flip_input

DOCUMENT = str(flip_input(3, 2))


def span_names(span, into=None):
    names = set() if into is None else into
    names.add(span["name"])
    for child in span.get("children", ()):
        span_names(child, names)
    return names


def find_span(span, name):
    if span["name"] == name:
        return span
    for child in span.get("children", ()):
        found = find_span(child, name)
        if found is not None:
            return found
    return None


class TestTracedTransform:
    @pytest.fixture
    def sharded(self, models_dir):
        with ServerThread(models_dir, jobs=2) as handle:
            with ServerClient(handle.host, handle.port) as client:
                yield client

    def test_span_tree_covers_the_request_lifecycle(self, sharded):
        _output, trace = sharded.transform_traced("flip", DOCUMENT)
        assert trace["name"] == "request"
        assert len(trace["trace_id"]) == 16
        names = span_names(trace)
        for required in (
            "decode", "queue", "dispatch", "execute", "encode",
        ):
            assert required in names, f"missing span {required}"

    def test_child_durations_sum_to_at_most_the_root(self, sharded):
        _output, trace = sharded.transform_traced("flip", DOCUMENT)
        child_sum = sum(c["duration_ms"] for c in trace["children"])
        assert child_sum <= trace["duration_ms"] + 1e-6

    def test_execute_span_carries_the_worker_trace_id(self, sharded):
        _output, trace = sharded.transform_traced("flip", DOCUMENT)
        execute = find_span(trace, "execute")
        assert execute is not None
        meta = execute["meta"]
        assert len(meta["worker_trace_id"]) == 16
        assert meta["worker_trace_id"] != trace["trace_id"]
        assert meta["pid"] > 0
        worker_names = span_names(execute)
        assert "worker.execute" in worker_names
        assert "worker.decode_forest" in worker_names
        assert "worker.encode_forest" in worker_names

    def test_traced_and_untraced_outputs_are_identical(self, sharded):
        traced, trace = sharded.transform_traced("flip", DOCUMENT)
        assert trace is not None
        assert sharded.transform("flip", DOCUMENT) == traced

    def test_untraced_responses_carry_no_trace_key(self, sharded):
        response = sharded._request(
            {"op": "transform", "model": "flip", "document": DOCUMENT}
        )
        assert "trace" not in response

    def test_xml_bundle_traces_show_the_pipeline_spans(self, sharded):
        from repro.workloads.xmlflip import xmlflip_document
        from repro.xml.xmlio import serialize_xml

        _output, trace = sharded.transform_traced(
            "xmlflip", serialize_xml(xmlflip_document(2, 1))
        )
        names = span_names(trace)
        assert "pipeline.encode" in names
        assert "pipeline.decode" in names


class TestTraceEventsAndMetrics:
    def test_sampling_emits_trace_sample_events(self, models_dir):
        events = []
        log = EventLog(enabled=True).add_sink(events.append)
        with ServerThread(
            models_dir, events=log, trace_sample_rate=1.0
        ) as handle:
            with ServerClient(handle.host, handle.port) as client:
                client.transform("flip", DOCUMENT)
                counted = client.metrics()["counters"]["repro_traces_total"]
        samples = [e for e in events if e["event"] == "trace.sample"]
        assert len(samples) == 1
        record = samples[0]
        assert record["model"] == "flip@1"
        assert record["outcome"] == "ok"
        assert record["duration_ms"] >= 0.0
        names = span_names(record["spans"])
        assert {"decode", "queue", "dispatch", "execute", "encode"} <= names
        assert "write" in names  # events see the response write too
        assert counted == [{"labels": {"mode": "sampled"}, "value": 1}]

    def test_slow_threshold_emits_trace_slow_events(self, models_dir):
        events = []
        log = EventLog(enabled=True).add_sink(events.append)
        with ServerThread(
            models_dir, events=log, slow_ms=0.0
        ) as handle:
            with ServerClient(handle.host, handle.port) as client:
                client.transform("flip", DOCUMENT)
        slow = [e for e in events if e["event"] == "trace.slow"]
        assert len(slow) == 1
        assert slow[0]["threshold_ms"] == 0.0
        assert slow[0]["duration_ms"] >= 0.0
        assert "queue" in span_names(slow[0]["spans"])

    def test_a_generous_slow_threshold_stays_silent(self, models_dir):
        events = []
        log = EventLog(enabled=True).add_sink(events.append)
        with ServerThread(
            models_dir, events=log, slow_ms=60_000.0
        ) as handle:
            with ServerClient(handle.host, handle.port) as client:
                client.transform("flip", DOCUMENT)
                counted = client.metrics()["counters"]["repro_traces_total"]
        assert not [e for e in events if e["event"].startswith("trace.")]
        # ... but the request was still traced (watch mode) and counted.
        assert counted == [{"labels": {"mode": "watch"}, "value": 1}]

    def test_disabled_tracing_records_nothing(self, models_dir):
        with ServerThread(models_dir) as handle:
            with ServerClient(handle.host, handle.port) as client:
                client.transform("flip", DOCUMENT)
                metrics = client.metrics()
        assert "repro_traces_total" not in metrics["counters"]
        assert "repro_trace_overhead_seconds" not in metrics["histograms"]

    def test_trace_overhead_histogram_records_per_trace(self, models_dir):
        with ServerThread(
            models_dir, trace_sample_rate=1.0
        ) as handle:
            with ServerClient(handle.host, handle.port) as client:
                for _ in range(3):
                    client.transform("flip", DOCUMENT)
                metrics = client.metrics()
        series = metrics["histograms"]["repro_trace_overhead_seconds"]
        assert series[0]["count"] == 3


class TestProfileVerb:
    def test_profile_returns_per_rule_counts_for_a_stock_model(
        self, models_dir
    ):
        with ServerThread(models_dir) as handle:
            with ServerClient(handle.host, handle.port) as client:
                client.transform("flip", DOCUMENT)
                profiles = client.profile()
        snapshot = profiles["flip@1"]
        assert snapshot["sweeps"] >= 1
        assert snapshot["rules_evaluated"] > 0
        assert snapshot["rules"], "expected non-empty per-rule counts"
        top = snapshot["rules"][0]
        assert top["hits"] > 0 and " × " in top["label"]

    def test_profile_narrows_to_one_model(self, models_dir):
        with ServerThread(models_dir) as handle:
            with ServerClient(handle.host, handle.port) as client:
                client.transform("flip", DOCUMENT)
                client.transform("flip", DOCUMENT)
                profiles = client.profile(model="flip")
        assert set(profiles) == {"flip@1"}

    def test_unexercised_models_are_omitted(self, models_dir):
        with ServerThread(models_dir) as handle:
            with ServerClient(handle.host, handle.port) as client:
                profiles = client.profile()
        assert profiles == {}

    def test_unknown_model_raises(self, models_dir):
        from repro.errors import ModelNotFoundError

        with ServerThread(models_dir) as handle:
            with ServerClient(handle.host, handle.port) as client:
                with pytest.raises(ModelNotFoundError):
                    client.profile(model="nope")


class TestMetricsFold:
    def test_snapshot_folds_in_engine_and_backend_counters(self, models_dir):
        with ServerThread(models_dir) as handle:
            with ServerClient(handle.host, handle.port) as client:
                client.transform("flip", DOCUMENT)
                metrics = client.metrics()
        artifacts = metrics["engine_artifacts"]
        assert {"compiles", "payload_hits"} <= set(artifacts)
        backends = metrics["backends"]
        assert any(counters["batches"] > 0 for counters in backends.values())
