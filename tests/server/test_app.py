"""End-to-end server tests over localhost: protocol, parity, overload,
hot reload (including mid-stream), and graceful shutdown."""

import json
import socket
import threading
import time

import pytest

from repro import api
from repro.errors import (
    ModelNotFoundError,
    OverloadedError,
    ParseError,
    RemoteError,
    ServiceError,
    UndefinedTransductionError,
)
from repro.server import ServerClient, ServerThread
from repro.workloads.flip import flip_input, flip_transducer
from repro.workloads.xmlflip import transform_xmlflip, xmlflip_document
from repro.xml.xmlio import serialize_xml


@pytest.fixture
def server(models_dir):
    with ServerThread(models_dir) as handle:
        yield handle


@pytest.fixture
def client(server):
    with ServerClient(server.host, server.port) as active:
        yield active


class TestTransform:
    def test_parity_with_api_run_on_the_flip_corpus(self, client):
        machine = flip_transducer()
        for n_as in range(4):
            for n_bs in range(4):
                document = flip_input(n_as, n_bs)
                assert client.transform("flip", str(document)) == str(
                    api.run(machine, document)
                )

    def test_error_type_and_message_match_local_run(self, client):
        machine = flip_transducer()
        bad = "f(a, b)"  # no parse rule reaches this label
        with pytest.raises(UndefinedTransductionError) as local:
            api.run(machine, bad)
        with pytest.raises(UndefinedTransductionError) as remote:
            client.transform("flip", bad)
        assert str(remote.value) == str(local.value)

    def test_xml_model_round_trip(self, client):
        document = xmlflip_document(2, 1)
        out = client.transform("xmlflip", serialize_xml(document))
        assert out == serialize_xml(transform_xmlflip(document))

    def test_bare_model_name_resolves(self, client):
        document = flip_input(1, 1)
        assert client.transform("flip", str(document)) == str(
            api.run(flip_transducer(), document)
        )

    def test_unknown_model(self, client):
        with pytest.raises(ModelNotFoundError) as caught:
            client.transform("nope", "f(a)")
        assert "flip@1" in str(caught.value)

    def test_unparsable_document(self, client):
        with pytest.raises(ParseError):
            client.transform("flip", "root(((")
        with pytest.raises(ParseError):
            client.transform("xmlflip", "<root><unclosed>")

    def test_concurrent_clients_coalesce_and_agree(self, server):
        machine = flip_transducer()
        documents = [flip_input(n % 5, (n + 2) % 5) for n in range(48)]
        results = [None] * len(documents)

        def worker(indexes):
            with ServerClient(server.host, server.port) as active:
                for index in indexes:
                    results[index] = active.transform(
                        "flip", str(documents[index])
                    )

        threads = [
            threading.Thread(target=worker, args=(range(k, 48, 8),))
            for k in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for document, result in zip(documents, results):
            assert result == str(api.run(machine, document))
        stats = ServerClient(server.host, server.port).stats()
        assert stats["batcher"]["documents"] == 48
        # 8 concurrent blocking clients must have queued behind an
        # in-flight dispatch at least once: one multi-document batch.
        assert stats["batcher"]["batches"] < 48


class TestProtocol:
    def test_malformed_json_line(self, server):
        with socket.create_connection((server.host, server.port)) as raw:
            raw.sendall(b"this is not json\n")
            response = json.loads(raw.makefile().readline())
        assert response["ok"] is False
        assert response["error"]["type"] == "bad-request"

    def test_unknown_op_and_missing_fields(self, server):
        with socket.create_connection((server.host, server.port)) as raw:
            handle = raw.makefile("rwb")
            for payload in (
                {"op": "explode", "id": 1},
                {"op": "transform", "id": 2},
                {"op": "transform", "model": "flip", "id": 3},
            ):
                handle.write(json.dumps(payload).encode() + b"\n")
                handle.flush()
                response = json.loads(handle.readline())
                assert response["ok"] is False
                assert response["id"] == payload["id"]
                assert response["error"]["type"] == "bad-request"

    def test_request_ids_echoed(self, server):
        with socket.create_connection((server.host, server.port)) as raw:
            handle = raw.makefile("rwb")
            handle.write(
                json.dumps(
                    {
                        "op": "transform",
                        "model": "flip",
                        "document": "root(#, #)",
                        "id": "my-id-42",
                    }
                ).encode()
                + b"\n"
            )
            handle.flush()
            response = json.loads(handle.readline())
        assert response["id"] == "my-id-42" and response["ok"] is True

    def test_health_models_stats(self, client):
        health = client.health()
        assert health["status"] == "serving"
        assert health["models"] == ["flip@1", "xmlflip@1"]
        models = client.models()
        assert [m["model"] for m in models] == ["flip@1", "xmlflip@1"]
        client.transform("flip", "root(#, #)")
        stats = client.stats()
        assert stats["server"]["connections"] >= 1
        assert stats["batcher"]["requests"] >= 1
        assert stats["registry"]["models"] == 2
        assert {m["model"] for m in stats["models"]} == {
            "flip@1",
            "xmlflip@1",
        }


class TestStream:
    def test_stream_matches_apply_batch(
        self, client, xmlflip_transformation
    ):
        documents = [xmlflip_document(n % 4, (n + 1) % 3) for n in range(25)]
        stream = (
            "<batch>"
            + "".join(serialize_xml(d, indent=None) for d in documents)
            + "</batch>"
        )
        outcomes = client.transform_stream("xmlflip", stream)
        reference = xmlflip_transformation.apply_batch(documents)
        assert [
            o if isinstance(o, str) else (type(o).__name__, str(o))
            for o in outcomes
        ] == [serialize_xml(r) for r in reference]

    def test_stream_on_dtop_model_rejected(self, client):
        with pytest.raises(ServiceError) as caught:
            client.transform_stream("flip", "<batch></batch>")
        assert "raw transducer" in str(caught.value)

    def test_stream_parse_error_reports_and_preserves_connection(
        self, client
    ):
        with pytest.raises(ParseError):
            client.transform_stream("xmlflip", "<batch><root></batch>")
        # The connection survives for the next request.
        assert client.health()["status"] == "serving"

    def test_stream_with_bad_documents_reports_per_document(self, client):
        good = serialize_xml(xmlflip_document(1, 1), indent=None)
        bad = "<root><b/><a/></root>"  # b before a: off-schema
        stream = f"<batch>{good}{bad}{good}</batch>"
        outcomes = client.transform_stream("xmlflip", stream)
        assert isinstance(outcomes[0], str)
        assert isinstance(outcomes[1], Exception)
        assert isinstance(outcomes[2], str)


class TestOverload:
    def test_explicit_overload_response(self, models_dir):
        with ServerThread(models_dir, max_pending=0) as handle:
            with ServerClient(handle.host, handle.port) as active:
                with pytest.raises(OverloadedError) as caught:
                    active.transform("flip", "root(#, #)")
                assert "retry" in str(caught.value)
                # The admin plane is not subject to admission control.
                assert active.health()["status"] == "serving"
                assert active.stats()["batcher"]["overloads"] == 1


class TestHotReload:
    def test_reload_swaps_served_model(
        self, models_dir, client, flip_identity
    ):
        document = flip_input(2, 1)
        flipped = client.transform("flip", str(document))
        assert flipped == str(api.run(flip_transducer(), document))

        time.sleep(0.01)
        api.save(flip_identity, str(models_dir / "flip@1.json"))
        summary = client.reload()
        assert summary["reloaded"] == ["flip@1"]
        assert client.transform("flip", str(document)) == str(document)

    def test_reload_mid_stream_is_byte_identical(
        self, models_dir, server, xmlflip_transformation, flip_identity
    ):
        documents = [
            xmlflip_document(n % 4, (n + 1) % 4) for n in range(300)
        ]
        stream = (
            "<batch>"
            + "".join(serialize_xml(d, indent=None) for d in documents)
            + "</batch>"
        )
        reference = [
            serialize_xml(r)
            for r in xmlflip_transformation.apply_batch(documents)
        ]

        outcomes_box = {}

        def stream_worker():
            with ServerClient(server.host, server.port) as active:
                outcomes_box["outcomes"] = active.transform_stream(
                    "xmlflip", stream
                )

        thread = threading.Thread(target=stream_worker)
        thread.start()
        # Hammer reloads while the stream is in flight: rewrite the
        # *other* model (changed file) and re-stat the streamed one.
        with ServerClient(server.host, server.port) as admin:
            deadline = time.monotonic() + 2.0
            while thread.is_alive() and time.monotonic() < deadline:
                api.save(flip_identity, str(models_dir / "flip@1.json"))
                admin.reload()
        thread.join(timeout=60)
        assert outcomes_box["outcomes"] == reference

    def test_reload_failure_is_isolated_counted_and_logged(
        self, models_dir, flip_identity
    ):
        from repro.server import EventLog

        events = []
        log = EventLog(enabled=True).add_sink(events.append)
        with ServerThread(models_dir, events=log) as handle:
            with ServerClient(handle.host, handle.port) as client:
                document = flip_input(2, 1)
                # Corrupt one model mid-write, change the other validly.
                time.sleep(0.01)
                (models_dir / "xmlflip@1.json").write_text("{garbage")
                api.save(flip_identity, str(models_dir / "flip@1.json"))
                summary = client.reload()
                assert summary["reloaded"] == ["flip@1"]
                assert len(summary["failed"]) == 1
                assert summary["failed"][0].startswith("xmlflip@1: ")
                # The valid change committed; the corrupt model still
                # serves its old version.
                assert client.transform("flip", str(document)) == str(
                    document
                )
                assert client.transform_stream(
                    "xmlflip", "<batch></batch>"
                ) == []
                metrics = handle.server.metrics
                assert metrics.counter_value(
                    "repro_reload_total", {"outcome": "reloaded"}
                ) == 1
                assert metrics.counter_value(
                    "repro_reload_total", {"outcome": "failed"}
                ) == 1
                (reload_event,) = [
                    e for e in events if e["event"] == "registry.reload"
                ]
                assert reload_event["reloaded"] == ["flip@1"]
                assert reload_event["failed"][0].startswith("xmlflip@1: ")


class TestShutdown:
    def test_shutdown_op_stops_the_server(self, models_dir):
        handle = ServerThread(models_dir).start()
        with ServerClient(handle.host, handle.port) as active:
            assert active.health()["status"] == "serving"
            active.shutdown()
        handle._thread.join(timeout=30)
        assert not handle._thread.is_alive()
        with pytest.raises((ServiceError, OSError)):
            ServerClient(handle.host, handle.port).health()
        handle.stop()  # idempotent against an already-stopped thread

    def test_unknown_type_maps_to_remote_error(self):
        from repro.server.client import error_from_payload

        error = error_from_payload({"type": "weird", "message": "boom"})
        assert isinstance(error, RemoteError)
        assert "weird" in str(error) and "boom" in str(error)
        rebuilt = error_from_payload(
            {"type": "UndefinedTransductionError", "message": "m"}
        )
        assert isinstance(rebuilt, UndefinedTransductionError)


class TestPackedFormat:
    def test_packed_response_decodes_to_the_same_tree(self, client):
        document = flip_input(3, 2)
        decoded = client.transform_packed("flip", str(document))
        assert decoded is api.run(flip_transducer(), document)  # interned

    def test_packed_payload_is_dag_sized(self, server):
        # A deep *shared* output costs its distinct subtrees, not its
        # rendered size: both children of flip's root are lists.
        with ServerClient(server.host, server.port) as active:
            payload = active.transform_packed(
                "flip", str(flip_input(5, 5)), decode=False
            )
            rendered = active.transform("flip", str(flip_input(5, 5)))
        assert len(payload["records"]) < len(rendered) / 2

    def test_packed_rejected_for_xml_models(self, client):
        with pytest.raises(ServiceError) as caught:
            client.transform_packed("xmlflip", "<root/>")
        assert "packed" in str(caught.value)

    def test_unknown_format_rejected(self, server):
        with socket.create_connection((server.host, server.port)) as raw:
            handle = raw.makefile("rwb")
            handle.write(
                json.dumps(
                    {
                        "op": "transform",
                        "model": "flip",
                        "document": "root(#, #)",
                        "format": "yaml",
                    }
                ).encode()
                + b"\n"
            )
            handle.flush()
            response = json.loads(handle.readline())
        assert response["ok"] is False
        assert "format" in response["error"]["message"]


class TestLargeAndDeepDocuments:
    @pytest.fixture
    def wide_server(self, tmp_path):
        from repro.trees.alphabet import RankedAlphabet

        from tests.server.conftest import identity_dtop

        alphabet = RankedAlphabet({"w": 30, "g": 1, "x": 0})
        api.save(identity_dtop(alphabet), str(tmp_path / "wide@1.json"))
        with ServerThread(tmp_path) as handle:
            yield handle

    def test_requests_beyond_64k_are_served(self, wide_server):
        # Three levels of rank-30 nodes: ~28k nodes, >100 KiB of text —
        # far past asyncio's default 64 KiB stream limit.
        level0 = "x"
        document = level0
        for _ in range(3):
            document = "w(" + ", ".join([document] * 30) + ")"
        assert len(document) > (1 << 16)
        with ServerClient(wide_server.host, wide_server.port) as active:
            out = active.transform("wide", document)
            assert out == document  # identity machine, round-tripped

    def test_oversized_line_gets_structured_error(self, wide_server):
        from repro.server.app import MAX_LINE_BYTES

        with socket.create_connection(
            (wide_server.host, wide_server.port)
        ) as raw:
            handle = raw.makefile("rwb")
            handle.write(b'{"op": "transform", "document": "')
            blob = b"x" * (1 << 20)
            for _ in range(MAX_LINE_BYTES // len(blob) + 2):
                handle.write(blob)
            handle.write(b'"}\n')
            handle.flush()
            response = json.loads(handle.readline())
        assert response["ok"] is False
        assert "transform_stream" in response["error"]["message"]

    def test_deep_document_maps_to_structured_error(self, wide_server):
        # Term parsing is recursive; a depth-5000 document must come
        # back as a structured error, not a dropped connection.
        from repro.errors import ReproError

        deep = "g(" * 5000 + "x" + ")" * 5000
        with ServerClient(wide_server.host, wide_server.port) as active:
            with pytest.raises(ReproError) as caught:
                active.transform("wide", deep)
            assert "recursion limit" in str(caught.value)
            # The connection survived the failure.
            assert active.health()["status"] == "serving"
