"""The benchmark's own checks: wrong answers are counted, refusals too."""

import os
import random

import pytest

from repro.errors import OverloadedError
from repro.server import ServerClient, ServerThread
from repro.server.registry import ModelRegistry

from perfbench import inputs, learn, replay
from perfbench.common import Tally
from perfbench.serving import drive_requests, drive_streams, fresh_models

CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_wrong_served_output_is_counted(tmp_path):
    models = fresh_models(CHECKOUT, str(tmp_path / "models"))
    requests = [("flip@1", "root(a(#, #), b(#, #))"), ("rename-json@1", '{"user": "ada"}')]
    registry = ModelRegistry(models)
    expected = [inputs.reference_output(registry, model, doc) for model, doc in requests]
    registry.close()
    assert expected == ["root(b(#, #), a(#, #))", '{"username": "ada"}']
    expected[1] = '{"user": "ada"}'  # the answer before the rename: wrong
    tally = Tally()
    with ServerThread(models) as handle, ServerClient(handle.host, handle.port) as client:
        phase = drive_requests(client, requests, expected, 0.0, tally)
        while phase.end < len(requests):
            phase = drive_requests(client, requests, expected, 0.0, tally, phase.end)
    assert (tally.attempted, tally.ok, tally.wrong, tally.failed) == (2, 1, 1, 1)
    assert not tally.correct
    assert "wrong output" in tally.first_problem


def test_refusal_is_a_failure_but_not_incorrect():
    tally = Tally()
    tally.check("x", OverloadedError("server overloaded"))
    tally.check("x", "x")
    assert (tally.attempted, tally.refused, tally.failed, tally.ok_share) == (2, 1, 1, 0.5)
    assert tally.correct


def test_wrong_learned_machine_is_counted():
    targets = learn.Targets(seed=5)
    timings = learn.new_timings()
    _, prepared = learn.prepare_batch(targets, timings)
    canonical, pairs = prepared[learn.SCHEDULE.index(("rotate", 3))]
    _, learned = learn.learn_one(canonical, pairs, timings)
    # One example is not characteristic: the learner answers a
    # constant machine, which the check must count as wrong.
    _, wrong = learn.learn_one(canonical, pairs[:1], timings)
    tally = Tally()
    assert learn.check_learned(tally, learned, canonical)
    assert not learn.check_learned(tally, wrong, canonical)
    assert (tally.attempted, tally.wrong) == (2, 1)
    assert not tally.correct


def test_fresh_streams_are_seeded_and_match_the_interpreter(tmp_path):
    registry = ModelRegistry(fresh_models(CHECKOUT, str(tmp_path / "models")))
    try:
        one = inputs.FreshStreams(random.Random(3), registry)
        two = inputs.FreshStreams(random.Random(3), registry)
        assert one.stream(1) == two.stream(1)
        documents = one.stream(0).documents + one.stream(1).documents
        assert len(set(documents)) == len(documents)
        stream = one.stream(0)
        for document, want in list(zip(stream.documents, stream.expected))[:24]:
            assert inputs.reference_output(registry, inputs.FreshStreams.model, document) == want
    finally:
        registry.close()


def test_bulk_phase_sends_whole_cycles(tmp_path):
    models = fresh_models(CHECKOUT, str(tmp_path / "models"))
    registry = ModelRegistry(models)
    try:
        pools = {}
        for kind, model, documents in (
            ("json", "rename-json@1", ['{"user": "ada"}', '{"debug": true}']),
            ("xml", "xmlflip@1", ["<root><a/><b/><b/></root>"]),
        ):
            expected = [inputs.reference_output(registry, model, d) for d in documents]
            pools[kind] = inputs.StreamPool(kind, model, [documents], [expected])
        pools["fresh"] = inputs.FreshStreams(random.Random(4), registry)
        source = inputs.BulkStreams(pools)
        tally = Tally()
        with ServerThread(models) as handle, ServerClient(handle.host, handle.port) as client:
            phase = drive_streams(client, source, 0.0, tally)
    finally:
        registry.close()
    assert [stream.kind for stream, _, _ in phase.streams] == list(inputs.BULK_KINDS)
    assert (phase.end, len(phase.latencies), len(phase.rates)) == (3, 1, 1)
    assert phase.ops == tally.ok == tally.attempted == 2 + 1 + inputs.FRESH_STREAM_DOCS
    assert phase.latencies[0] == pytest.approx(sum(seconds for _, _, seconds in phase.streams))


def test_replay_splits_a_batch_into_layers(tmp_path):
    registry = ModelRegistry(fresh_models(CHECKOUT, str(tmp_path / "models")))
    try:
        registry.warm()
        documents = ['{"user": "ada"}', '{"debug": true}']
        expected = [inputs.reference_output(registry, "rename-json@1", doc) for doc in documents]
        ledger = replay.Ledger()
        replay.replay_batch(registry, "rename-json@1", documents, expected, ledger)
        calls = dict(ledger.calls)
        assert calls == {
            "jsonio.parse": 2, "json.encode": 2, "execute": 1, "json.decode": 2, "render": 2, "origins": 1,
        }
        with pytest.raises(RuntimeError, match="diverged"):
            replay.replay_batch(registry, "rename-json@1", documents, expected[::-1], ledger)
    finally:
        registry.close()
