"""The served engine memo stays within its per-model budget.

Memo keys carry never-reused tree uids, so a server translating distinct
documents would grow its memo forever.  Each model entry drops the memo
after a batch that takes it past ``MEMO_BUDGET`` and reports it as
capacity: a ``memo`` block per model in ``stats``, the
``repro_engine_memo_entries`` gauge and the
``repro_engine_memo_resets_total`` counter.
"""

import json
import random
import shutil
from pathlib import Path

from repro.json.jsonio import parse_json, serialize_json
from repro.json.pipeline import json_transformation_from_bundle
from repro.server import ServerClient, ServerThread
from repro.server.registry import MEMO_BUDGET
from repro.workloads.jsonwl import CONFIG_KEYS
from repro.workloads.flip import flip_input

MODELS_DIR = Path(__file__).resolve().parents[2] / "models"
MODEL = "rename-json@1"
DOCUMENTS = 5000
STREAM_DOCS = 500
#: ``rename-json`` maps ``username``/``password`` onto ``user``/``pwd``;
#: a document holding both spellings of one key is out of its domain.
KEYS = tuple(key for key in CONFIG_KEYS if key not in ("username", "password"))


def config(rng, depth):
    """A scalar-free config value: objects and arrays over true/false/null."""
    if depth < 3 and rng.random() < 0.6:
        if rng.random() < 0.75:
            keys = sorted(rng.sample(KEYS, rng.randint(2, 5)))
            return {key: config(rng, depth + 1) for key in keys}
        return [config(rng, depth + 1) for _ in range(rng.randint(1, 4))]
    return rng.choice([True, False, None])


def distinct_configs(count, seed=7):
    """``count`` distinct small configs (two levels), in a fixed order."""
    rng = random.Random(seed)
    seen = {}
    while len(seen) < count:
        keys = sorted(rng.sample(KEYS, rng.randint(2, 5)))
        text = serialize_json({key: config(rng, 2) for key in keys})
        seen.setdefault(text, None)
    return list(seen)


def series(snapshot, kind, name, model):
    for sample in snapshot[kind].get(name, ()):
        if sample["labels"] == {"model": model}:
            return sample["value"]
    return None


def model_memo(stats, model):
    (row,) = [row for row in stats["models"] if row["model"] == model]
    return row["memo"]


def test_memo_stays_within_budget_under_distinct_documents(tmp_path):
    shutil.copy(MODELS_DIR / f"{MODEL}.json", tmp_path / f"{MODEL}.json")
    transformation = json_transformation_from_bundle(
        json.loads((MODELS_DIR / f"{MODEL}.json").read_text())
    )
    documents = distinct_configs(DOCUMENTS)
    with ServerThread(tmp_path) as handle, ServerClient(
        handle.host, handle.port
    ) as client:
        for start in range(0, DOCUMENTS, STREAM_DOCS):
            chunk = documents[start:start + STREAM_DOCS]
            body = "\n".join(chunk) + "\n"
            outputs = client.transform_stream(MODEL, body)
            # The interpreter (origin-tracking ``apply``) is the oracle.
            assert outputs == [
                serialize_json(transformation.apply(parse_json(document)))
                for document in chunk
            ]
            memo = model_memo(client.stats(), MODEL)
            assert memo["budget"] == MEMO_BUDGET
            assert memo["used"] <= memo["budget"]
            assert memo["available"] == memo["budget"] - memo["used"]
            metrics = client.metrics()
            gauge = series(metrics, "gauges", "repro_engine_memo_entries", MODEL)
            assert gauge is not None and gauge <= MEMO_BUDGET
        resets = series(
            client.metrics(), "counters", "repro_engine_memo_resets_total", MODEL
        )
        assert resets == model_memo(client.stats(), MODEL)["resets"]
    assert resets > 0, "the budget never fired; the soak exercised nothing"


def test_memo_block_reports_capacity_before_and_after_traffic(models_dir):
    with ServerThread(models_dir) as handle, ServerClient(
        handle.host, handle.port
    ) as client:
        idle = model_memo(client.stats(), "flip@1")
        assert idle == {
            "budget": MEMO_BUDGET,
            "used": 0,
            "available": MEMO_BUDGET,
            "resets": 0,
        }
        client.transform("flip", str(flip_input(2, 1)))
        served = model_memo(client.stats(), "flip@1")
        assert 0 < served["used"] <= MEMO_BUDGET
        assert served["available"] == MEMO_BUDGET - served["used"]
        text = client.metrics_text()
        assert 'repro_engine_memo_entries{model="flip@1"}' in text
        assert 'repro_engine_memo_resets_total{model="flip@1"} 0' in text
