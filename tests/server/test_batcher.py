"""MicroBatcher: group-commit batching, per-request outcomes,
admission control, shutdown."""

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.engine import engine_for
from repro.errors import (
    OverloadedError,
    ServiceError,
    UndefinedTransductionError,
)
from repro.server.batcher import MicroBatcher
from repro.server.registry import KIND_DTOP, ModelEntry
from repro.workloads.flip import flip_input, flip_transducer


def flip_entry(**kwargs) -> ModelEntry:
    return ModelEntry(
        "flip", "1", Path("flip@1.json"), KIND_DTOP, flip_transducer(),
        **kwargs,
    )


class BlockingEntry(ModelEntry):
    """An entry whose dispatch blocks until the test releases it."""

    def __init__(self, name="slow"):
        super().__init__(
            name, "1", Path(f"{name}@1.json"), KIND_DTOP, flip_transducer()
        )
        self.gate = threading.Event()
        self.started = threading.Event()
        self.batches = []

    def run_batch(self, documents):
        self.started.set()
        self.gate.wait(timeout=30)
        self.batches.append(len(documents))
        return super().run_batch(documents)


class FrozenClockLoop(asyncio.SelectorEventLoop):
    """An event loop whose clock never moves: no timer ever fires."""

    def time(self):
        return 0.0


async def until(predicate, steps=2000):
    """Yield to the loop (in 5 ms sleeps) until ``predicate()`` holds."""
    for _ in range(steps):
        if predicate():
            return
        await asyncio.sleep(0.005)
    raise AssertionError("condition never held")


class FailingEntry(ModelEntry):
    """An entry whose dispatch dies wholesale (infrastructure failure)."""

    def __init__(self):
        super().__init__(
            "bad", "1", Path("bad@1.json"), KIND_DTOP, flip_transducer()
        )

    def run_batch(self, documents):
        raise RuntimeError("the pool fell over")


class TestCoalescing:
    def test_concurrent_requests_coalesce_into_one_batch(self):
        entry = flip_entry()
        forest = [flip_input(n % 4, (n + 1) % 3) for n in range(10)]
        reference = engine_for(entry.machine).run_batch_outcomes(forest)

        async def main():
            batcher = MicroBatcher(max_batch=32)
            results = await asyncio.gather(
                *(batcher.submit(entry, document) for document in forest)
            )
            stats = batcher.stats
            await batcher.close()
            return results, stats

        results, stats = asyncio.run(main())
        assert [str(r) for r in results] == [str(r) for r in reference]
        # All ten were admitted in one loop tick: exactly one dispatch.
        assert stats["batches"] == 1
        assert stats["max_batch_seen"] == 10
        assert stats["coalesced"] == 10

    def test_max_batch_bounds_each_dispatch(self):
        entry = flip_entry()
        forest = [flip_input(1, 1)] * 10

        async def main():
            batcher = MicroBatcher(max_batch=4)
            await asyncio.gather(
                *(batcher.submit(entry, document) for document in forest)
            )
            stats = batcher.stats
            await batcher.close()
            return stats

        stats = asyncio.run(main())
        assert stats["batches"] == 3  # 4 + 4 + 2
        assert stats["max_batch_seen"] == 4

    def test_lone_request_dispatches_with_a_frozen_clock(self):
        """No timer is involved: with the loop clock (and the batcher's)
        frozen, a lone request still dispatches and resolves at once."""
        entry = flip_entry()
        outcome = {}

        async def main():
            batcher = MicroBatcher(max_batch=1000, clock=lambda: 0.0)
            outcome["result"] = await batcher.submit(entry, flip_input(1, 0))
            outcome["stats"] = batcher.stats
            outcome["wait"] = batcher.metrics.histogram(
                "repro_queue_wait_seconds", {"model": entry.key}
            )
            await batcher.close()

        def run():
            loop = FrozenClockLoop()
            try:
                loop.run_until_complete(main())
            finally:
                loop.close()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive(), "a lone request waited on a timer"
        assert str(outcome["result"]) == "root(#, a(#, #))"
        assert outcome["stats"]["batches"] == 1
        assert outcome["wait"].count == 1 and outcome["wait"].max == 0.0

    def test_arrivals_during_a_dispatch_leave_together_as_the_next_batch(
        self,
    ):
        entry = BlockingEntry()
        documents = [flip_input(n % 3, n % 2) for n in range(11)]
        reference = engine_for(entry.machine).run_batch_outcomes(documents)

        async def main():
            batcher = MicroBatcher(max_batch=4)
            first = asyncio.ensure_future(batcher.submit(entry, documents[0]))
            await until(entry.started.is_set)  # in flight, held at the gate
            rest = [
                asyncio.ensure_future(batcher.submit(entry, document))
                for document in documents[1:]
            ]
            await until(lambda: batcher.pending == len(documents))
            assert entry.batches == []  # nothing else left meanwhile
            entry.gate.set()
            results = await asyncio.gather(first, *rest)
            stats = batcher.stats
            await batcher.close()
            return results, stats

        results, stats = asyncio.run(main())
        assert [str(r) for r in results] == [str(r) for r in reference]
        # The lone first request left alone; the ten that queued behind
        # it left as max_batch-capped batches, in arrival order.
        assert entry.batches == [1, 4, 4, 2]
        assert stats["batches"] == 4 and stats["max_batch_seen"] == 4

    def test_distinct_entries_dispatch_concurrently(self):
        held = BlockingEntry("held")
        free = flip_entry()

        async def main():
            batcher = MicroBatcher()
            blocked = asyncio.ensure_future(
                batcher.submit(held, flip_input(0, 0))
            )
            await until(held.started.is_set)
            # ``held`` is still in flight; another entry must not queue
            # behind it.
            result = await batcher.submit(free, flip_input(1, 0))
            assert not blocked.done()
            held.gate.set()
            await blocked
            await batcher.close()
            return result

        assert str(asyncio.run(main())) == "root(#, a(#, #))"

    def test_bad_document_fails_alone_not_the_batch(self):
        entry = flip_entry()
        good = flip_input(1, 1)
        bad = flip_input(1, 1).children[0]  # no root wrapper: off-domain

        async def main():
            batcher = MicroBatcher(max_batch=8)
            results = await asyncio.gather(
                batcher.submit(entry, good),
                batcher.submit(entry, bad),
                batcher.submit(entry, good),
            )
            stats = batcher.stats
            await batcher.close()
            return results, stats

        results, stats = asyncio.run(main())
        assert isinstance(results[1], UndefinedTransductionError)
        reference = engine_for(entry.machine).run(good)
        assert str(results[0]) == str(results[2]) == str(reference)
        assert stats["batches"] == 1 and stats["errors"] == 1

    def test_dispatch_failure_resolves_every_member_to_service_error(self):
        entry = FailingEntry()

        async def main():
            batcher = MicroBatcher(max_batch=8)
            results = await asyncio.gather(
                batcher.submit(entry, flip_input(0, 0)),
                batcher.submit(entry, flip_input(1, 1)),
            )
            stats = batcher.stats
            await batcher.close()
            return results, stats

        results, stats = asyncio.run(main())
        assert all(isinstance(r, ServiceError) for r in results)
        assert all("the pool fell over" in str(r) for r in results)
        assert stats["dispatch_failures"] == 1


class TestAdmissionControl:
    def test_overload_raises_without_queueing(self):
        entry = BlockingEntry()

        async def main():
            batcher = MicroBatcher(
                max_batch=2, max_pending=2
            )
            first = asyncio.ensure_future(
                batcher.submit(entry, flip_input(0, 0))
            )
            second = asyncio.ensure_future(
                batcher.submit(entry, flip_input(1, 0))
            )
            await asyncio.sleep(0.05)  # both admitted, dispatch blocked
            with pytest.raises(OverloadedError) as caught:
                await batcher.submit(entry, flip_input(0, 1))
            entry.gate.set()
            results = await asyncio.gather(first, second)
            stats = batcher.stats
            await batcher.close()
            return caught.value, results, stats

        error, results, stats = asyncio.run(main())
        assert "retry" in str(error)
        assert stats["overloads"] == 1
        assert len(results) == 2  # the admitted requests still completed
        assert stats["requests"] == 2  # the rejected one was never queued

    def test_zero_max_pending_rejects_everything(self):
        entry = flip_entry()

        async def main():
            batcher = MicroBatcher(max_pending=0)
            with pytest.raises(OverloadedError):
                await batcher.submit(entry, flip_input(0, 0))
            await batcher.close()

        asyncio.run(main())


class TestLifecycle:
    def test_close_resolves_queued_members_to_shutdown_errors(self):
        entry = BlockingEntry()
        executor = ThreadPoolExecutor(max_workers=2)

        async def main():
            batcher = MicroBatcher(executor=executor)
            in_flight = asyncio.ensure_future(
                batcher.submit(entry, flip_input(0, 0))
            )
            await until(entry.started.is_set)
            queued = [
                asyncio.ensure_future(batcher.submit(entry, flip_input(1, 1)))
                for _ in range(3)
            ]
            await until(lambda: batcher.pending == 4)
            await batcher.close()
            await batcher.close()  # idempotent
            outcomes = await asyncio.gather(*queued)
            with pytest.raises(ServiceError):
                await batcher.submit(entry, flip_input(0, 0))
            entry.gate.set()  # the dispatch already running still finishes
            return outcomes, await in_flight

        try:
            outcomes, finished = asyncio.run(main())
        finally:
            executor.shutdown(wait=True)
        assert all(isinstance(o, ServiceError) for o in outcomes)
        assert all("shutting down" in str(o) for o in outcomes)
        assert str(finished) == "root(#, #)"
        assert entry.batches == [1]

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ServiceError):
            MicroBatcher(max_batch=0)
        with pytest.raises(ServiceError):
            MicroBatcher(max_pending=-1)

    def test_submit_releases_entry_refs(self):
        entry = flip_entry()

        async def main():
            batcher = MicroBatcher(max_batch=4)
            await asyncio.gather(
                *(batcher.submit(entry, flip_input(1, 1)) for _ in range(6))
            )
            await batcher.close()

        asyncio.run(main())
        assert entry._refs == 0
        entry.retire()  # with no holders this closes immediately
        assert entry._closed
