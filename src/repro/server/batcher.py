"""Group-commit batching of concurrent transform requests.

A network server sees single-document requests; the compiled engine and
the sharded :class:`~repro.serve.service.TransformService` are fastest
on *forests* (hash-consed sharing makes overlapping documents nearly
free, and one dispatch amortizes the executor hop and the pool's codec
work over the whole batch).  :class:`MicroBatcher` bridges the two with
group-commit semantics, per model entry:

* a request for an entry with no dispatch in flight is dispatched on
  the event loop's next pass, together with whatever else the same pass
  admitted (a burst of stream documents, say).  Nothing waits on a
  timer, so a lone request pays no batching latency;
* while a dispatch is in flight, new arrivals queue; when it finishes
  they leave together as the next batch, up to ``max_batch`` documents
  (the rest leave in the batch after).  Batch size therefore follows
  load: one under a single client, up to ``max_batch`` under many;
* dispatch runs in a thread-pool executor (the event loop never blocks
  on engine work); one dispatch at a time per entry — a
  :class:`TransformService` is single-consumer — while distinct models
  translate concurrently;
* outcomes are **per request**: a document outside the domain resolves
  its own request to the engine's exact
  :class:`~repro.errors.UndefinedTransductionError` and never fails the
  rest of the batch.  Only an infrastructure failure of the whole
  dispatch (a :class:`~repro.errors.ServiceError` pool loss) resolves
  every member — still as per-request outcomes, never as a dropped
  connection;
* admission is bounded: once ``max_pending`` requests are admitted and
  not yet resolved, :meth:`submit` raises
  :class:`~repro.errors.OverloadedError` immediately instead of
  queueing — the explicit overload response of the protocol layer.

After each dispatch the entry's engine memo occupancy is published as
the ``repro_engine_memo_entries`` gauge and its budget resets as the
``repro_engine_memo_resets_total`` counter.

``max_batch=1`` degrades to per-request dispatch (the benchmark
baseline); semantics are identical either way, pinned by the
differential server tests.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import OverloadedError, ServiceError
from repro.obs.trace import TraceContext
from repro.server.metrics import ServerMetrics
from repro.server.registry import ModelEntry

#: Default documents per batch.
DEFAULT_MAX_BATCH = 32
#: Default bound on admitted-but-unresolved requests.
DEFAULT_MAX_PENDING = 1024

#: One queued request: (document, future, admitted-at, trace or None).
Member = Tuple[object, asyncio.Future, float, Optional[TraceContext]]


class MicroBatcher:
    """Group concurrent single-document requests into forest batches.

    Drive it from one event loop::

        batcher = MicroBatcher(max_batch=32)
        outcome = await batcher.submit(entry, document)

    ``submit`` returns the request's outcome — an output tree, or the
    per-document exception instance (callers decide whether to raise or
    to render a structured error response).
    """

    def __init__(
        self,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_pending: int = DEFAULT_MAX_PENDING,
        executor: Optional[ThreadPoolExecutor] = None,
        metrics: Optional[ServerMetrics] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_batch < 1:
            raise ServiceError("max_batch must be at least 1")
        if max_pending < 0:
            raise ServiceError("max_pending must be non-negative")
        self.max_batch = max_batch
        self.max_pending = max_pending
        #: Latency histograms + counters; a fresh registry when the
        #: caller (the server) did not share one — recording is always
        #: on, it is too cheap to gate.
        self.metrics = metrics if metrics is not None else ServerMetrics()
        self._clock = clock
        self._executor = executor or ThreadPoolExecutor(
            max_workers=8, thread_name_prefix="repro-batch"
        )
        self._own_executor = executor is None
        #: Queued requests of every entry with a dispatch in flight —
        #: the key's presence *is* the in-flight flag.  Entries are keyed
        #: by identity: a hot reload replaces the entry object, so an old
        #: entry's queue drains on the machine it was admitted to.
        self._pending: Dict[ModelEntry, List[Member]] = {}
        #: The running drain tasks (the loop itself holds tasks weakly).
        self._drains: Set[asyncio.Task] = set()
        self._admitted = 0
        self._closed = False
        self._stats = {
            "requests": 0,
            "batches": 0,
            "documents": 0,
            "coalesced": 0,
            "max_batch_seen": 0,
            "errors": 0,
            "overloads": 0,
            "dispatch_failures": 0,
        }

    # -- public API -----------------------------------------------------

    @property
    def pending(self) -> int:
        """Requests admitted and not yet resolved."""
        return self._admitted

    @property
    def stats(self) -> Dict[str, object]:
        return {
            **self._stats,
            "pending": self._admitted,
            "max_batch": self.max_batch,
            "max_pending": self.max_pending,
        }

    async def submit(
        self,
        entry: ModelEntry,
        document,
        trace: Optional[TraceContext] = None,
    ):
        """Admit one document for ``entry``; await its outcome.

        Raises :class:`OverloadedError` (without queueing) when the
        pending bound is reached, and :class:`ServiceError` after
        :meth:`close`.  Any other failure is *returned* as the
        request's outcome, exception instances included.  A ``trace``
        collects this request's queue/dispatch/execute spans.
        """
        if self._closed:
            raise ServiceError("batcher is closed")
        if self._admitted >= self.max_pending:
            # Refused at admission: counted as an overload, *never*
            # recorded in the queue-wait histogram — the request waited
            # in no queue (the overload regression tests pin this).
            self._stats["overloads"] += 1
            self.metrics.inc(
                "repro_overloads_total", {"model": entry.key}
            )
            raise OverloadedError(
                f"server overloaded: {self._admitted} requests pending "
                f"(bound {self.max_pending}); retry later"
            )
        future = asyncio.get_running_loop().create_future()
        self._admitted += 1
        self._stats["requests"] += 1
        entry.acquire()
        try:
            queue = self._pending.get(entry)
            if queue is None:
                # Nothing in flight: the drain starts on the loop's next
                # pass, after the arrivals of this pass have queued.
                queue = self._pending[entry] = []
                drain = asyncio.ensure_future(self._drain(entry, queue))
                self._drains.add(drain)
                drain.add_done_callback(self._drains.discard)
            queue.append((document, future, self._clock(), trace or None))
            return await future
        finally:
            self._admitted -= 1
            entry.release()

    async def close(self) -> None:
        """Resolve every queued request to a shutdown error; idempotent."""
        if self._closed:
            return
        self._closed = True
        queues = list(self._pending.values())
        self._pending.clear()
        for queue in queues:
            for _document, future, _admitted_at, _trace in queue:
                if not future.done():
                    future.set_result(ServiceError("server shutting down"))
            queue.clear()
        if self._own_executor:
            self._executor.shutdown(wait=True)

    # -- batching internals ---------------------------------------------

    async def _drain(self, entry: ModelEntry, queue: List[Member]) -> None:
        """Dispatch ``entry``'s queue, one batch at a time, until empty."""
        try:
            while queue:
                batch = queue[: self.max_batch]
                del queue[: self.max_batch]
                await self._dispatch(entry, batch)
        finally:
            if self._pending.get(entry) is queue:
                del self._pending[entry]

    async def _dispatch(self, entry: ModelEntry, batch: List[Member]) -> None:
        """Translate one batch in the executor; resolve its futures."""
        documents = [document for document, _future, _admitted_at, _t in batch]
        size = len(batch)
        self._stats["batches"] += 1
        self._stats["documents"] += size
        if size > 1:
            self._stats["coalesced"] += size
        self._stats["max_batch_seen"] = max(self._stats["max_batch_seen"], size)
        labels = {"model": entry.key}
        self.metrics.observe("repro_batch_documents", labels, size)
        # One shared collector for the execute spans of this batch: the
        # executor thread records into it during ``run_batch``, and its
        # spans are grafted under every traced member's dispatch span
        # afterwards (a batch runs once however many members watch it).
        any_traced = any(trace is not None for *_rest, trace in batch)
        batch_trace = TraceContext(name="batch") if any_traced else None
        resets_before = entry.memo()["resets"]
        dispatch_started = self._clock()
        for _document, _future, admitted_at, _trace in batch:
            self.metrics.observe(
                "repro_queue_wait_seconds",
                labels,
                max(0.0, dispatch_started - admitted_at),
            )
        loop = asyncio.get_running_loop()
        try:
            if batch_trace is None:
                outcomes = await loop.run_in_executor(
                    self._executor, entry.run_batch, documents
                )
            else:
                outcomes = await loop.run_in_executor(
                    self._executor, entry.run_batch, documents, batch_trace
                )
        except Exception as error:  # infrastructure, not per-document
            self._stats["dispatch_failures"] += 1
            if not isinstance(error, ServiceError):
                error = ServiceError(
                    f"batch dispatch failed: {type(error).__name__}: {error}"
                )
            outcomes = [error] * size
        dispatch_ended = self._clock()
        self.metrics.observe(
            "repro_dispatch_seconds",
            labels,
            max(0.0, dispatch_ended - dispatch_started),
        )
        memo = entry.memo()
        self.metrics.set_gauge("repro_engine_memo_entries", labels, memo["used"])
        self.metrics.inc(
            "repro_engine_memo_resets_total",
            labels,
            max(0, memo["resets"] - resets_before),
        )
        self._stats["errors"] += sum(
            1 for outcome in outcomes if isinstance(outcome, Exception)
        )
        if any_traced:
            executed = batch_trace.root.children
            for _document, _future, admitted_at, trace in batch:
                if trace is None:
                    continue
                trace.add_span("queue", admitted_at, dispatch_started)
                trace.add_span(
                    "dispatch",
                    dispatch_started,
                    dispatch_ended,
                    meta={"batch_documents": size},
                    children=executed,
                )
        for (_document, future, _admitted_at, _trace), outcome in zip(
            batch, outcomes
        ):
            if not future.done():
                future.set_result(outcome)
