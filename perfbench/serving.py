"""The served workloads: one ``repro server --jobs 1`` subprocess, one client.

Each boot copies ``models/`` into a fresh directory without ``.engine``
sidecars and starts ``python -m repro server --jobs 1 --warm`` on it, so
set-up always measures the same cold compile and ``--warm`` never
writes into the committed ``models/``.  Sharded pools (``--jobs N``)
are not measured: on a 2-core host a worker pool would compete with the
load generator for the same cores.
"""

from __future__ import annotations

import os
import re
import select
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.server.client import ServerClient

from perfbench.common import Tally, peak_rss_mb
from perfbench.inputs import BULK_KINDS, BulkStreams, Stream

#: Seconds a server may take from launch to its first ``health``.
BOOT_TIMEOUT_S = 60.0
#: Seconds of closed-loop requests per throughput window.
RATE_WINDOW_S = 1.0
#: Streams served (warm-up included) after which the server's peak RSS
#: is read: four cycles.  The engines' pair memos grow with the documents
#: served, so the peak is read after a fixed amount of work, not at a
#: time that depends on speed.
RSS_STREAMS = 12

_BANNER = re.compile(rb"listening on ([0-9.]+):([0-9]+)")


def fresh_models(checkout: str, destination: str) -> str:
    """Copy ``models/`` to ``destination``, leaving out ``.engine`` sidecars."""
    shutil.rmtree(destination, ignore_errors=True)
    shutil.copytree(
        os.path.join(checkout, "models"),
        destination,
        ignore=shutil.ignore_patterns("*.engine"),
    )
    return destination


class ServerProcess:
    """One server subprocess over a fresh copy of ``models/``."""

    def __init__(self, checkout: str, work_dir: str, name: str):
        self.checkout = checkout
        self.work_dir = work_dir
        self.models_dir = os.path.join(work_dir, f"models-{name}")
        self.proc: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self) -> float:
        """Launch and wait for the first successful ``health``.

        Returns the seconds from launch to that ``health`` answer (the
        copy of ``models/`` is made before the clock starts).
        """
        fresh_models(self.checkout, self.models_dir)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.checkout, "src")
        env["TMPDIR"] = self.work_dir
        command = [
            sys.executable, "-m", "repro", "server",
            "--models", self.models_dir,
            "--host", self.host, "--port", "0",
            "--jobs", "1", "--warm",
        ]
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            cwd=self.checkout,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        self.port = self._await_banner(started + BOOT_TIMEOUT_S)
        with ServerClient(self.host, self.port, timeout=BOOT_TIMEOUT_S) as client:
            health = client.health()
        elapsed = time.perf_counter() - started
        if health.get("status") != "serving":
            raise RuntimeError(f"server not serving after boot: {health}")
        return elapsed

    def _await_banner(self, deadline: float) -> int:
        received = b""
        stream = self.proc.stderr
        while True:
            match = _BANNER.search(received)
            if match:
                return int(match.group(2))
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise RuntimeError("server did not announce its port in time")
            ready, _, _ = select.select([stream], [], [], remaining)
            if ready:
                chunk = os.read(stream.fileno(), 4096)
                if not chunk:
                    raise RuntimeError(
                        f"server exited during boot: {received.decode(errors='replace')}"
                    )
                received += chunk

    def client(self, timeout: float = 120.0) -> ServerClient:
        return ServerClient(self.host, self.port, timeout=timeout)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Ask for a graceful stop, wait for exit, drop the models copy."""
        if self.proc is not None:
            if self.proc.poll() is None:
                try:
                    with self.client(timeout=10.0) as client:
                        client.shutdown()
                except (ReproError, OSError):
                    self.proc.terminate()
            try:
                self.proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
            self.proc = None
        shutil.rmtree(self.models_dir, ignore_errors=True)


def boot_times(checkout: str, work_dir: str, boots: int) -> List[float]:
    """Boot and stop ``boots`` servers one after another; their set-up seconds."""
    times = []
    for index in range(boots):
        server = ServerProcess(checkout, work_dir, f"boot-{index}")
        try:
            times.append(server.start())
        finally:
            server.stop()
    return times


# ----------------------------------------------------------------------
# Metrics snapshots
# ----------------------------------------------------------------------


def histogram_totals(snapshot: Dict, name: str) -> Tuple[int, float]:
    """``(count, sum)`` of one histogram family over every label set."""
    count, total = 0, 0.0
    for series in snapshot["histograms"].get(name, ()):
        count += series["count"]
        total += series["sum"]
    return count, total


def counter_total(snapshot: Dict, name: str) -> float:
    return sum(series["value"] for series in snapshot["counters"].get(name, ()))


def engine_pairs(snapshot: Dict) -> Tuple[int, int]:
    """``(hits, misses)`` of every in-process engine's pair memo.

    A miss is one demanded ``(state, node)`` pair evaluated, and adds
    one memo entry.
    """
    stats = snapshot["backends"].values()
    return sum(s.get("hits", 0) for s in stats), sum(s.get("misses", 0) for s in stats)


class PhaseDelta:
    """Server histogram and counter deltas between two ``metrics`` scrapes."""

    def __init__(self, before: Dict, after: Dict):
        self.before = before
        self.after = after

    def histogram(self, name: str) -> Tuple[int, float]:
        count_after, sum_after = histogram_totals(self.after, name)
        count_before, sum_before = histogram_totals(self.before, name)
        return count_after - count_before, sum_after - sum_before

    def counter(self, name: str) -> float:
        return counter_total(self.after, name) - counter_total(self.before, name)

    def engine_pairs(self) -> Tuple[int, int]:
        """``(hits, misses)`` of the engines' pair memos between the scrapes."""
        hits_after, misses_after = engine_pairs(self.after)
        hits_before, misses_before = engine_pairs(self.before)
        return hits_after - hits_before, misses_after - misses_before


# ----------------------------------------------------------------------
# Load generators
# ----------------------------------------------------------------------


@dataclass
class Phase:
    """One timed phase of load."""

    #: Client wall seconds per succeeded request; for streams, per cycle
    #: (one stream of each kind).
    latencies: List[float]
    #: Succeeded operations per second, one rate per window of at least
    #: ``RATE_WINDOW_S`` (requests) or per cycle (streams).
    rates: List[float]
    #: Succeeded operations (requests, or documents of streams).
    ops: int
    #: Wall seconds of the phase; for streams, of the requests alone.
    wall: float
    #: Index of the first request (or stream) sent, and of the next one.
    first: int
    end: int
    #: Streams only: ``(stream, per-document success, request seconds)``
    #: per stream sent.
    streams: List[Tuple[Stream, List[bool], float]] = field(default_factory=list)
    #: Streams only: the server's peak RSS after ``RSS_STREAMS`` streams
    #: (unset if the phase ended before).
    rss_mb: Optional[float] = None


def drive_requests(
    client: ServerClient,
    requests: Sequence[Tuple[str, str]],
    expected: Sequence[str],
    seconds: float,
    tally: Tally,
    first: int = 0,
) -> Phase:
    """Closed loop, one ``transform`` at a time, for ``seconds``.

    Throughput is taken per window of ``RATE_WINDOW_S``, so that its
    median passes over the moments the host took the CPU away.
    """
    latencies: List[float] = []
    rates: List[float] = []
    index = first
    count = len(requests)
    clock = time.perf_counter
    phase_started = window_started = clock()
    window_ops = 0
    deadline = phase_started + seconds
    while True:
        model, document = requests[index % count]
        started = clock()
        got = client.try_transform(model, document)
        finished = clock()
        if tally.check(expected[index % count], got):
            latencies.append(finished - started)
            window_ops += 1
        index += 1
        if finished - window_started >= RATE_WINDOW_S:
            rates.append(window_ops / (finished - window_started))
            window_started, window_ops = finished, 0
        if finished >= deadline:
            wall = finished - phase_started
            return Phase(latencies, rates or [len(latencies) / wall], len(latencies), wall, first, index)


def drive_streams(
    client: ServerClient,
    source: BulkStreams,
    seconds: float,
    tally: Tally,
    first: int = 0,
    rss_probe: Optional[Callable[[], float]] = None,
) -> Phase:
    """Send ``transform_stream`` requests one after another for ``seconds``.

    ``source.stream(index)`` gives the ``index``-th stream; ``first``
    starts a cycle, and the phase ends with one, so every cycle sends one
    stream of each kind.  Only the requests are timed: a stream made on
    first use is made before its clock starts, and outputs are checked
    after it stops.  ``rss_probe`` is called once, at the first stream of
    the phase that ends at least ``RSS_STREAMS`` streams after the server
    started.
    """
    phase = Phase([], [], 0, 0.0, first, first)
    clock = time.perf_counter
    deadline = clock() + seconds
    cycle_seconds, cycle_ok = 0.0, 0
    while True:
        stream = source.stream(phase.end)
        started = clock()
        outcomes = client.transform_stream(stream.model, stream.body)
        finished = clock()
        if len(outcomes) != len(stream.expected):
            raise RuntimeError(
                f"stream answered {len(outcomes)} of {len(stream.expected)} documents"
            )
        succeeded = [tally.check(want, got) for want, got in zip(stream.expected, outcomes)]
        cycle_seconds += finished - started
        cycle_ok += sum(succeeded)
        phase.ops += sum(succeeded)
        phase.wall += finished - started
        phase.streams.append((stream, succeeded, finished - started))
        phase.end += 1
        if rss_probe is not None and phase.rss_mb is None and phase.end >= RSS_STREAMS:
            phase.rss_mb = rss_probe()
        if phase.end % len(BULK_KINDS) == 0:
            phase.latencies.append(cycle_seconds)
            phase.rates.append(cycle_ok / cycle_seconds)
            cycle_seconds, cycle_ok = 0.0, 0
            if clock() >= deadline:
                return phase
