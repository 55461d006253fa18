"""A threaded cluster hosting the same protocol nodes as the simulator.

Each node gets one consumer thread draining a thread-safe mailbox
through the shared handler step, and the shared
:class:`~repro.runtime.host.LiveEnv` (the
:class:`repro.sim.kernel.SimNodeEnv` surface), so voters, drivers, and
CLBFT nodes run unchanged. Timers live on one wheel thread, the one
piece threads need that an event loop does not.

Determinism holds per replica (the protocol guarantees it), but event
interleaving across nodes is genuinely racy — which is the point of
testing on this substrate.

This module is the substrate only; deploy onto it through the scenario
API (:mod:`repro.scenario`, ``runtime="threaded"``) rather than wiring
nodes by hand.
"""

from __future__ import annotations

import heapq
import itertools
import queue
import threading
import time
from typing import Any, Callable

from repro.runtime.host import START, LiveEnv, handle
from repro.runtime.sanitizer import guarded_dict, guarded_list, guarded_set
from repro.sim.kernel import ProtocolNode


class _TimerWheel:
    """One thread servicing all nodes' timers."""

    def __init__(self, debug_locks: bool = False) -> None:
        self._heap: list[tuple[float, int, object]] = []
        self._entries: dict[tuple[str, Any], object] = {}
        self._seq = itertools.count()
        self._cv = threading.Condition()
        if debug_locks:
            # Assert-owner proxy: every mutation of the timer table must
            # hold the wheel's condition, exactly what the static
            # LOCK001 pass concluded lexically.
            self._entries = guarded_dict("_TimerWheel._entries", self._cv)
        self._stopped = False
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def set_timer(self, node_key: str, tag: Any, delay_us: int,
                  fire: Callable[[Any], None]) -> None:
        deadline = time.monotonic() + delay_us / 1_000_000.0
        entry = {"key": node_key, "tag": tag, "fire": fire, "cancelled": False}
        with self._cv:
            old = self._entries.pop((node_key, tag), None)
            if old is not None:
                old["cancelled"] = True
            self._entries[(node_key, tag)] = entry
            heapq.heappush(self._heap, (deadline, next(self._seq), entry))
            self._cv.notify()

    def cancel_timer(self, node_key: str, tag: Any) -> None:
        with self._cv:
            entry = self._entries.pop((node_key, tag), None)
            if entry is not None:
                entry["cancelled"] = True

    def armed(self, node_key: str, tag: Any) -> bool:
        with self._cv:
            return (node_key, tag) in self._entries

    def armed_count(self) -> int:
        """Timers currently armed (set, not yet fired or cancelled)."""
        with self._cv:
            return len(self._entries)

    def stop(self) -> None:
        with self._cv:
            self._stopped = True
            self._cv.notify()
        self._thread.join(timeout=2)

    def _run(self) -> None:
        while True:
            with self._cv:
                if self._stopped:
                    return
                if not self._heap:
                    self._cv.wait(timeout=0.1)
                    continue
                deadline, _, entry = self._heap[0]
                now = time.monotonic()
                if deadline > now:
                    self._cv.wait(timeout=min(deadline - now, 0.1))
                    continue
                heapq.heappop(self._heap)
                if entry["cancelled"]:
                    continue
                # A fired timer is no longer armed (unless re-armed since,
                # in which case the mapping already points elsewhere).
                if self._entries.get((entry["key"], entry["tag"])) is entry:
                    del self._entries[(entry["key"], entry["tag"])]
                fire, tag = entry["fire"], entry["tag"]
            try:
                fire(tag)
            except Exception:  # a faulty node's timer must not kill the wheel
                pass


class _NodeWorker:
    """One consumer thread per node: mailbox in, handler calls out."""

    def __init__(self, key: str, node: ProtocolNode,
                 debug_locks: bool = False) -> None:
        self.key = key
        self.node = node
        self.mailbox: queue.Queue = queue.Queue()
        self.errors: list[BaseException] = []
        if debug_locks:
            # Only this worker's own thread appends; readers (the
            # cluster's errors() sweep) go through list reads, which the
            # proxy passes through unchecked.
            self.errors = guarded_list(f"_NodeWorker[{key}].errors")
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._started = False

    def start(self) -> None:
        if not self._started:
            self._started = True
            self._thread.start()

    def _run(self) -> None:
        handle(self.node, START, self.errors)
        while True:
            item = self.mailbox.get()
            if item is _STOP:
                return
            handle(self.node, item, self.errors)


_STOP = object()


class ThreadedCluster:
    """Hosts protocol nodes on real threads.

    Usage mirrors the simulator: ``add_node`` everything, then
    :meth:`start`; :meth:`await_quiescent` parks until mailboxes drain.
    """

    def __init__(self, debug_locks: bool = False) -> None:
        self.epoch = time.monotonic()
        self.debug_locks = debug_locks
        self.timers = _TimerWheel(debug_locks=debug_locks)
        self._workers: dict[str, _NodeWorker] = {}
        self._started = False
        self.dropped: set[str] = set()
        if debug_locks:
            # The deploying thread owns topology: node registration and
            # crash faults are main-thread operations; handler threads
            # only ever *read* these structures.
            self._workers = guarded_dict("ThreadedCluster._workers")
            self.dropped = guarded_set("ThreadedCluster.dropped")

    def add_node(self, node_id: Any, node: ProtocolNode, host: str | None = None):
        key = str(node_id)
        worker = _NodeWorker(key, node, debug_locks=self.debug_locks)
        self._workers[key] = worker
        if self._started:
            worker.start()
        return LiveEnv(self, node_id)

    def start(self) -> None:
        self._started = True
        for worker in self._workers.values():
            worker.start()

    def now_us(self) -> int:
        return int((time.monotonic() - self.epoch) * 1_000_000)

    def post(self, src: str, dst: str, msg: Any) -> None:
        if dst in self.dropped or src in self.dropped:
            return
        worker = self._workers.get(dst)
        if worker is not None:
            worker.mailbox.put(("msg", src, msg))

    def post_timer(self, node_key: str, tag: Any) -> None:
        if node_key in self.dropped:
            return
        worker = self._workers.get(node_key)
        if worker is not None:
            worker.mailbox.put(("timer", None, tag))

    def drop_node(self, node_id: Any) -> None:
        """Crash a node: it stops sending and receiving."""
        self.dropped.add(str(node_id))

    def errors(self) -> list[BaseException]:
        return [e for w in self._workers.values() for e in w.errors]

    def mailboxes_empty(self) -> bool:
        """True when no node has queued messages or timer firings."""
        return all(w.mailbox.empty() for w in self._workers.values())

    def timers_armed(self) -> int:
        """Timers currently armed across all nodes."""
        return self.timers.armed_count()

    def await_quiescent(self, settle_s: float = 0.05, timeout_s: float = 10.0) -> bool:
        """Wait until every mailbox stays empty for ``settle_s``."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.mailboxes_empty():
                time.sleep(settle_s)
                if self.mailboxes_empty():
                    return True
            else:
                time.sleep(0.005)
        return False

    def shutdown(self) -> None:
        for worker in self._workers.values():
            worker.mailbox.put(_STOP)
        self.timers.stop()
