"""An asyncio cluster hosting the same protocol nodes as the simulator.

Every voter and driver gets an :class:`asyncio.Queue` inbox drained by
one consumer task through the shared handler step, all sharing a single
event loop — the single-loop replica shape of the flexible-BFT lineage:
cheaper than one OS thread per node at high node counts, and the natural
seat for socket I/O. Nodes get the shared
:class:`~repro.runtime.host.LiveEnv`, so voters, drivers, and CLBFT
nodes run unchanged.

Timers map onto the loop: ``set_timer`` is an :meth:`asyncio.loop
.call_later` handle keyed ``(node_key, tag)``; re-arming cancels the old
handle, and a firing posts a timer event into the node's inbox so timer
handling serialises with message handling in the node's consumer task —
exactly the ordering contract the threaded wheel provides.

Handlers are synchronous protocol code. Because the loop is single
threaded, only one handler runs at a time; concurrency here is the
*interleaving* of node tasks, not parallelism.

Two substrates run this cluster: ``runtime="asyncio"`` hosts every node
on one loop, and each ``runtime="process"`` worker hosts its
voter/driver pair on its own loop, passing a ``remote`` writer that
carries posts to non-local nodes out through the worker's connection.
Deploy through the scenario API (:mod:`repro.scenario`) rather than
wiring nodes by hand. The owner of the loop calls
:meth:`AioCluster.bind_running_loop` from inside it, spawns the consumer
tasks into a task group, and stops the cluster when done.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable

from repro.runtime.host import START, LiveEnv, handle
from repro.sim.kernel import ProtocolNode

_STOP = object()


class _AioTimerTable:
    """All nodes' timers as cancellable ``call_later`` handles."""

    def __init__(self) -> None:
        self._loop: asyncio.AbstractEventLoop | None = None
        self._entries: dict[tuple[str, Any], asyncio.TimerHandle] = {}
        #: Timers armed before the loop exists (deploy-time arming);
        #: converted to real handles the moment the loop binds.
        self._pending: dict[
            tuple[str, Any], tuple[int, Callable[[Any], None]]
        ] = {}

    def bind(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        pending, self._pending = self._pending, {}
        for (node_key, tag), (delay_us, fire) in pending.items():
            self.set_timer(node_key, tag, delay_us, fire)

    def set_timer(self, node_key: str, tag: Any, delay_us: int,
                  fire: Callable[[Any], None]) -> None:
        self.cancel_timer(node_key, tag)
        if self._loop is None:
            self._pending[(node_key, tag)] = (delay_us, fire)
            return
        handle = self._loop.call_later(
            delay_us / 1_000_000.0, self._fire, node_key, tag, fire
        )
        self._entries[(node_key, tag)] = handle

    def _fire(self, node_key: str, tag: Any, fire: Callable[[Any], None]) -> None:
        # A fired timer is no longer armed. The callback only runs if the
        # handle was never cancelled; a re-arm replaced the mapping and
        # cancelled this handle, so whatever is stored is not this one.
        self._entries.pop((node_key, tag), None)
        fire(tag)

    def cancel_timer(self, node_key: str, tag: Any) -> None:
        self._pending.pop((node_key, tag), None)
        handle = self._entries.pop((node_key, tag), None)
        if handle is not None:
            handle.cancel()

    def armed(self, node_key: str, tag: Any) -> bool:
        return (node_key, tag) in self._entries or (
            (node_key, tag) in self._pending
        )

    def armed_count(self) -> int:
        """Timers currently armed (set, not yet fired or cancelled)."""
        return len(self._entries) + len(self._pending)

    def stop(self) -> None:
        for handle in self._entries.values():
            handle.cancel()
        self._entries.clear()
        self._pending.clear()


class _AioNodeWorker:
    """One consumer task per node: inbox in, handler calls out."""

    def __init__(self, key: str, node: ProtocolNode) -> None:
        self.key = key
        self.node = node
        #: Unbounded, loop-agnostic until first await — safe to create
        #: (and ``put_nowait`` into) before the loop exists.
        self.inbox: asyncio.Queue = asyncio.Queue()
        self.errors: list[BaseException] = []


class AioCluster:
    """Hosts protocol nodes as tasks on one asyncio event loop.

    Usage mirrors the threaded cluster: ``add_node`` everything at
    deploy time, then — inside the loop — ``bind_running_loop()``,
    ``spawn(task_group)``, and finally ``request_stop()``. Quiescence is
    exact here, not sampled: the loop is single threaded, so whenever
    the monitor coroutine runs, no handler is mid-flight, and
    ``inboxes_empty()`` counts *unprocessed* events (enqueued minus
    handled), which closes the dequeued-but-not-yet-handled window the
    threaded substrate has to settle over.
    """

    def __init__(
        self, remote: Callable[[str, str, Any], None] | None = None
    ) -> None:
        self.timers = _AioTimerTable()
        self._workers: dict[str, _AioNodeWorker] = {}
        #: Where posts to nodes this cluster does not host go (a process
        #: worker's connection writer); ``None`` drops them.
        self._remote = remote
        self.dropped: set[str] = set()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._epoch = 0.0
        #: Events enqueued but not yet fully handled (messages + timer
        #: firings). Single-threaded increments/decrements: exact.
        self._unprocessed = 0
        self._started_nodes = 0

    # -- deploy-time surface -------------------------------------------

    def add_node(self, node_id: Any, node: ProtocolNode,
                 host: str | None = None) -> LiveEnv:
        key = str(node_id)
        self._workers[key] = _AioNodeWorker(key, node)
        return LiveEnv(self, node_id)

    def drop_node(self, node_id: Any) -> None:
        """Crash a node: it stops sending and receiving."""
        self.dropped.add(str(node_id))

    # -- loop lifecycle (called from inside the running loop) ----------

    def bind_running_loop(self) -> None:
        # The one sanctioned loop acquisition in this module: the
        # substrate boundary pins the driving loop as the cluster clock
        # (env.now_us reads loop.time() relative to this epoch) and arms
        # any deploy-time timers. Protocol code above this line never
        # touches the loop — DET006 keeps that structural.
        loop = asyncio.get_running_loop()  # analysis: allow(DET006) -- substrate boundary: the cluster adapts the loop clock to env.now_us
        self._loop = loop
        self._epoch = loop.time()
        self.timers.bind(loop)

    def spawn(self, task_group: asyncio.TaskGroup) -> None:
        for worker in self._workers.values():
            task_group.create_task(self._consume(worker))

    def request_stop(self) -> None:
        """Stop every consumer after its queued work; disarm timers."""
        self.timers.stop()
        for worker in self._workers.values():
            worker.inbox.put_nowait(_STOP)

    async def _consume(self, worker: _AioNodeWorker) -> None:
        # One inbox dequeue is the asyncio analogue of a kernel tick.
        # Window batching arms a flush timer through set_timer, which
        # lands here as a timer event like any other.
        node, errors, inbox = worker.node, worker.errors, worker.inbox
        handle(node, START, errors)
        self._started_nodes += 1
        while True:
            item = await inbox.get()
            if item is _STOP:
                return
            handle(node, item, errors)
            self._unprocessed -= 1

    # -- event posting --------------------------------------------------

    def now_us(self) -> int:
        if self._loop is None:
            return 0
        return int((self._loop.time() - self._epoch) * 1_000_000)

    def post(self, src: str, dst: str, msg: Any) -> None:
        if dst in self.dropped or src in self.dropped:
            return
        worker = self._workers.get(dst)
        if worker is not None:
            worker.inbox.put_nowait(("msg", src, msg))
            self._unprocessed += 1
        elif self._remote is not None:
            self._remote(src, dst, msg)

    def post_timer(self, node_key: str, tag: Any) -> None:
        if node_key in self.dropped:
            return
        worker = self._workers.get(node_key)
        if worker is not None:
            worker.inbox.put_nowait(("timer", None, tag))
            self._unprocessed += 1

    # -- observation -----------------------------------------------------

    def errors(self) -> list[BaseException]:
        return [e for w in self._workers.values() for e in w.errors]

    def all_started(self) -> bool:
        """Every node's ``on_start`` has run (or crashed and was logged)."""
        return self._started_nodes == len(self._workers)

    def mailboxes_empty(self) -> bool:
        """True when no enqueued event awaits handling anywhere."""
        return self._unprocessed == 0

    def timers_armed(self) -> int:
        """Timers currently armed across all nodes."""
        return self.timers.armed_count()

    def shutdown(self) -> None:
        """Idempotent release: disarm timers; tasks died with the loop."""
        self.timers.stop()
