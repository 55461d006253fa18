"""The live node host: one env and one handler step for real substrates.

Every live substrate — the threaded cluster, the asyncio cluster, and
the asyncio cluster each process worker runs — hosts the same protocol
nodes through the same two pieces:

- :class:`LiveEnv`, the per-node environment with the
  :class:`repro.sim.kernel.SimNodeEnv` surface (``send``,
  ``local_deliver``, ``set_timer``, ``cancel_timer``, ``timer_armed``,
  ``now_us``, ``now_ms``, ``charge``), written against a small host
  surface: ``now_us()``, ``post(src, dst, msg)``,
  ``post_timer(node_key, tag)``, and a ``timers`` table with
  ``set_timer`` / ``cancel_timer`` / ``armed``;
- :func:`handle`, one handler step: ``on_start`` or the message/timer
  handler, then ``on_flush`` on ``wants_flush`` nodes (tick batching —
  buffered channel output departs as soon as its handler returns, the
  live analogue of a kernel tick), recording any exception instead of
  letting it kill the host's loop.

``charge`` is a no-op: on a live host, CPU time is consumed by running.
The simulator keeps its own env, because its charge/outbox semantics
are the deterministic CPU model.
"""

from __future__ import annotations

from typing import Any

from repro.sim.kernel import ProtocolNode

#: Queue item that runs a node's ``on_start`` through :func:`handle`.
START = ("start", None, None)


class LiveEnv:
    """Per-node environment with the SimNodeEnv surface over a live host."""

    __slots__ = ("_host", "node_id", "_key")

    def __init__(self, host: Any, node_id: Any) -> None:
        self._host = host
        self.node_id = node_id
        self._key = str(node_id)

    def now_us(self) -> int:
        return self._host.now_us()

    def now_ms(self) -> int:
        return self._host.now_us() // 1000

    def charge(self, cpu_us: int) -> None:
        """No-op: on a live host, CPU time is consumed by running."""

    def send(self, dst: Any, msg: Any, size_bytes: int = 256) -> None:
        self._host.post(self._key, str(dst), msg)

    def local_deliver(self, dst: Any, msg: Any) -> None:
        self._host.post(self._key, str(dst), msg)

    def set_timer(self, tag: Any, delay_us: int) -> None:
        self._host.timers.set_timer(self._key, tag, delay_us, self._fire)

    def _fire(self, tag: Any) -> None:
        self._host.post_timer(self._key, tag)

    def cancel_timer(self, tag: Any) -> None:
        self._host.timers.cancel_timer(self._key, tag)

    def timer_armed(self, tag: Any) -> bool:
        return self._host.timers.armed(self._key, tag)


def handle(node: ProtocolNode, item: tuple, errors: list) -> None:
    """Run one ``(kind, src, payload)`` event on ``node``, then flush."""
    kind, src, payload = item
    try:
        if kind == "msg":
            node.on_message(src, payload)
        elif kind == "timer":
            node.on_timer(payload)
        else:
            node.on_start()
        if node.wants_flush:
            node.on_flush()
    except Exception as exc:  # a faulty node must not kill the host loop
        errors.append(exc)
