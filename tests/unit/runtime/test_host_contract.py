"""The live host contract, pinned on both clusters that implement it.

``ThreadedCluster`` and ``AioCluster`` hand every node the shared
``LiveEnv`` and run every event through the shared handler step; the
asyncio cluster is also the host inside each ``process`` worker. One
parametrized suite checks what both must keep: timers, flush hooks,
error isolation, and crash (``drop_node``) semantics.
"""

import asyncio
import time

import pytest

from repro.runtime.aio import AioCluster
from repro.runtime.cluster import ThreadedCluster
from repro.sim.kernel import ProtocolNode


class Recorder(ProtocolNode):
    def __init__(self, wants_flush: bool = False):
        self.wants_flush = wants_flush
        self.events = []

    def on_start(self):
        self.events.append("start")

    def on_message(self, src, msg):
        if msg == "boom":
            raise RuntimeError("boom")
        self.events.append(("msg", src, msg))

    def on_timer(self, tag):
        self.events.append(("timer", tag))

    def on_flush(self):
        self.events.append("flush")


class ThreadedHost:
    def __init__(self):
        self.cluster = ThreadedCluster()

    def start(self):
        self.cluster.start()

    def wait_for(self, predicate, timeout_s=5.0):
        deadline = time.monotonic() + timeout_s
        while not predicate() and time.monotonic() < deadline:
            time.sleep(0.005)
        return predicate()

    def settle(self, seconds):
        time.sleep(seconds)

    def stop(self):
        self.cluster.shutdown()


class AioHost:
    """Runs the cluster's loop from the test thread while a check waits."""

    def __init__(self):
        self.cluster = AioCluster()
        self.loop = asyncio.new_event_loop()
        self._stop = asyncio.Event()
        self._main = None

    def start(self):
        async def host():
            self.cluster.bind_running_loop()
            async with asyncio.TaskGroup() as task_group:
                self.cluster.spawn(task_group)
                await self._stop.wait()
                self.cluster.request_stop()

        self._main = self.loop.create_task(host())

    def wait_for(self, predicate, timeout_s=5.0):
        async def poll():
            deadline = time.monotonic() + timeout_s
            while not predicate() and time.monotonic() < deadline:
                await asyncio.sleep(0.005)
            return predicate()

        return self.loop.run_until_complete(poll())

    def settle(self, seconds):
        self.loop.run_until_complete(asyncio.sleep(seconds))

    def stop(self):
        if self._main is not None:
            self._stop.set()
            self.loop.run_until_complete(self._main)
        self.cluster.shutdown()
        self.loop.close()


@pytest.fixture(params=[ThreadedHost, AioHost], ids=["threaded", "asyncio"])
def host(request):
    h = request.param()
    yield h
    h.stop()


def test_timers_set_rearm_cancel_and_fire(host):
    node = Recorder()
    env = host.cluster.add_node("a", node)
    # Armed before the host runs (deploy-time arming).
    env.set_timer("early", 150_000)
    env.set_timer("gone", 150_000)
    env.cancel_timer("gone")
    assert env.timer_armed("early")
    assert not env.timer_armed("gone")
    host.start()
    assert host.wait_for(lambda: ("timer", "early") in node.events)
    assert not env.timer_armed("early")
    env.set_timer("t", 5_000_000)
    env.set_timer("t", 20_000)  # re-arming replaces the far deadline
    assert env.timer_armed("t")
    assert host.wait_for(lambda: ("timer", "t") in node.events, timeout_s=2.0)
    assert not env.timer_armed("t")
    host.settle(0.2)
    assert node.events == ["start", ("timer", "early"), ("timer", "t")]
    assert host.cluster.timers_armed() == 0


def test_on_flush_follows_start_and_every_handler(host):
    flushing, plain = Recorder(wants_flush=True), Recorder()
    env_f = host.cluster.add_node("f", flushing)
    env_p = host.cluster.add_node("p", plain)
    host.start()
    env_f.set_timer("t", 1_000)
    env_p.send("f", 1)
    env_f.send("p", 2)
    assert host.wait_for(lambda: len(flushing.events) == 6)
    assert host.wait_for(lambda: ("msg", "f", 2) in plain.events)
    assert flushing.events[0] == "start"
    assert flushing.events[1::2] == ["flush"] * 3
    assert sorted(map(repr, flushing.events[2::2])) == [
        repr(("msg", "p", 1)), repr(("timer", "t")),
    ]
    assert "flush" not in plain.events


def test_raising_handler_is_recorded_and_the_next_event_runs(host):
    node = Recorder(wants_flush=True)
    env = host.cluster.add_node("a", node)
    host.start()
    env.local_deliver("a", "boom")
    env.local_deliver("a", "after")
    assert host.wait_for(lambda: ("msg", "a", "after") in node.events)
    errors = host.cluster.errors()
    assert [str(exc) for exc in errors] == ["boom"]
    # The raising handler skipped its flush; the next one flushed.
    assert node.events == ["start", "flush", ("msg", "a", "after"), "flush"]


def test_posts_to_or_from_a_dropped_node_are_ignored(host):
    a, b, c = Recorder(), Recorder(), Recorder()
    env_a = host.cluster.add_node("a", a)
    env_b = host.cluster.add_node("b", b)
    host.cluster.add_node("c", c)
    host.cluster.drop_node("b")
    host.start()
    env_a.send("b", "to-dropped")
    env_b.send("c", "from-dropped")
    env_b.set_timer("t", 1_000)
    env_a.send("c", "live")
    assert host.wait_for(lambda: ("msg", "a", "live") in c.events)
    host.settle(0.1)
    assert c.events == ["start", ("msg", "a", "live")]
    assert [e for e in b.events if e != "start"] == []


def test_aio_posts_to_unhosted_nodes_leave_through_remote():
    sent = []
    cluster = AioCluster(remote=lambda *frame: sent.append(frame))
    env = cluster.add_node("a", Recorder())
    env.send("elsewhere", "x")
    env.send("a", "local")
    assert sent == [("a", "elsewhere", "x")]
    assert not cluster.mailboxes_empty()  # the local post is queued
