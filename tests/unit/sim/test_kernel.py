"""Unit tests for the discrete-event kernel."""

import pytest

from repro.common.errors import SimulationError
from repro.sim.kernel import ProtocolNode, Simulator
from repro.sim.network import UniformLatency


class Recorder(ProtocolNode):
    """Test node that logs everything it sees."""

    def __init__(self, cpu_us_per_message: int = 0):
        self.messages = []
        self.timers = []
        self.started = False
        self.cpu_us = cpu_us_per_message
        self.env = None

    def on_start(self):
        self.started = True

    def on_message(self, src, msg):
        if self.cpu_us:
            self.env.charge(self.cpu_us)
        self.messages.append((str(src), msg, self.env.now_us()))

    def on_timer(self, tag):
        self.timers.append((tag, self.env.now_us()))


def make_node(sim, name, cpu_us=0, host=None):
    node = Recorder(cpu_us)
    node.env = sim.add_node(name, node, host=host)
    return node


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(30, lambda: order.append("c"))
        sim.schedule(10, lambda: order.append("a"))
        sim.schedule(20, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_run_in_schedule_order(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.schedule(10, lambda i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_run_until_bounds_clock(self):
        sim = Simulator()
        sim.schedule(100, lambda: None)
        sim.schedule(5_000, lambda: None)
        sim.run(until_us=1_000)
        assert sim.now_us == 1_000

    def test_run_until_quiescent_sets_clock_to_deadline(self):
        sim = Simulator()
        sim.run(until_us=500)
        assert sim.now_us == 500

    def test_max_events_budget(self):
        sim = Simulator()
        count = []
        for _ in range(10):
            sim.schedule(1, lambda: count.append(1))
        processed = sim.run(max_events=4)
        assert processed == 4
        assert len(count) == 4

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(50, lambda: None)


class TestMessaging:
    def test_message_delivery_with_latency(self):
        sim = Simulator()
        sim.set_network(UniformLatency(25))
        a = make_node(sim, "a")
        b = make_node(sim, "b")
        a.env.send("b", "hello")
        sim.run()
        assert b.messages == [("a", "hello", 25)]

    def test_local_delivery_is_instant(self):
        sim = Simulator()
        sim.set_network(UniformLatency(1_000))
        a = make_node(sim, "a")
        b = make_node(sim, "b")
        a.env.local_deliver("b", "hi")
        sim.run()
        assert b.messages[0][2] == 0

    def test_message_to_unknown_node_is_dropped(self):
        sim = Simulator()
        sim.set_network(UniformLatency(0))
        a = make_node(sim, "a")
        a.env.send("ghost", "x")
        sim.run()  # must not raise

    def test_duplicate_node_id_rejected(self):
        sim = Simulator()
        make_node(sim, "a")
        with pytest.raises(SimulationError):
            make_node(sim, "a")

    def test_on_start_invoked_once(self):
        sim = Simulator()
        a = make_node(sim, "a")
        sim.run()
        sim.run()
        assert a.started


class TestCpuAccounting:
    def test_charge_serialises_handling_on_one_host(self):
        sim = Simulator()
        sim.set_network(UniformLatency(0))
        make_node(sim, "src")
        busy = make_node(sim, "busy", cpu_us=100)
        src = sim.env("src")
        src.send("busy", 1)
        src.send("busy", 2)
        src.send("busy", 3)
        sim.run()
        start_times = [t for (_, _, t) in busy.messages]
        # Third message can't start until 200us of prior work finished;
        # now_us inside the handler includes its own charge.
        assert start_times == [100, 200, 300]

    def test_co_located_nodes_share_cpu(self):
        sim = Simulator()
        sim.set_network(UniformLatency(0))
        make_node(sim, "src")
        v = make_node(sim, "host/voter", cpu_us=100, host="host")
        d = make_node(sim, "host/driver", cpu_us=100, host="host")
        src = sim.env("src")
        src.send("host/voter", "a")
        src.send("host/driver", "b")
        sim.run()
        all_times = sorted(
            t for node in (v, d) for (_, _, t) in node.messages
        )
        assert all_times == [100, 200]

    def test_distinct_hosts_run_in_parallel(self):
        sim = Simulator()
        sim.set_network(UniformLatency(0))
        make_node(sim, "src")
        a = make_node(sim, "a", cpu_us=100)
        b = make_node(sim, "b", cpu_us=100)
        src = sim.env("src")
        src.send("a", 1)
        src.send("b", 1)
        sim.run()
        assert a.messages[0][2] == 100
        assert b.messages[0][2] == 100

    def test_sends_depart_at_charge_point(self):
        sim = Simulator()
        sim.set_network(UniformLatency(0))

        class Relay(ProtocolNode):
            def __init__(self):
                self.env = None

            def on_message(self, src, msg):
                self.env.charge(50)
                self.env.send("sink", "early")
                self.env.charge(50)
                self.env.send("sink", "late")

            def on_timer(self, tag):
                pass

        relay = Relay()
        relay.env = sim.add_node("relay", relay)
        sink = make_node(sim, "sink")
        make_node(sim, "src")
        sim.env("src").send("relay", "go")
        sim.run()
        times = {msg: t for (_, msg, t) in sink.messages}
        assert times["early"] == 50
        assert times["late"] == 100


class TestTimers:
    def test_timer_fires_once(self):
        sim = Simulator()
        a = make_node(sim, "a")
        a.env.set_timer("t", 100)
        sim.run()
        assert a.timers == [("t", 100)]

    def test_rearm_replaces(self):
        sim = Simulator()
        a = make_node(sim, "a")
        a.env.set_timer("t", 100)
        a.env.set_timer("t", 300)
        sim.run()
        assert a.timers == [("t", 300)]

    def test_cancel(self):
        sim = Simulator()
        a = make_node(sim, "a")
        a.env.set_timer("t", 100)
        a.env.cancel_timer("t")
        sim.run()
        assert a.timers == []

    def test_timer_armed_query(self):
        sim = Simulator()
        a = make_node(sim, "a")
        a.env.set_timer("t", 100)
        assert a.env.timer_armed("t")
        a.env.cancel_timer("t")
        assert not a.env.timer_armed("t")

    def test_distinct_tags_coexist(self):
        sim = Simulator()
        a = make_node(sim, "a")
        a.env.set_timer("x", 100)
        a.env.set_timer("y", 50)
        sim.run()
        assert [tag for tag, _ in a.timers] == ["y", "x"]


class Worker(ProtocolNode):
    """Logs ``(label, start_us)`` for every handler, then charges
    ``costs.get(label, default_us)`` of CPU."""

    def __init__(self, log, costs=None, default_us=0):
        self.log = log
        self.costs = costs or {}
        self.default_us = default_us
        self.env = None

    def _run(self, label):
        self.log.append((label, self.env.now_us()))
        self.env.charge(self.costs.get(label, self.default_us))

    def on_message(self, src, msg):
        self._run(msg)

    def on_timer(self, tag):
        self._run(tag)


def make_worker(sim, name, log, host=None, **kw):
    node = Worker(log, **kw)
    node.env = sim.add_node(name, node, host=host)
    return node


def send_at(sim, time_us, src, dst, msg):
    sim.schedule_at(time_us, lambda: sim.env(src).send(dst, msg))


class TestReadyQueue:
    """Handlers that find their host CPU busy wait in one FIFO per host."""

    def test_waiting_handlers_start_back_to_back_in_arrival_order(self):
        sim = Simulator()
        sim.set_network(UniformLatency(0))
        make_node(sim, "src")
        log = []
        make_worker(sim, "busy", log, costs={"first": 1_000}, default_us=100)
        send_at(sim, 0, "src", "busy", "first")
        labels = ["m3", "m0", "m4", "m1", "m2"]
        for i, label in enumerate(labels):
            send_at(sim, 10 * (i + 1), "src", "busy", label)
        sim.run()
        assert log == [("first", 0)] + [
            (label, 1_000 + 100 * i) for i, label in enumerate(labels)
        ]

    def test_zero_charge_head_lets_next_waiter_start_same_microsecond(self):
        # "a" and "b" queue behind "first" until 150. "late" reaches the
        # host at 150 too, but was scheduled after the wake. "a" charges
        # nothing, so "b" still starts at 150 and "late" waits behind it
        # (tie rule 2).
        sim = Simulator()
        sim.set_network(UniformLatency(50))
        make_node(sim, "src")
        log = []
        make_worker(sim, "h", log, costs={"first": 100, "b": 50})
        send_at(sim, 0, "src", "h", "first")
        send_at(sim, 10, "src", "h", "a")
        send_at(sim, 20, "src", "h", "b")
        send_at(sim, 100, "src", "h", "late")
        sim.run()
        assert log == [("first", 50), ("a", 150), ("b", 150), ("late", 200)]

    def test_arrival_ahead_of_wake_that_finds_cpu_taken_goes_first(self):
        # Timers "p" and "q" are due at 100 and were scheduled before "w"
        # queued (so before the wake). "p" takes the free CPU; "q" then
        # finds it taken and goes ahead of "w" (tie rule 3).
        sim = Simulator()
        sim.set_network(UniformLatency(0))
        make_node(sim, "src")
        log = []
        h = make_worker(sim, "h", log, costs={"first": 100}, default_us=10)
        h.env.set_timer("p", 100)
        h.env.set_timer("q", 100)
        send_at(sim, 0, "src", "h", "first")
        send_at(sim, 0, "src", "h", "w")
        sim.run()
        assert log == [("first", 0), ("p", 100), ("q", 110), ("w", 120)]

    def test_voter_and_driver_on_one_host_share_one_queue(self):
        sim = Simulator()
        sim.set_network(UniformLatency(0))
        make_node(sim, "src")
        log = []
        costs = {"busy": 100}
        make_worker(sim, "r0/voter", log, host="r0", costs=costs, default_us=10)
        make_worker(sim, "r0/driver", log, host="r0", costs=costs, default_us=10)
        send_at(sim, 0, "src", "r0/voter", "busy")
        send_at(sim, 10, "src", "r0/driver", "d1")
        send_at(sim, 20, "src", "r0/voter", "v1")
        send_at(sim, 30, "src", "r0/driver", "d2")
        send_at(sim, 40, "src", "r0/voter", "v2")
        sim.run()
        assert log == [
            ("busy", 0), ("d1", 100), ("v1", 110), ("d2", 120), ("v2", 130)
        ]

    def _queued_burst(self, log, k):
        sim = Simulator()
        sim.set_network(UniformLatency(0))
        make_node(sim, "src")
        make_worker(sim, "busy", log, default_us=10)
        for i in range(k):
            send_at(sim, 0, "src", "busy", i)
        return sim

    def test_max_events_stops_exactly_at_budget(self):
        full_log = []
        full = self._queued_burst(full_log, 10)
        total = full.run()
        stepped_log = []
        stepped = self._queued_burst(stepped_log, 10)
        assert stepped.run(max_events=7) == 7
        assert stepped.events_processed == 7
        while stepped.run(max_events=1) == 1:
            pass
        assert stepped.events_processed == total
        assert stepped_log == full_log
        assert [t for _, t in full_log] == [10 * i for i in range(10)]

    def test_queued_handlers_cost_a_constant_number_of_events(self):
        k = 200
        log = []
        sim = self._queued_burst(log, k)
        sim.run()
        assert [label for label, _ in log] == list(range(k))
        assert sim.events_processed < 4 * k
