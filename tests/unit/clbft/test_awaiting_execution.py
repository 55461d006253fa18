"""``ClbftReplica._awaiting_execution``: the view-change timer's guard.

Once execution has passed the highest pre-prepared seqno, the answer is
known without scanning the log; otherwise the scan decides. Both paths
must give exactly what a full scan gives, or the timer would arm (or
cancel) differently.
"""

from repro.clbft.messages import PrePrepare
from tests.unit.clbft.harness import Group


def scanned(replica) -> bool:
    """The full-scan definition the fast path must agree with."""
    last_executed = replica.log.last_executed
    return bool(replica._pending) or any(
        not entry.executed and entry.pre_prepare is not None
        and seqno > last_executed
        for (_view, seqno), entry in replica.log._entries.items()
    )


class _NoScan(dict):
    def items(self):
        raise AssertionError("log scanned")


def deliver_checking(group: Group) -> int:
    """Deliver every queued message, comparing both definitions on every
    replica after each step; returns the number of steps taken."""
    steps = 0
    while group.bus.queue:
        src, dst, msg = group.bus.queue.pop(0)
        group.replicas[dst].on_message(src, msg)
        steps += 1
        for replica in group.replicas:
            assert replica._awaiting_execution() == scanned(replica)
    return steps


class TestAwaitingExecution:
    def test_idle_replica_answers_without_scanning(self):
        group = Group(4)
        for k in range(5):
            group.submit({"k": k}, timestamp=k + 1)
        group.deliver_all()
        for replica in group.replicas:
            assert replica.log.last_executed == 5
            replica.log._entries = _NoScan(replica.log._entries)
            assert replica._awaiting_execution() is False

    def test_matches_scan_through_normal_case(self):
        group = Group(4)
        for k in range(6):
            group.submit({"k": k}, timestamp=k + 1)
            assert deliver_checking(group) > 0

    def test_matches_scan_through_view_change(self):
        group = Group(4)
        group.submit({"op": "first"}, timestamp=1)
        deliver_checking(group)
        # The view-0 primary pre-prepares to replica 1 only, then goes
        # mute: replica 1 holds a pre-prepared entry that never executes
        # in view 0.
        group.bus.drop = lambda src, dst, msg: src == 0 and dst != 1
        group.submit({"op": "second"}, timestamp=2)
        deliver_checking(group)
        assert group.replicas[1]._awaiting_execution()
        group.bus.drop = lambda src, dst, msg: src == 0
        for i in range(1, 4):
            group.fire_timer(i)
        deliver_checking(group)
        for i in range(1, 4):
            assert group.executed_ops(i) == [{"op": "first"}, {"op": "second"}]
            assert group.replicas[i]._awaiting_execution() is False

    def test_matches_scan_when_new_view_carries_the_pre_prepare(self):
        group = Group(4)
        group.submit({"op": "first"}, timestamp=1)
        deliver_checking(group)
        # Replicas 1 and 2 prepare seqno 2; replica 3 never sees its
        # pre-prepare and learns it only from the view-1 NewView.
        group.bus.drop = lambda src, dst, msg: src == 0 and not (
            isinstance(msg, PrePrepare) and dst in (1, 2)
        )
        group.submit({"op": "second"}, timestamp=2)
        deliver_checking(group)
        assert group.executed_ops(3) == [{"op": "first"}]
        for i in range(1, 4):
            group.fire_timer(i)
        deliver_checking(group)
        for i in range(1, 4):
            assert group.executed_ops(i) == [{"op": "first"}, {"op": "second"}]
