"""The benchmark's load generator and its reply check.

``perfbench_caller`` is registered with :func:`repro.scenario.register_app`
and drives a closed loop against the ``counter`` service: at most
``window`` calls outstanding, ``total_calls`` calls in all. Every caller
replica runs the same generator (the protocol needs their requests to
match), and each records, per call, the wall-clock time from issue to
reply in integer microseconds. The runtime reads the observer replica's
record through the app probe (``ServiceMetrics.app``). The probe stays
small until the loop has finished, because the process substrate polls
it several times a second.

The reply check (:func:`check_replies`) takes plain data and returns the
failed calls with what was wrong, so the benchmark can run it on
corrupted streams at start up and see it fire (:func:`self_test`).
"""

from __future__ import annotations

import functools
import random
import time

from repro.scenario import BuiltApp, register_app
from repro.ws.api import MessageContext, MessageHandler
from spans import TRACER

APP_KIND = "perfbench_caller"

#: Bytes of seeded filler carried in each request body.
PAYLOAD_CHARS = 32


@functools.lru_cache(maxsize=4)
def request_bodies(seed: int, total_calls: int) -> tuple[dict, ...]:
    """The request bodies one round sends: the seed is the only input.

    Cached, so rounds after the first (and forked workers) do not pay
    for generating them inside ``deploy``."""
    rng = random.Random(seed)
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
    return tuple(
        {"seq": i, "pad": "".join(rng.choice(alphabet) for _ in range(PAYLOAD_CHARS))}
        for i in range(total_calls)
    )


class CallRecord:
    """What the observer caller saw: per-call latency and reply values."""

    def __init__(self, total_calls: int) -> None:
        self.total_calls = total_calls
        self.latency_us: list[int] = []
        self.counters: list = []
        self.faults = 0
        self.malformed = 0
        self.first_issue_ns = 0
        self.last_reply_ns = 0

    def issued(self, seq: int) -> int:
        TRACER.call = seq
        now = time.perf_counter_ns()
        if not self.first_issue_ns:
            self.first_issue_ns = now
        return now

    def replied(self, issued_ns: int, reply) -> None:
        now = time.perf_counter_ns()
        self.last_reply_ns = now
        self.latency_us.append((now - issued_ns) // 1000)
        if reply.is_fault:
            self.faults += 1
            return
        body = reply.body
        counter = body.get("counter") if isinstance(body, dict) else None
        if not isinstance(counter, int) or body.get("old") != counter - 1:
            self.malformed += 1
        self.counters.append(counter)

    def probe(self) -> dict:
        done = len(self.latency_us) >= self.total_calls
        out = {"completed": len(self.latency_us), "faults": self.faults, "done": done}
        if done:
            out.update(
                latency_us=list(self.latency_us),
                counters=list(self.counters),
                malformed=self.malformed,
                wall_us=(self.last_reply_ns - self.first_issue_ns) // 1000,
            )
        return out


def closed_loop(target: str, bodies: tuple[dict, ...], window: int, record: CallRecord):
    """Generator app body: at most ``window`` calls outstanding.

    Window 1 uses the synchronous ``send_receive`` exchange; wider
    windows issue with ``send`` and consume with ``receive_reply``.
    """
    if window == 1:
        for body in bodies:
            issued_ns = record.issued(body["seq"])
            reply = yield MessageHandler.send_receive(MessageContext(to=target, body=dict(body)))
            record.replied(issued_ns, reply)
        return
    issued_at: dict[str, int] = {}
    pending = iter(bodies)
    outstanding = 0
    done = 0
    while done < len(bodies):
        body = next(pending, None) if outstanding < window else None
        if body is not None:
            issued_ns = record.issued(body["seq"])
            message_id = yield MessageHandler.send(MessageContext(to=target, body=dict(body)))
            issued_at[message_id] = issued_ns
            outstanding += 1
            continue
        reply = yield MessageHandler.receive_reply()
        record.replied(issued_at.pop(reply.relates_to), reply)
        outstanding -= 1
        done += 1


@register_app(APP_KIND)
def _build(params: dict) -> BuiltApp:
    """One record per caller replica; the probe reports the first replica
    to start, which is replica 0 (nodes start in replica order on the
    in-process substrates, and a process worker hosts one replica)."""
    total_calls = int(params["total_calls"])
    bodies = request_bodies(int(params["seed"]), total_calls)
    records: list[CallRecord] = []

    def app():
        record = CallRecord(total_calls)
        records.append(record)
        yield from closed_loop(params["target"], bodies, int(params["window"]), record)

    def probe() -> dict:
        if not records:
            return {"completed": 0, "faults": 0, "done": False}
        return records[0].probe()

    return BuiltApp(factory=app, probe=probe)


def check_replies(
    app: dict, total_calls: int, strictly_rising: bool
) -> tuple[int, list[str]]:
    """Failed calls of one round and what was wrong with them.

    The ``counter`` service answers the i-th increment it executes with
    ``counter = i``, so the replies of one round must carry 1..N exactly
    once; with one call outstanding they must also arrive in order. A
    call that never completed, returned a fault, carried a malformed,
    duplicate or out-of-range value, or arrived out of order counts as
    failed.
    """
    completed = int(app.get("completed", 0))
    if not app.get("done"):
        return total_calls, [f"only {completed} of {total_calls} calls completed"]
    counters = app.get("counters", [])
    seen = [c for c in counters if isinstance(c, int)]
    expected = range(1, total_calls + 1)
    missing = len(set(expected) - set(seen))
    duplicates = len(seen) - len(set(seen))
    stray = sum(1 for c in seen if c not in expected)
    unordered = (
        sum(1 for a, b in zip(seen, seen[1:]) if b <= a) if strictly_rising else 0
    )
    checks = [
        (app.get("faults", 0), "calls returned a fault"),
        (app.get("malformed", 0), "replies had old != counter - 1"),
        (missing, f"values of 1..{total_calls} never came back"),
        (duplicates, "counter values came back twice"),
        (stray, f"counter values fell outside 1..{total_calls}"),
        (unordered, "replies did not rise strictly"),
    ]
    problems = [f"{count} {what}" for count, what in checks if count]
    good = len(set(seen) & set(expected)) - app.get("malformed", 0) - unordered
    return total_calls - max(0, good), problems


def self_test() -> None:
    """Feed the check corrupted reply streams; raise if it stays silent."""
    good = {"done": True, "completed": 4, "faults": 0, "malformed": 0,
            "counters": [1, 2, 3, 4]}
    corrupted = {
        "gap": dict(good, counters=[1, 2, 4, 4]),
        "duplicate": dict(good, counters=[1, 2, 2, 3]),
        "stray": dict(good, counters=[1, 2, 3, 5]),
        "fault": dict(good, faults=1, counters=[1, 2, 3]),
        "malformed": dict(good, malformed=1),
        "unfinished": dict(good, done=False),
        "reordered": dict(good, counters=[1, 3, 2, 4]),
    }
    if check_replies(good, 4, strictly_rising=True) != (0, []):
        raise AssertionError("reply check rejects a correct stream")
    for name, app in corrupted.items():
        failed, problems = check_replies(app, 4, strictly_rising=True)
        if not failed or not problems:
            raise AssertionError(f"reply check missed a {name} stream")
