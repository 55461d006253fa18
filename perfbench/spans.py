"""Span tracing of the protocol layers, installed from outside ``src/``.

:func:`install` wraps the public entry points of each layer (see
:data:`ENTRY_POINTS`) in a span recorder. Methods are wrapped on their
class. A function imported by name is wrapped at every import site, so
each module that holds a reference to it holds the same wrapper: the
wire caches compare codec identities, and a mix of wrapped and bare
references would change what the program does.

A span is ``(entry, start_ns, end_ns, parent, call)``: ``entry`` indexes
:data:`ENTRY_POINTS`, ``parent`` is the index of the enclosing span (-1
at top level) and ``call`` the sequence number of the last call the
observer caller issued. That is the call a span serves when one call is
outstanding; with a window it marks the epoch the span ran in. Spans
stay in memory until :meth:`Tracer.dump` writes them out.

A layer's self time is the duration of its spans minus the part their
child spans cover. Tracing is single-threaded by construction: the
in-process substrates run every node on the benchmark's main thread, and
a process worker traces only its own (forked, single) thread.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time

#: (layer, module, owner, attribute). ``owner`` is a class name, or
#: ``None`` for a module-level function wrapped at every import site.
ENTRY_POINTS: tuple[tuple[str, str, str | None, str], ...] = (
    ("sim", "repro.sim.kernel", "Simulator", "run"),
    ("runtime", "repro.runtime.aio", "AioCluster", "post"),
    ("runtime", "repro.runtime.aio", "AioCluster", "post_timer"),
    ("perpetual", "repro.perpetual.voter", "VoterNode", "on_message"),
    ("perpetual", "repro.perpetual.voter", "VoterNode", "on_timer"),
    ("perpetual", "repro.perpetual.voter", "VoterNode", "on_flush"),
    ("perpetual", "repro.perpetual.driver", "DriverNode", "on_message"),
    ("perpetual", "repro.perpetual.driver", "DriverNode", "on_timer"),
    ("perpetual", "repro.perpetual.driver", "DriverNode", "on_start"),
    ("perpetual", "repro.perpetual.driver", "DriverNode", "on_flush"),
    ("perpetual", "repro.perpetual.executor", "ExecutorRuntime", "step"),
    ("clbft", "repro.clbft.replica", "ClbftReplica", "on_message"),
    ("clbft", "repro.clbft.replica", "ClbftReplica", "on_timer"),
    ("ws", "repro.soap.engine", "SoapEngine", "send_through"),
    ("ws", "repro.soap.engine", "SoapEngine", "receive_through"),
    ("ws", "repro.soap.envelope", "SoapEnvelope", "to_xml"),
    ("ws", "repro.soap.envelope", "SoapEnvelope", "from_xml"),
    ("transport", "repro.transport.channel", "ChannelAdapter", "multicast_to"),
    ("transport", "repro.transport.channel", "ChannelAdapter", "flush"),
    ("transport", "repro.transport.channel", "ChannelAdapter", "accept"),
    ("transport", "repro.transport.channel", "ChannelAdapter", "open_batch"),
    ("crypto", "repro.crypto.auth", "AuthenticatorFactory", "sign"),
    ("crypto", "repro.crypto.auth", "AuthenticatorFactory", "verify_prehashed"),
    ("crypto", "repro.common.encoding", "WireBlob", "digest"),
    ("crypto", "repro.crypto.digest", None, "digest"),
    ("crypto", "repro.crypto.digest", None, "digest_hex"),
    ("codec", "repro.common.encoding", None, "canonical_encode"),
    ("codec", "repro.common.encoding", None, "decode_payload"),
    ("codec", "repro.common.encoding", None, "wire_blob"),
    ("codec", "repro.clbft.messages", None, "encode_message"),
    ("codec", "repro.clbft.messages", None, "decode_message"),
    ("codec", "repro.clbft.messages", None, "message_to_wire"),
    ("codec", "repro.clbft.messages", None, "message_from_wire"),
    ("codec", "repro.transport.wire", None, "envelope_to_wire"),
    ("codec", "repro.transport.wire", None, "envelope_from_wire"),
)

#: Substrate modules whose imports must exist before patching.
SUBSTRATES = (
    "repro.scenario.sim", "repro.scenario.aio", "repro.scenario.process",
    "repro.scenario.threaded",
)

LAYERS = ("sim", "runtime", "perpetual", "clbft", "ws", "transport", "crypto", "codec")

#: Node-handler entry points: one invocation per handled kernel event.
HANDLERS = frozenset(
    i for i, (_, _, owner, attr) in enumerate(ENTRY_POINTS)
    if owner in ("VoterNode", "DriverNode") and attr in ("on_message", "on_timer", "on_start")
)
CLBFT_ON_MESSAGE = next(
    i for i, e in enumerate(ENTRY_POINTS) if e[2:] == ("ClbftReplica", "on_message")
)
RUNTIME_POSTS = frozenset(i for i, e in enumerate(ENTRY_POINTS) if e[0] == "runtime")


class Tracer:
    """In-memory span store plus the few protocol counts spans cannot give."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list = []
        self.stack: list[int] = []
        self.call = -1
        self.preprepares = 0
        self.batched_requests = 0

    def reset(self) -> None:
        self.spans = []
        self.stack = []
        self.call = -1
        self.preprepares = 0
        self.batched_requests = 0

    def summary(self) -> dict:
        """Self time per layer, span counts per entry point, and the
        PrePrepare tallies, as plain JSON-safe data."""
        spans = self.spans
        if self.stack:
            raise RuntimeError(f"{len(self.stack)} spans still open")
        child_ns = [0] * len(spans)
        for entry, start, end, parent, _call in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns = dict.fromkeys(LAYERS, 0)
        counts = [0] * len(ENTRY_POINTS)
        for i, (entry, start, end, _parent, _call) in enumerate(spans):
            self_ns[ENTRY_POINTS[entry][0]] += end - start - child_ns[i]
            counts[entry] += 1
        return {
            "self_ns": self_ns,
            "counts": counts,
            "preprepares": self.preprepares,
            "batched_requests": self.batched_requests,
        }

    def dump(self, path) -> None:
        """Write the spans as gzip'd JSON lines, entry points first."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps({"entry_points": ENTRY_POINTS}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


TRACER = Tracer()


def merge(summaries: list[dict]) -> dict:
    """Sum the summaries of several tracers (one per worker process)."""
    total = {
        "self_ns": dict.fromkeys(LAYERS, 0),
        "counts": [0] * len(ENTRY_POINTS),
        "preprepares": 0,
        "batched_requests": 0,
    }
    for part in summaries:
        for layer, ns in part["self_ns"].items():
            total["self_ns"][layer] += ns
        total["counts"] = [a + b for a, b in zip(total["counts"], part["counts"])]
        total["preprepares"] += part["preprepares"]
        total["batched_requests"] += part["batched_requests"]
    return total


def _span(fn, entry: int, tracer: Tracer):
    clock = time.perf_counter_ns

    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        spans = tracer.spans
        stack = tracer.stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            spans[index] = (entry, start, end, parent, tracer.call)

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", "traced")
    return traced


def _count_preprepares(fn, tracer: Tracer):
    from repro.clbft.messages import PrePrepare

    def counted(self, src_index, msg):
        if tracer.active and type(msg) is PrePrepare:
            tracer.preprepares += 1
            tracer.batched_requests += len(msg.requests)
        return fn(self, src_index, msg)

    return counted


def install(tracer: Tracer = TRACER) -> None:
    """Wrap every entry point in :data:`ENTRY_POINTS` (once per process)."""
    if getattr(install, "done", False):
        return
    # Import every module first, so each import site exists before the
    # functions imported by name are replaced.
    for module_name in SUBSTRATES + tuple(e[1] for e in ENTRY_POINTS):
        importlib.import_module(module_name)
    for entry, (_layer, module_name, owner, attr) in enumerate(ENTRY_POINTS):
        module = importlib.import_module(module_name)
        if owner is None:
            original = getattr(module, attr)
            wrapped = _span(original, entry, tracer)
            _replace_everywhere(original, wrapped)
            continue
        cls = getattr(module, owner)
        raw = cls.__dict__[attr]
        if isinstance(raw, property):
            setattr(cls, attr, property(_span(raw.fget, entry, tracer)))
        elif isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(_span(raw.__func__, entry, tracer)))
        else:
            fn = raw
            if entry == CLBFT_ON_MESSAGE:
                fn = _count_preprepares(fn, tracer)
            setattr(cls, attr, _span(fn, entry, tracer))
    install.done = True


def _replace_everywhere(original, wrapped) -> None:
    """Point every ``repro`` module global that names ``original`` at
    ``wrapped`` (the import sites of a function imported by name)."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)
