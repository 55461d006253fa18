"""Bindings of CLBFT replicas and clients to the simulation kernel.

These adapters wire a sans-IO :class:`ClbftReplica` (or
:class:`ClbftClient`) to a :class:`SimNodeEnv` and a
:class:`ChannelAdapter`, yielding deployable simulator nodes. They also
double as reference code for embedding CLBFT in any other runtime — the
Perpetual voter does the same wiring with extra behaviour on top.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.clbft.client import ClbftClient
from repro.clbft.config import GroupConfig
from repro.clbft.messages import (
    ClientRequest,
    Reply,
    decode_message,
    encode_message,
)
from repro.clbft.replica import ClbftReplica
from repro.crypto.cost import CryptoCostModel, MAC_COST_MODEL
from repro.crypto.keys import KeyStore
from repro.sim.kernel import ProtocolNode, SimNodeEnv
from repro.transport.channel import ChannelAdapter
from repro.transport.connection import SimConnection
from repro.transport.wire import WireEnvelope


def replica_name(group: str, index: int) -> str:
    return f"{group}/r{index}"


def client_name(group: str, name: str) -> str:
    return f"{group}/client/{name}"


class ClbftReplicaNode(ProtocolNode):
    """A CLBFT replica as a simulator node."""

    def __init__(
        self,
        group: str,
        index: int,
        config: GroupConfig,
        keys: KeyStore,
        execute: Callable[[int, ClientRequest], Any],
        execute_cost_us: int = 0,
        cost_model: CryptoCostModel = MAC_COST_MODEL,
    ) -> None:
        self.group = group
        self.index = index
        self.config = config
        self._keys = keys
        self._execute_app = execute
        self._execute_cost_us = execute_cost_us
        self._cost_model = cost_model
        self._env: SimNodeEnv | None = None
        self._channel: ChannelAdapter | None = None
        self.replica: ClbftReplica | None = None

    def attach(self, env: SimNodeEnv) -> None:
        self._env = env
        self._channel = ChannelAdapter(
            me=replica_name(self.group, self.index),
            keys=self._keys,
            connection=SimConnection(env),
            charge=env.charge,
            cost_model=self._cost_model,
            encode=encode_message,
            decode=decode_message,
        )
        self.replica = ClbftReplica(
            config=self.config,
            index=self.index,
            execute=self._execute,
            multicast=self._multicast,
            send_to=self._send_to,
            set_timer=env.set_timer,
            cancel_timer=env.cancel_timer,
            send_reply=self._send_reply,
        )

    # -- effect implementations ------------------------------------------

    def _execute(self, seqno: int, request: ClientRequest) -> Any:
        if self._execute_cost_us:
            self._env.charge(self._execute_cost_us)
        return self._execute_app(seqno, request)

    def _peers(self) -> list[str]:
        return [
            replica_name(self.group, i)
            for i in range(self.config.n)
            if i != self.index
        ]

    def _multicast(self, msg: Any) -> None:
        self._channel.multicast(self._peers(), msg)

    def _send_to(self, index: int, msg: Any) -> None:
        if index == self.index:
            self.replica.on_message(index, msg)
            return
        self._channel.send(replica_name(self.group, index), msg)

    def _send_reply(self, client: str, reply: Reply) -> None:
        self._channel.send(client, reply)

    # -- kernel callbacks ---------------------------------------------------

    def on_message(self, src: Any, msg: Any) -> None:
        if not isinstance(msg, WireEnvelope):
            return
        protocol_msg = self._channel.accept(msg)
        if protocol_msg is None:
            return
        sender = self._channel.sender_of(msg)
        if isinstance(protocol_msg, ClientRequest):
            self.replica.submit(protocol_msg)
            return
        src_index = _index_of(sender)
        if src_index is None:
            return
        self.replica.on_message(src_index, protocol_msg)

    def on_timer(self, tag: Any) -> None:
        self.replica.on_timer(tag)


class ClbftClientNode(ProtocolNode):
    """A standalone CLBFT client as a simulator node."""

    def __init__(
        self,
        group: str,
        name: str,
        config: GroupConfig,
        keys: KeyStore,
        on_result: Callable[[int, Any], None] | None = None,
        cost_model: CryptoCostModel = MAC_COST_MODEL,
    ) -> None:
        self.group = group
        self.name = client_name(group, name)
        self.config = config
        self._keys = keys
        self._on_result_cb = on_result or (lambda ts, result: None)
        self._cost_model = cost_model
        self._env: SimNodeEnv | None = None
        self._channel: ChannelAdapter | None = None
        self.client: ClbftClient | None = None
        self.results: dict[int, Any] = {}

    def attach(self, env: SimNodeEnv) -> None:
        self._env = env
        self._channel = ChannelAdapter(
            me=self.name,
            keys=self._keys,
            connection=SimConnection(env),
            charge=env.charge,
            cost_model=self._cost_model,
            encode=encode_message,
            decode=decode_message,
        )
        self.client = ClbftClient(
            name=self.name,
            config=self.config,
            send_to=self._send_to,
            set_timer=env.set_timer,
            cancel_timer=env.cancel_timer,
            on_result=self._on_result,
        )

    def _send_to(self, index: int, msg: Any) -> None:
        self._channel.send(replica_name(self.group, index), msg)

    def _on_result(self, timestamp: int, result: Any) -> None:
        self.results[timestamp] = result
        self._on_result_cb(timestamp, result)

    def invoke(self, op: Any) -> int:
        return self.client.invoke(op)

    def on_message(self, src: Any, msg: Any) -> None:
        if not isinstance(msg, WireEnvelope):
            return
        protocol_msg = self._channel.accept(msg)
        if protocol_msg is None:
            return
        if isinstance(protocol_msg, Reply):
            src_index = _index_of(self._channel.sender_of(msg))
            if src_index is not None:
                self.client.on_reply(src_index, protocol_msg)

    def on_timer(self, tag: Any) -> None:
        self.client.on_timer(tag)


def _index_of(principal: str) -> int | None:
    """Extract the replica index from ``group/rN`` names."""
    _, _, tail = principal.rpartition("/r")
    if not tail.isdigit():
        return None
    return int(tail)

