"""Deterministic discrete-event simulation substrate.

The paper evaluates Perpetual-WS on a dedicated hardware testbed. This
package is the laptop-scale substitute: protocol nodes are sans-IO state
machines and this kernel supplies everything the testbed did —

- a virtual clock with microsecond resolution (:mod:`repro.sim.kernel`),
- per-host CPUs whose FIFO ready queues serialise work and make
  throughput saturate (:mod:`repro.sim.kernel`, :class:`NodeCpu`),
- a network with configurable latency and fault injection
  (:mod:`repro.sim.network`),
- deterministic randomness (:mod:`repro.sim.rng`).

Determinism is total: the same configuration and seed produce the same
event trace, which the replay tests rely on.

Contract: total determinism — same spec and seed, same event trace.
Protocol code reads time and randomness only through this kernel's
surfaces (rules DET001-DET005, ``docs/analysis.md``).
"""

from repro.sim.kernel import Event, Simulator, SimNodeEnv, ProtocolNode
from repro.sim.network import (
    FaultyLink,
    LanModel,
    NetworkModel,
    PartitionModel,
    UniformLatency,
)
from repro.sim.rng import DeterministicRng

__all__ = [
    "DeterministicRng",
    "Event",
    "FaultyLink",
    "LanModel",
    "NetworkModel",
    "PartitionModel",
    "ProtocolNode",
    "SimNodeEnv",
    "Simulator",
    "UniformLatency",
]
