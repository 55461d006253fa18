"""The live runtime substrates: real threads and asyncio event loops.

This package hosts the *same protocol nodes* the simulator runs, on
real threads (:mod:`repro.runtime.cluster`) or asyncio event loops
(:mod:`repro.runtime.aio`), demonstrating that the sans-IO protocol
layer is substrate-independent (the ChannelAdapter / Connection split
of paper section 2.1.2). Both clusters hand nodes the one live env and
handler step of :mod:`repro.runtime.host`; the asyncio cluster also
runs inside every ``process`` worker. The threaded cluster gives the
integration tests a genuinely concurrent environment — messages race,
timers fire asynchronously, and the protocol must still converge.

Deployments should not wire these clusters by hand: the single entry
point is the declarative scenario API — build a
:class:`repro.scenario.ScenarioSpec` and execute it with
``run_scenario(spec, runtime="threaded")`` (or ``"asyncio"`` /
``"process"``; see :mod:`repro.scenario.threaded`,
:mod:`repro.scenario.aio`, and :mod:`repro.scenario.process`).

Contract: shared structures are written under their owning lock or
carry a checked ``guarded-by`` annotation — the LOCK001 discipline of
``docs/analysis.md``, enforced dynamically by
:mod:`repro.runtime.sanitizer` under ``debug_locks=True``.
"""

from repro.runtime.cluster import ThreadedCluster

__all__ = ["ThreadedCluster"]
