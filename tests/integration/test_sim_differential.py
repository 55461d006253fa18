"""Integration: the sim kernel's scheduling leaves every model output alone.

``tests/data/sim_outputs_pr12.json`` holds the full ``ScenarioMetrics`` of
each cell below, taken from the kernel that requeued every waiting handler
on the heap (before the per-host ready queue). Only the two counters that
measure the kernel's own work, ``events_processed`` and
``heap_compactions``, are left out. Every other field — per-service
completions, issue and completion times, the finishing clock, and every
wire/crypto/codec counter — must match exactly. ``encode_calls`` and
``digest_calls`` were refreshed, and only they, when match keys and the
reply-voucher MAC input stopped going through the codec.

The windowed two-tier cells are where most handlers wait for a busy host
CPU, so they are the regime the ready queue changes.
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.scenario.presets import PRESETS, two_tier_scenario
from repro.scenario.runtime import run_scenario

EXPECTED = json.loads(
    (Path(__file__).parent.parent / "data" / "sim_outputs_pr12.json").read_text()
)

CELLS = {
    f"two-tier-w{window}-{batching}": (
        lambda window=window, batching=batching: two_tier_scenario(
            4, 4, total_calls=120, window=window, batching=batching
        )
    )
    for window in (1, 4, 10, 20)
    for batching in ("off", "tick")
}
CELLS.update(
    (name, PRESETS[name])
    for name in ("async-window", "chaos-partition-heal", "chaos-slow-drip")
)


def test_fixture_covers_every_cell():
    assert set(EXPECTED) == set(CELLS)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_outputs_match_requeue_kernel(name):
    data = asdict(run_scenario(CELLS[name](), runtime="sim"))
    del data["events_processed"]
    del data["counters"]["events_processed"]
    del data["counters"]["heap_compactions"]
    assert data == EXPECTED[name]
