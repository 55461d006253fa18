"""Design-choice ablations.

Two measurable ablations back the paper's architectural arguments:

- **MAC vs digital signatures** (section 3, "Cryptographic overhead"):
  rerun the two-tier micro-benchmark with the signature cost model and
  show throughput collapsing as replica groups grow — the reason
  Perpetual-WS (like Thema) chose MACs.
- **Responder bundling vs all-to-all replies** (Figure 1, stages 5-6):
  count reply-path messages with the responder pattern versus the naive
  ``nt x nc`` full mesh the paper explicitly avoids.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.cost import MAC_COST_MODEL, SIGNATURE_COST_MODEL
from repro.experiments.microbench import MicrobenchResult, run_two_tier


@dataclass(frozen=True)
class CryptoAblationRow:
    n: int
    mac_rps: float
    signature_rps: float

    @property
    def slowdown(self) -> float:
        if self.signature_rps == 0:
            return float("inf")
        return self.mac_rps / self.signature_rps


def crypto_ablation(
    group_sizes: tuple[int, ...] = (1, 4, 7),
    total_calls: int = 60,
) -> list[CryptoAblationRow]:
    """Two-tier throughput under MAC vs signature authentication."""
    rows = []
    for n in group_sizes:
        mac = run_two_tier(n, n, total_calls=total_calls,
                           cost_model=MAC_COST_MODEL)
        sig = run_two_tier(n, n, total_calls=total_calls,
                           cost_model=SIGNATURE_COST_MODEL)
        rows.append(
            CryptoAblationRow(
                n=n,
                mac_rps=mac.throughput_rps,
                signature_rps=sig.throughput_rps,
            )
        )
    return rows


@dataclass(frozen=True)
class ReplyPathRow:
    n_target: int
    n_calling: int

    @property
    def responder_messages(self) -> int:
        """Stage 5 + stage 6: (nt - 1) forwards plus nc bundle sends."""
        return (self.n_target - 1) + self.n_calling

    @property
    def all_to_all_messages(self) -> int:
        """The nt x nc mesh the paper avoids (section 2.1.1)."""
        return self.n_target * self.n_calling

    @property
    def savings_factor(self) -> float:
        return self.all_to_all_messages / max(self.responder_messages, 1)


def reply_path_ablation(
    group_sizes: tuple[int, ...] = (1, 4, 7, 10),
) -> list[ReplyPathRow]:
    """Message counts for the reply path under both designs."""
    return [
        ReplyPathRow(n_target=nt, n_calling=nc)
        for nt in group_sizes
        for nc in group_sizes
    ]
