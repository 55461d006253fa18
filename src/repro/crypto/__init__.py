"""Cryptographic substrate: digests, pairwise MACs, authenticator vectors.

The paper authenticates all communication with Message Authentication
Codes rather than digital signatures because "MAC calculations are three
orders of magnitude faster" (section 3), which is what lets Perpetual-WS
scale to larger replica groups. This package reproduces that design:

- :mod:`repro.crypto.keys`    -- pairwise session keys between principals;
- :mod:`repro.crypto.mac`     -- HMAC-SHA256 point-to-point MACs from
  precomputed per-key schedules;
- :mod:`repro.crypto.auth`    -- CLBFT-style authenticator vectors (one MAC
  per receiver) and verification;
- :mod:`repro.crypto.digest`  -- canonical message digests, and the typed
  key framing for values that never reach the wire;
- :mod:`repro.crypto.cost`    -- the cost model (MAC vs signature) used by
  the simulator's crypto-time accounting and the ablation benchmark.

Contract: digest once — one payload digest per message, memoized on the
blob/envelope; every receiver's MAC tag derives from that single
prehash (rule WIRE002, ``docs/analysis.md``). The batching stage
(``docs/architecture.md``) extends the same economy to one MAC vector
per batch.
"""

from repro.crypto.auth import Authenticator, AuthenticatorFactory
from repro.crypto.cost import CryptoCostModel, MAC_COST_MODEL, SIGNATURE_COST_MODEL
from repro.crypto.digest import digest, digest_hex
from repro.crypto.keys import KeyStore
from repro.crypto.mac import compute_mac, verify_mac

__all__ = [
    "Authenticator",
    "AuthenticatorFactory",
    "CryptoCostModel",
    "KeyStore",
    "MAC_COST_MODEL",
    "SIGNATURE_COST_MODEL",
    "compute_mac",
    "digest",
    "digest_hex",
    "verify_mac",
]
