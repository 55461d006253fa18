"""Point-to-point message authentication codes (HMAC-SHA256).

The paper uses MDx-MAC over the SSL channel; the concrete primitive is
irrelevant to the protocol, so we use HMAC-SHA256 from the standard
library. What matters — and what this module preserves — is that a MAC is
verifiable only by the key-sharing pair, unlike a signature, which is what
forces CLBFT's authenticator-vector design.

MACs are taken over the SHA-256 *digest* of the data rather than the data
itself. Both ends use the same construction, so verifiability is
unchanged, and an authenticator vector for ``n`` receivers hashes the
payload once and derives all ``n`` tags from the cached 32-byte digest —
the batched MAC-vector construction of the wire fast path.

Every MAC runs from a :func:`mac_key` schedule, built once per key (the
authenticator factory keeps one per peer), so a tag costs two short
SHA-256 steps; it equals ``hmac.digest(key, data_digest, "sha256")``
truncated to :data:`MAC_BYTES`.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.common.metrics import METRICS

MAC_BYTES = 16

_BLOCK_BYTES = 64  # SHA-256 block size
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


def mac_key(key: bytes) -> tuple:
    """HMAC-SHA256 key schedule: ``(inner, outer)`` SHA-256 states that
    have absorbed the block-padded key XOR ipad and XOR opad."""
    if len(key) > _BLOCK_BYTES:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_BLOCK_BYTES, b"\0")
    return (
        hashlib.sha256(key.translate(_IPAD)),
        hashlib.sha256(key.translate(_OPAD)),
    )


def mac_over_digest(schedule: tuple, data_digest: bytes) -> bytes:
    """MAC of pre-digested data, truncated to :data:`MAC_BYTES`.

    ``schedule`` is a :func:`mac_key` result; ``data_digest`` must be the
    SHA-256 digest of the authenticated bytes. Callers holding a
    :class:`~repro.common.encoding.WireBlob` pass its memoized digest so a
    multicast hashes the payload exactly once.
    """
    METRICS.mac_computations += 1
    inner = schedule[0].copy()
    inner.update(data_digest)
    outer = schedule[1].copy()
    outer.update(inner.digest())
    return outer.digest()[:MAC_BYTES]


def compute_mac(key: bytes, data: bytes) -> bytes:
    """MAC of ``data`` under ``key``, truncated to :data:`MAC_BYTES`."""
    METRICS.digest_calls += 1
    return mac_over_digest(mac_key(key), hashlib.sha256(data).digest())


def verify_mac(key: bytes, data: bytes, tag: bytes) -> bool:
    """Constant-time verification of ``tag`` over ``data``."""
    return hmac.compare_digest(compute_mac(key, data), tag)


def verify_mac_over_digest(
    schedule: tuple, data_digest: bytes, tag: bytes
) -> bool:
    """Constant-time verification against a precomputed data digest."""
    return hmac.compare_digest(mac_over_digest(schedule, data_digest), tag)
