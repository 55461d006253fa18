"""Canonical message digests.

Digests are the unit of agreement: CLBFT agrees on request digests and the
Perpetual responder matches replies by digest. Both replicas of any
correct pair must compute the same digest for the same logical message, so
digests are always taken over :func:`repro.common.encoding.canonical_encode`
output.

A :class:`~repro.common.encoding.WireBlob` answers from its memoized
digest, so code that already encoded a message (a multicast, a stored
reply) never hashes the same bytes twice.

Values that never reach the wire (match keys, the reply-voucher MAC
input) need only be injective, so :func:`key_bytes` frames them directly.
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.common.encoding import WireBlob, canonical_encode
from repro.common.ids import RequestId, ServiceId
from repro.common.metrics import METRICS

DIGEST_BYTES = 32


def digest(obj: Any) -> bytes:
    """SHA-256 digest of the canonical encoding of ``obj``."""
    if type(obj) is WireBlob:
        return obj.digest  # memoized; metrics counted by the blob
    if isinstance(obj, bytes):
        data = obj
    else:
        data = canonical_encode(obj)
    METRICS.digest_calls += 1
    return hashlib.sha256(data).digest()


def digest_hex(obj: Any) -> str:
    """Hex form of :func:`digest`, convenient for logs and dict keys."""
    return digest(obj).hex()


def key_bytes(*parts: Any) -> bytes:
    """Injective framing of ``parts``: each is a type tag, a byte length
    and its bytes. Strings, bytes, ints, bools, :class:`RequestId` and
    :class:`ServiceId` are framed directly; anything else (``None``, a
    dict result) is canonically encoded."""
    out: list[bytes] = []
    for part in parts:
        if isinstance(part, str):
            tag, data = b"s", part.encode("utf-8", "surrogatepass")
        elif isinstance(part, bytes):
            tag, data = b"b", part
        elif isinstance(part, int):
            tag = b"?" if isinstance(part, bool) else b"i"
            data = b"%d" % part
        elif type(part) is RequestId:
            tag, data = b"R", key_bytes(part.origin, part.seqno)
        elif type(part) is ServiceId:
            tag, data = b"S", key_bytes(part.name)
        else:
            from repro.clbft.messages import encode_message  # import cycle

            tag, data = b"e", encode_message(part)
        out += (b"%s%d:" % (tag, len(data)), data)
    return b"".join(out)


def key_digest(*parts: Any) -> bytes:
    """SHA-256 of :func:`key_bytes` — a match key without an encode."""
    METRICS.digest_calls += 1
    return hashlib.sha256(key_bytes(*parts)).digest()
