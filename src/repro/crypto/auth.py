"""CLBFT-style authenticator vectors.

With MACs, a sender cannot produce one token every receiver can check, so
CLBFT multicasts carry an *authenticator*: a vector with one MAC per
receiver, each computed under the pairwise key. A receiver verifies only
its own entry. Reply bundles forwarded by the Perpetual responder (Figure
1, stage 6) carry the original per-replica authenticators so calling
drivers can verify that ``ft + 1`` distinct target replicas vouched for
the reply even though the bundle travelled through a single — possibly
faulty — responder.

Fast-path notes: the wire form of an authenticator stays the frozen,
hashable ``entries`` tuple, but lookups go through a dict index built once
per authenticator, and signing hashes the payload once (or reuses a
:class:`~repro.common.encoding.WireBlob`'s memoized digest) and derives
every receiver's tag from that 32-byte digest. A factory keeps one HMAC
key schedule (:func:`~repro.crypto.mac.mac_key`) per peer, so each tag
costs two short SHA-256 steps rather than a full HMAC key setup.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.encoding import WireBlob
from repro.common.errors import AuthenticationError
from repro.common.ids import NodeId
from repro.common.metrics import METRICS
from repro.crypto.digest import digest
from repro.crypto.keys import KeyStore
from repro.crypto.mac import mac_key, mac_over_digest, verify_mac_over_digest


@dataclass(frozen=True)
class Authenticator:
    """One sender's MAC vector over a message digest.

    ``entries`` maps the *receiver's* string form to the MAC computed under
    the (sender, receiver) pair key. The tuple is the stable wire/equality
    form; ``mac_for`` answers from a dict built once at construction.
    """

    sender: str
    entries: tuple[tuple[str, bytes], ...]

    def __post_init__(self) -> None:
        # Not a dataclass field: excluded from eq/hash/repr and from the
        # wire form, purely an O(1) lookup index over ``entries``.
        object.__setattr__(
            self, "_index", {name: tag for name, tag in self.entries}
        )

    def mac_for(self, receiver: NodeId | str) -> bytes | None:
        return self._index.get(str(receiver))


# SHA-256 of the authenticated bytes; handles bytes and WireBlob with the
# blob's memoized digest and the shared metrics accounting.
_payload_digest = digest


class AuthenticatorFactory:
    """Creates and verifies authenticators for one local principal."""

    def __init__(self, keys: KeyStore, me: NodeId | str) -> None:
        self._keys = keys
        self._me = str(me)
        # HMAC key schedules of this principal's pair keys, by peer
        # string: the store's name ordering and the HMAC pad setup run
        # once per peer instead of on every MAC of a vector.
        self._key_cache: dict[str, tuple] = {}

    def _pair_key(self, other: str) -> tuple:
        schedule = self._key_cache.get(other)
        if schedule is None:
            schedule = self._key_cache[other] = mac_key(
                self._keys.pair_key(self._me, other)
            )
        return schedule

    @property
    def principal(self) -> str:
        return self._me

    def sign(
        self, data: bytes | WireBlob, receivers: list[NodeId | str]
    ) -> Authenticator:
        """Authenticator over ``data`` for every receiver in order.

        Batched construction: the payload is hashed once and each
        receiver's tag is an HMAC over the cached digest, so the per-
        receiver cost does not re-touch the payload bytes.
        """
        prehash = _payload_digest(data)
        pair_key = self._pair_key
        entries = tuple(
            (name, mac_over_digest(pair_key(name), prehash))
            for name in map(str, receivers)
        )
        return Authenticator(sender=self._me, entries=entries)

    def verify(self, data: bytes | WireBlob, auth: Authenticator) -> bool:
        """Check the entry addressed to *me* in ``auth``."""
        return self.verify_prehashed(_payload_digest(data), auth)

    def verify_prehashed(self, data_digest: bytes, auth: Authenticator) -> bool:
        """Like :meth:`verify` but against a precomputed payload digest
        (an envelope shared by several receivers is hashed only once)."""
        tag = auth.mac_for(self._me)
        if tag is None:
            return False
        METRICS.mac_verifications += 1
        key = self._pair_key(auth.sender)
        return verify_mac_over_digest(key, data_digest, tag)

    def require(self, data: bytes | WireBlob, auth: Authenticator) -> None:
        """Like :meth:`verify` but raises :class:`AuthenticationError`."""
        if not self.verify(data, auth):
            raise AuthenticationError(
                f"{self._me}: bad authenticator from {auth.sender}"
            )
