"""Unit tests for keys, MACs, authenticators, digests, and cost models."""

import hashlib
import hmac

import pytest

from repro.common.errors import AuthenticationError
from repro.common.ids import RequestId, ServiceId, voter, driver
from repro.crypto.auth import Authenticator, AuthenticatorFactory
from repro.crypto.cost import (
    CryptoCostModel,
    MAC_COST_MODEL,
    SIGNATURE_COST_MODEL,
)
from repro.crypto.digest import (
    DIGEST_BYTES,
    digest,
    digest_hex,
    key_bytes,
    key_digest,
)
from repro.crypto.keys import KeyStore
from repro.crypto.mac import (
    MAC_BYTES,
    compute_mac,
    mac_key,
    mac_over_digest,
    verify_mac,
)


class TestKeyStore:
    def test_pair_key_symmetric(self, keys):
        a, b = voter("s", 0), driver("s", 1)
        assert keys.pair_key(a, b) == keys.pair_key(b, a)

    def test_distinct_pairs_get_distinct_keys(self, keys):
        k1 = keys.pair_key(voter("s", 0), voter("s", 1))
        k2 = keys.pair_key(voter("s", 0), voter("s", 2))
        assert k1 != k2

    def test_deployment_isolation(self):
        k1 = KeyStore.for_deployment("a").pair_key("x", "y")
        k2 = KeyStore.for_deployment("b").pair_key("x", "y")
        assert k1 != k2

    def test_same_deployment_reproducible(self):
        k1 = KeyStore.for_deployment("a").pair_key("x", "y")
        k2 = KeyStore.for_deployment("a").pair_key("x", "y")
        assert k1 == k2

    def test_empty_root_rejected(self):
        with pytest.raises(ValueError):
            KeyStore(b"")

    def test_string_principals_accepted(self, keys):
        assert keys.pair_key("a", "b") == keys.pair_key("b", "a")


class TestMac:
    def test_roundtrip(self):
        key = b"k" * 32
        tag = compute_mac(key, b"payload")
        assert len(tag) == MAC_BYTES
        assert verify_mac(key, b"payload", tag)

    def test_wrong_key_fails(self):
        tag = compute_mac(b"a" * 32, b"payload")
        assert not verify_mac(b"b" * 32, b"payload", tag)

    def test_tampered_data_fails(self):
        key = b"k" * 32
        tag = compute_mac(key, b"payload")
        assert not verify_mac(key, b"payl0ad", tag)

    def test_truncated_tag_fails(self):
        key = b"k" * 32
        tag = compute_mac(key, b"payload")
        assert not verify_mac(key, b"payload", tag[:-1])


class TestMacKeySchedule:
    @pytest.mark.parametrize("length", range(1, 131))
    def test_schedule_matches_stdlib_hmac(self, length):
        # Lengths past the 64-byte SHA-256 block take the hashed-key path.
        key = bytes((7 * i + length) % 256 for i in range(length))
        data_digest = hashlib.sha256(b"payload %d" % length).digest()
        expected = hmac.digest(key, data_digest, "sha256")[:MAC_BYTES]
        assert mac_over_digest(mac_key(key), data_digest) == expected

    def test_schedule_is_reusable(self):
        schedule = mac_key(b"k" * 32)
        first = mac_over_digest(schedule, b"a" * 32)
        mac_over_digest(schedule, b"b" * 32)
        assert mac_over_digest(schedule, b"a" * 32) == first

    def test_compute_mac_is_hmac_over_the_digest(self):
        key = b"k" * 32
        expected = hmac.digest(
            key, hashlib.sha256(b"payload").digest(), "sha256"
        )[:MAC_BYTES]
        assert compute_mac(key, b"payload") == expected


class TestAuthenticator:
    def test_sign_and_verify_per_receiver(self, keys):
        sender = AuthenticatorFactory(keys, voter("s", 0))
        receivers = [voter("s", 1), voter("s", 2), voter("s", 3)]
        auth = sender.sign(b"msg", receivers)
        for receiver in receivers:
            factory = AuthenticatorFactory(keys, receiver)
            assert factory.verify(b"msg", auth)

    def test_non_addressee_cannot_verify(self, keys):
        sender = AuthenticatorFactory(keys, voter("s", 0))
        auth = sender.sign(b"msg", [voter("s", 1)])
        outsider = AuthenticatorFactory(keys, voter("s", 2))
        assert not outsider.verify(b"msg", auth)

    def test_tampered_payload_rejected(self, keys):
        sender = AuthenticatorFactory(keys, voter("s", 0))
        auth = sender.sign(b"msg", [voter("s", 1)])
        receiver = AuthenticatorFactory(keys, voter("s", 1))
        assert not receiver.verify(b"other", auth)

    def test_forged_sender_rejected(self, keys):
        # An attacker without the pair key cannot impersonate the sender.
        attacker_keys = KeyStore.for_deployment("attacker")
        forged = AuthenticatorFactory(attacker_keys, voter("s", 0)).sign(
            b"msg", [voter("s", 1)]
        )
        receiver = AuthenticatorFactory(keys, voter("s", 1))
        assert not receiver.verify(b"msg", forged)

    def test_require_raises(self, keys):
        receiver = AuthenticatorFactory(keys, voter("s", 1))
        bad = Authenticator(sender="nobody", entries=(("s[1]/voter", b"x" * 16),))
        with pytest.raises(AuthenticationError):
            receiver.require(b"msg", bad)

    def test_mac_for_missing_receiver_is_none(self, keys):
        auth = AuthenticatorFactory(keys, "a").sign(b"m", ["b"])
        assert auth.mac_for("c") is None


class TestDigest:
    def test_length_and_stability(self):
        assert len(digest({"a": 1})) == DIGEST_BYTES
        assert digest({"a": 1}) == digest({"a": 1})

    def test_distinct_values(self):
        assert digest({"a": 1}) != digest({"a": 2})

    def test_bytes_passthrough(self):
        assert digest(b"raw") == digest(b"raw")

    def test_hex_matches(self):
        assert digest_hex("x") == digest("x").hex()


class TestKeyDigest:
    @pytest.mark.parametrize(
        "left, right",
        [
            (("ab", "c"), ("a", "bc")),
            (("x",), (b"x",)),
            ((ServiceId("a"),), ("a",)),
            ((True,), (1,)),
            ((None,), ("null",)),
            ((RequestId(ServiceId("a"), 1),), (ServiceId("a"), 1)),
            ((1,), ("1",)),
            (("a",), ("a", "")),
        ],
    )
    def test_injective_on_boundaries(self, left, right):
        assert key_bytes(*left) != key_bytes(*right)
        assert key_digest(*left) != key_digest(*right)

    def test_stable_and_sized(self):
        parts = ("result", RequestId(ServiceId("s"), 3), {"v": [1, 2]}, False)
        assert key_digest(*parts) == key_digest(*parts)
        assert len(key_digest(*parts)) == DIGEST_BYTES

    def test_digest_is_sha256_of_framing(self):
        parts = ("out-request", b"\x00\xff", 12)
        assert key_digest(*parts) == hashlib.sha256(key_bytes(*parts)).digest()


class TestCostModels:
    def test_mac_model_scales_with_receivers(self):
        c1 = MAC_COST_MODEL.authenticator_cost_us(1)
        c10 = MAC_COST_MODEL.authenticator_cost_us(10)
        assert c10 > c1

    def test_signature_model_flat_but_expensive(self):
        s1 = SIGNATURE_COST_MODEL.authenticator_cost_us(1)
        s10 = SIGNATURE_COST_MODEL.authenticator_cost_us(10)
        assert s1 == s10

    def test_three_orders_of_magnitude_gap(self):
        # The paper's stated reason for choosing MACs (section 3).
        ratio = (
            SIGNATURE_COST_MODEL.authenticator_cost_us(1)
            / MAC_COST_MODEL.authenticator_cost_us(1)
        )
        assert ratio >= 100

    def test_custom_model(self):
        model = CryptoCostModel(name="x", sign_us=5, verify_us=7, per_receiver_us=2)
        assert model.authenticator_cost_us(3) == 5 + 2 * 2
        assert model.verification_cost_us() == 7
