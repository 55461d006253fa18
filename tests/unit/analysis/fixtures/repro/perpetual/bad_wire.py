"""Fixture: wire-contract rules fire outside the allowlisted layer.

``repro/perpetual`` is protocol code, so direct codec/digest calls and
hand-built envelopes are exactly what WIRE001-003 exist to catch.
"""

from repro.common.encoding import decode_message, encode_message
from repro.crypto.digest import digest, digest_hex, key_digest
from repro.transport.wire import WireEnvelope


def frame(msg):
    return encode_message(msg)  # expect: WIRE001


def unframe(payload):
    return decode_message(payload)  # expect: WIRE001


def proof_digest(payload):
    return digest(payload)  # expect: WIRE002


def match_key(reply):
    return digest_hex(("reply", reply))  # expect: WIRE002


def framed_key(request_id, result):
    return key_digest("result", request_id, result)  # expect: WIRE002


def forge(sender, payload):
    return WireEnvelope(sender, payload, b"")  # expect: WIRE003
