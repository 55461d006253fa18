"""Unit tests for voter-level validation logic, driven directly.

These poke the VoterNode's validation helpers without a full deployment:
result-echo quorums, utility deferral, and request-proof checking.
"""

import pytest

from repro.clbft.messages import message_to_wire
from repro.common.encoding import canonical_encode
from repro.common.ids import RequestId, ServiceId
from repro.crypto.auth import AuthenticatorFactory
from repro.crypto.keys import KeyStore
from repro.perpetual.group import Topology
from repro.perpetual.messages import (
    OutRequest,
    ResultSubmission,
    request_item,
    result_item,
    utility_item,
)
from repro.perpetual.voter import VoterNode, result_match_key, voter_name
from repro.sim.kernel import Simulator
from repro.sim.network import UniformLatency
from repro.transport.wire import WireEnvelope, envelope_to_wire


@pytest.fixture
def setup():
    topology = Topology()
    topology.add("caller", 4)
    topology.add("svc", 4)
    keys = KeyStore.for_deployment("voter-unit")
    sim = Simulator()
    sim.set_network(UniformLatency(0))
    voters = []
    for i in range(4):
        voter = VoterNode(topology=topology, service="svc", index=i, keys=keys)
        env = sim.add_node(voter_name("svc", i), voter, host=f"svc/h{i}")
        voter.attach(env)
        voters.append(voter)
    return topology, keys, sim, voters


RID = RequestId(ServiceId("svc"), 7)


class TestResultValidation:
    def test_own_echo_validates(self, setup):
        __, __, __, voters = setup
        voter = voters[1]
        key = result_match_key(RID, b"r", False)
        voter._on_result_submission(
            1, ResultSubmission(request_id=RID, result=b"r"), own=True
        )
        assert voter._result_validated(RID, key)

    def test_single_foreign_echo_insufficient(self, setup):
        __, __, __, voters = setup
        voter = voters[1]
        key = result_match_key(RID, b"r", False)
        voter._on_result_submission(
            3, ResultSubmission(request_id=RID, result=b"r"), own=False
        )
        assert not voter._result_validated(RID, key)

    def test_f_plus_1_foreign_echoes_validate(self, setup):
        __, __, __, voters = setup
        voter = voters[1]
        key = result_match_key(RID, b"r", False)
        for driver_index in (2, 3):
            voter._on_result_submission(
                driver_index,
                ResultSubmission(request_id=RID, result=b"r"),
                own=False,
            )
        assert voter._result_validated(RID, key)

    def test_conflicting_echoes_do_not_combine(self, setup):
        __, __, __, voters = setup
        voter = voters[1]
        key = result_match_key(RID, b"r", False)
        voter._on_result_submission(
            2, ResultSubmission(request_id=RID, result=b"r"), own=False
        )
        voter._on_result_submission(
            3, ResultSubmission(request_id=RID, result=b"other"), own=False
        )
        assert not voter._result_validated(RID, key)

    def test_own_echo_mismatch_does_not_validate_other_value(self, setup):
        __, __, __, voters = setup
        voter = voters[1]
        voter._on_result_submission(
            1, ResultSubmission(request_id=RID, result=b"mine"), own=True
        )
        other_key = result_match_key(RID, b"theirs", False)
        assert not voter._result_validated(RID, other_key)


class TestBatchValidation:
    def test_utility_without_own_request_defers(self, setup):
        __, __, __, voters = setup
        voter = voters[1]
        item = utility_item(1, "time", 12345)
        assert voter._validate_batch((item,)) == "defer"

    def test_utility_with_own_request_accepts(self, setup):
        __, __, __, voters = setup
        voter = voters[1]
        from repro.perpetual.messages import UtilityRequest

        voter._on_utility_request(UtilityRequest(util_seq=1, utility="time"))
        item = utility_item(1, "time", 12345)
        assert voter._validate_batch((item,)) == "accept"

    def test_utility_value_missing_rejects(self, setup):
        __, __, __, voters = setup
        voter = voters[1]
        item = utility_item(1, "time", None)  # primary must fill the value
        assert voter._validate_batch((item,)) == "reject"

    def test_utility_kind_mismatch_rejects(self, setup):
        __, __, __, voters = setup
        voter = voters[1]
        from repro.perpetual.messages import UtilityRequest

        voter._on_utility_request(UtilityRequest(util_seq=1, utility="random"))
        item = utility_item(1, "time", 5)
        assert voter._validate_batch((item,)) == "reject"

    def test_unvalidated_result_defers(self, setup):
        __, __, __, voters = setup
        voter = voters[1]
        item = result_item(RID, b"r")
        assert voter._validate_batch((item,)) == "defer"

    def test_request_item_with_valid_proof_accepts(self, setup):
        topology, keys, __, voters = setup
        voter = voters[1]
        request = OutRequest(
            request_id=RequestId(ServiceId("caller"), 1),
            caller=ServiceId("caller"),
            target=ServiceId("svc"),
            payload=b"p",
            responder_index=0,
        )
        payload = canonical_encode(message_to_wire(request))
        audience = [voter_name("svc", i) for i in range(4)]
        proof = []
        for driver_index in (0, 1):  # fc + 1 = 2 matching copies
            sender = f"caller/d{driver_index}"
            auth = AuthenticatorFactory(keys, sender).sign(payload, audience)
            proof.append(
                envelope_to_wire(WireEnvelope(payload=payload, auth=auth))
            )
        item = request_item(message_to_wire(request), proof)
        assert voter._validate_batch((item,)) == "accept"

    def test_request_item_with_short_proof_rejects(self, setup):
        topology, keys, __, voters = setup
        voter = voters[1]
        request = OutRequest(
            request_id=RequestId(ServiceId("caller"), 1),
            caller=ServiceId("caller"),
            target=ServiceId("svc"),
            payload=b"p",
            responder_index=0,
        )
        payload = canonical_encode(message_to_wire(request))
        audience = [voter_name("svc", i) for i in range(4)]
        auth = AuthenticatorFactory(keys, "caller/d0").sign(payload, audience)
        proof = [envelope_to_wire(WireEnvelope(payload=payload, auth=auth))]
        item = request_item(message_to_wire(request), proof)
        assert voter._validate_batch((item,)) == "reject"

    def test_request_item_with_forged_macs_rejects(self, setup):
        topology, __, __, voters = setup
        voter = voters[1]
        forged_keys = KeyStore.for_deployment("not-the-deployment")
        request = OutRequest(
            request_id=RequestId(ServiceId("caller"), 1),
            caller=ServiceId("caller"),
            target=ServiceId("svc"),
            payload=b"p",
            responder_index=0,
        )
        payload = canonical_encode(message_to_wire(request))
        audience = [voter_name("svc", i) for i in range(4)]
        proof = []
        for driver_index in (0, 1):
            sender = f"caller/d{driver_index}"
            auth = AuthenticatorFactory(forged_keys, sender).sign(
                payload, audience
            )
            proof.append(
                envelope_to_wire(WireEnvelope(payload=payload, auth=auth))
            )
        item = request_item(message_to_wire(request), proof)
        assert voter._validate_batch((item,)) == "reject"

    def test_request_for_other_service_rejects(self, setup):
        topology, keys, __, voters = setup
        voter = voters[1]
        request = OutRequest(
            request_id=RequestId(ServiceId("caller"), 1),
            caller=ServiceId("caller"),
            target=ServiceId("elsewhere"),
            payload=b"p",
            responder_index=0,
        )
        item = request_item(message_to_wire(request), [])
        assert voter._validate_batch((item,)) == "reject"


def _caller_request(payload=b"p"):
    return OutRequest(
        request_id=RequestId(ServiceId("caller"), 1),
        caller=ServiceId("caller"),
        target=ServiceId("svc"),
        payload=payload,
        responder_index=0,
    )


def _request_item(keys, agreed, copies):
    """Stage-2 item for ``agreed`` whose proof holds one envelope per
    ``(calling driver index, copy)``, each MAC'd for every target voter."""
    audience = [voter_name("svc", i) for i in range(4)]
    proof = []
    for driver_index, copy in copies:
        payload = canonical_encode(message_to_wire(copy))
        auth = AuthenticatorFactory(keys, f"caller/d{driver_index}").sign(
            payload, audience
        )
        proof.append(envelope_to_wire(WireEnvelope(payload=payload, auth=auth)))
    return request_item(message_to_wire(agreed), proof)


def _voter_with_keys(topology, keys, index=1):
    sim = Simulator()
    sim.set_network(UniformLatency(0))
    voter = VoterNode(topology=topology, service="svc", index=index, keys=keys)
    voter.attach(sim.add_node(voter_name("svc", index), voter))
    return voter


class TestSharedRequestParse:
    """The stage-2 proof parse is shared per item object; every voter's
    MAC verdict is its own."""

    def test_foreign_root_secret_rejects_item_another_voter_accepted(self, setup):
        topology, keys, __, voters = setup
        request = _caller_request()
        item = _request_item(keys, request, [(0, request), (1, request)])
        assert voters[1]._validate_batch((item,)) == "accept"
        rogue = _voter_with_keys(topology, KeyStore(b"some-other-root-secret"))
        assert rogue._validate_batch((item,)) == "reject"
        # ...and the shared parse did not poison the correct voters.
        assert voters[2]._validate_batch((item,)) == "accept"

    def test_foreign_root_secret_rejection_does_not_stick(self, setup):
        topology, keys, __, voters = setup
        request = _caller_request()
        item = _request_item(keys, request, [(0, request), (1, request)])
        rogue = _voter_with_keys(topology, KeyStore(b"some-other-root-secret"))
        assert rogue._validate_batch((item,)) == "reject"
        assert voters[1]._validate_batch((item,)) == "accept"

    def test_proof_copy_with_other_payload_rejects(self, setup):
        __, keys, __, voters = setup
        request = _caller_request()
        good = _request_item(keys, request, [(0, request), (1, request)])
        assert voters[1]._validate_batch((good,)) == "accept"
        forged = _caller_request(payload=b"not-what-was-agreed")
        bad = _request_item(keys, request, [(0, request), (1, forged)])
        for voter in voters[1:]:
            assert voter._validate_batch((bad,)) == "reject"

    def test_proof_from_too_few_distinct_drivers_rejects(self, setup):
        __, keys, __, voters = setup
        request = _caller_request()
        good = _request_item(keys, request, [(0, request), (1, request)])
        assert voters[1]._validate_batch((good,)) == "accept"
        # fc + 1 = 2 envelopes, both from calling driver 0.
        bad = _request_item(keys, request, [(0, request), (0, request)])
        for voter in voters[1:]:
            assert voter._validate_batch((bad,)) == "reject"
