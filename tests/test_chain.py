"""UTXO chain: identifiers, validation order, conservation."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from commitlotto.chain import (
    BAD_MULTI_INPUT,
    DOUBLE_SPEND,
    LOCKTIME,
    MISSING_INPUT,
    NULL_TXID,
    SCRIPT_FAIL,
    VALUE_MISMATCH,
    Chain,
    FixedInput,
    TransactionBody,
    TxOutput,
    body_bytes,
    compute_ntxid,
    multi_input,
    sig_digest_for,
)
from commitlotto.primitives import OutputRef
from commitlotto.script import (
    AfterHeight,
    InputWitness,
    KeySign,
    SignatureOracle,
    Witness,
)

KEY_A = b"\x11" * 32
KEY_B = b"\x22" * 32


def fresh_chain() -> tuple[Chain, SignatureOracle]:
    oracle = SignatureOracle()
    oracle.register_key("alice", KEY_A)
    oracle.register_key("bob", KEY_B)
    return Chain(oracle), oracle


def signed_spend(chain, oracle, ref, to_key, value, party="alice", key=KEY_A, locktime=0):
    body = TransactionBody(
        inputs=(FixedInput(ref),),
        outputs=(TxOutput(value, KeySign(to_key)),),
        locktime=locktime,
    )
    tag = oracle.sign(party, key, sig_digest_for(body))
    return body, Witness((InputWitness(((key, tag),), {}, None, None),))


# identifiers


def test_ntxid_deterministic_and_injective_on_locktime():
    body = TransactionBody(
        inputs=(FixedInput(OutputRef(b"\x01" * 32, 0)),),
        outputs=(TxOutput(1, KeySign(KEY_A)),),
        locktime=10,
    )
    body11 = TransactionBody(body.inputs, body.outputs, locktime=11)
    assert compute_ntxid(body) == compute_ntxid(body)
    assert compute_ntxid(body) != compute_ntxid(body11)


def test_ntxid_matches_tagged_hash_of_canonical_bytes():
    # identifier contract: sha256 over b"ntxid:" + canonical body serialization
    body = TransactionBody(
        inputs=(FixedInput(OutputRef(b"\x02" * 32, 3)),),
        outputs=(TxOutput(5, KeySign(KEY_B)),),
    )
    expect = hashlib.sha256(b"ntxid:" + body_bytes(body)).digest()
    assert compute_ntxid(body) == expect


def test_ntxid_ignores_witness():
    chain, oracle = fresh_chain()
    ref = chain.mint(1, KeySign(KEY_A))
    body, w1 = signed_spend(chain, oracle, ref, KEY_B, 1)
    # a second, different witness for the same body
    tag2 = oracle.sign("alice", KEY_A, sig_digest_for(body))
    w2 = Witness((InputWitness(((KEY_A, tag2), (KEY_A, tag2)), {}, None, None),))
    assert w1 != w2
    res = chain.submit(body, w2)
    assert res.accepted
    assert res.ntxid == compute_ntxid(body)


def test_sig_digest_shared_across_input_indices():
    # one authorization covers every input of a body; the digest may not
    # depend on which input it is attached to
    refs = [OutputRef(bytes([i]) * 32, 0) for i in range(3)]
    body = TransactionBody(
        inputs=tuple(FixedInput(r) for r in refs),
        outputs=(TxOutput(3, KeySign(KEY_A)),),
    )
    assert sig_digest_for(body) == hashlib.sha256(b"sigmsg:" + body_bytes(body)).digest()


# minting


def test_mint_creates_unspent_output():
    chain, _ = fresh_chain()
    ref = chain.mint(1, KeySign(KEY_A))
    assert chain.is_unspent(ref)
    assert chain.utxo[ref].value == 1
    assert chain.minted_total == 1


def test_mint_conservation_and_distinct_refs():
    chain, _ = fresh_chain()
    r1 = chain.mint(1, KeySign(KEY_A))
    r2 = chain.mint(1, KeySign(KEY_A))
    assert r1 != r2  # serialized mint inputs keep identical outputs distinct
    assert chain.total_utxo_value() == chain.minted_total == 2
    chain.audit()


def test_mint_rejects_nonpositive_value():
    chain, _ = fresh_chain()
    with pytest.raises(ValueError):
        chain.mint(0, KeySign(KEY_A))


def test_mint_input_uses_null_txid_serial():
    chain, _ = fresh_chain()
    chain.mint(1, KeySign(KEY_A))
    entry = chain.log[0]
    assert entry.witness is None
    spec = entry.body.inputs[0]
    assert spec.ref.txid == NULL_TXID
    assert spec.ref.index == 0


# validation and rejection reasons


def test_accept_then_double_spend_rejected():
    chain, oracle = fresh_chain()
    ref = chain.mint(1, KeySign(KEY_A))
    body, w = signed_spend(chain, oracle, ref, KEY_B, 1)
    assert chain.submit(body, w).accepted
    body2, w2 = signed_spend(chain, oracle, ref, KEY_A, 1)
    res = chain.submit(body2, w2)
    assert (res.accepted, res.reason) == (False, DOUBLE_SPEND)


def test_locktime_rejects_until_height_reached():
    chain, oracle = fresh_chain()
    ref = chain.mint(1, KeySign(KEY_A))
    body, w = signed_spend(chain, oracle, ref, KEY_B, 1, locktime=5)
    res = chain.submit(body, w)
    assert (res.accepted, res.reason) == (False, LOCKTIME)
    chain.advance_to(5)  # locktime == height is spendable
    assert chain.submit(body, w).accepted


def test_missing_input_and_value_mismatch():
    chain, oracle = fresh_chain()
    bogus = OutputRef(b"\xaa" * 32, 0)
    body, w = signed_spend(chain, oracle, bogus, KEY_B, 1)
    assert chain.submit(body, w).reason == MISSING_INPUT

    ref = chain.mint(2, KeySign(KEY_A))
    body, w = signed_spend(chain, oracle, ref, KEY_B, 1)  # drops 1 unit
    assert chain.submit(body, w).reason == VALUE_MISMATCH


def test_script_failure_reasons():
    chain, oracle = fresh_chain()
    ref = chain.mint(1, KeySign(KEY_A))
    # bob signs with his own key; the output demands alice's
    body = TransactionBody(
        inputs=(FixedInput(ref),), outputs=(TxOutput(1, KeySign(KEY_B)),)
    )
    tag = oracle.sign("bob", KEY_B, sig_digest_for(body))
    res = chain.submit(body, Witness((InputWitness(((KEY_B, tag),), {}, None, None),)))
    assert res.reason == SCRIPT_FAIL

    # arity mismatch is also a script-level failure
    res = chain.submit(body, Witness(()))
    assert res.reason == SCRIPT_FAIL
    assert "arity" in res.detail


def test_forged_tag_fails_verification():
    chain, _ = fresh_chain()
    ref = chain.mint(1, KeySign(KEY_A))
    body = TransactionBody(
        inputs=(FixedInput(ref),), outputs=(TxOutput(1, KeySign(KEY_B)),)
    )
    forged = hashlib.sha256(b"sigtag:" + KEY_A + sig_digest_for(body)).digest()[:16]
    # correct tag bytes, but the oracle never recorded the signing act
    res = chain.submit(body, Witness((InputWitness(((KEY_A, forged),), {}, None, None),)))
    assert res.reason == SCRIPT_FAIL


def test_repeated_ref_within_one_body_rejected():
    chain, oracle = fresh_chain()
    ref = chain.mint(1, KeySign(KEY_A))
    body = TransactionBody(
        inputs=(FixedInput(ref), FixedInput(ref)),
        outputs=(TxOutput(2, KeySign(KEY_B)),),
    )
    tag = oracle.sign("alice", KEY_A, sig_digest_for(body))
    iw = InputWitness(((KEY_A, tag),), {}, None, None)
    res = chain.submit(body, Witness((iw, iw)))
    assert res.reason == DOUBLE_SPEND


# MULTIINPUT

def multi_body(refs, value, to_key):
    return TransactionBody(
        inputs=(multi_input(refs),), outputs=(TxOutput(value, KeySign(to_key)),)
    )


def test_multi_input_spends_exactly_the_chosen_ref():
    chain, oracle = fresh_chain()
    r1 = chain.mint(1, KeySign(KEY_A))
    r2 = chain.mint(1, KeySign(KEY_A))
    body = multi_body([r1, r2], 1, KEY_B)
    tag = oracle.sign("alice", KEY_A, sig_digest_for(body))
    res = chain.submit(body, Witness((InputWitness(((KEY_A, tag),), {}, None, r1),)))
    assert res.accepted
    assert not chain.is_unspent(r1)
    assert chain.is_unspent(r2)  # the unchosen member is untouched

    # r1 is now excluded for everyone else
    body2, w2 = signed_spend(chain, oracle, r1, KEY_A, 1)
    assert chain.submit(body2, w2).reason == DOUBLE_SPEND
    body3, w3 = signed_spend(chain, oracle, r2, KEY_A, 1)
    assert chain.submit(body3, w3).accepted


def test_multi_input_witness_shape_enforced():
    chain, oracle = fresh_chain()
    r1 = chain.mint(1, KeySign(KEY_A))
    r2 = chain.mint(1, KeySign(KEY_A))
    outsider = chain.mint(1, KeySign(KEY_A))
    body = multi_body([r1, r2], 1, KEY_B)
    tag = oracle.sign("alice", KEY_A, sig_digest_for(body))

    res = chain.submit(body, Witness((InputWitness(((KEY_A, tag),), {}, None, None),)))
    assert res.reason == BAD_MULTI_INPUT  # chosenRef required

    res = chain.submit(body, Witness((InputWitness(((KEY_A, tag),), {}, None, outsider),)))
    assert res.reason == BAD_MULTI_INPUT  # chosenRef must be a set member

    fixed = TransactionBody(
        inputs=(FixedInput(r1),), outputs=(TxOutput(1, KeySign(KEY_B)),)
    )
    tag2 = oracle.sign("alice", KEY_A, sig_digest_for(fixed))
    res = chain.submit(fixed, Witness((InputWitness(((KEY_A, tag2),), {}, None, r1),)))
    assert res.reason == BAD_MULTI_INPUT  # chosenRef forbidden on fixed inputs


def test_multi_input_one_signature_covers_either_member():
    # the digest excludes the chosen ref, so one signing act authorizes
    # whichever member is actually consumed
    chain, oracle = fresh_chain()
    r1 = chain.mint(1, KeySign(KEY_A))
    r2 = chain.mint(1, KeySign(KEY_A))
    body = multi_body([r1, r2], 1, KEY_B)
    tag = oracle.sign("alice", KEY_A, sig_digest_for(body))
    res = chain.submit(body, Witness((InputWitness(((KEY_A, tag),), {}, None, r2),)))
    assert res.accepted


def test_multi_input_normalization():
    r1 = OutputRef(b"\x01" * 32, 0)
    r2 = OutputRef(b"\x02" * 32, 0)
    assert multi_input([r2, r1, r1]).refs == (r1, r2)
    with pytest.raises(ValueError):
        multi_input([])


# conservation under arbitrary activity


@settings(max_examples=60, deadline=None)
@given(hs.data())
def test_value_conservation_holds_under_random_activity(data):
    chain, oracle = fresh_chain()
    refs = []
    for step in range(data.draw(hs.integers(2, 12))):
        action = data.draw(hs.sampled_from(["mint", "spend", "advance"]))
        if action == "mint" or not refs:
            value = data.draw(hs.integers(1, 5))
            refs.append((chain.mint(value, KeySign(KEY_A)), value))
        elif action == "advance":
            chain.advance(data.draw(hs.integers(1, 3)))
        else:
            ref, value = refs.pop(data.draw(hs.integers(0, len(refs) - 1)))
            body, w = signed_spend(chain, oracle, ref, KEY_B, value)
            res = chain.submit(body, w)
            assert res.accepted
        chain.audit()
        assert chain.total_utxo_value() == chain.minted_total
    # no output ref is consumed twice across the accepted log
    spent = []
    for entry in chain.log:
        if entry.witness is None:
            continue
        for spec, iw in zip(entry.body.inputs, entry.witness.inputs):
            spent.append(iw.chosen_ref if iw.chosen_ref is not None else spec.ref)
    assert len(spent) == len(set(spent))


def test_after_height_output_spendable_only_late():
    chain, oracle = fresh_chain()
    ref = chain.mint(1, AfterHeight(4))
    body = TransactionBody(
        inputs=(FixedInput(ref),), outputs=(TxOutput(1, KeySign(KEY_B)),)
    )
    w = Witness((InputWitness((), {}, None, None),))
    assert chain.submit(body, w).reason == SCRIPT_FAIL
    chain.advance_to(4)
    assert chain.submit(body, w).accepted


def test_export_log_jsonl_round_trips_entries():
    import json

    chain, oracle = fresh_chain()
    ref = chain.mint(1, KeySign(KEY_A))
    body, w = signed_spend(chain, oracle, ref, KEY_B, 1)
    chain.submit(body, w)
    lines = chain.export_log_jsonl().strip().splitlines()
    assert len(lines) == 2
    parsed = [json.loads(line) for line in lines]
    assert parsed[0]["witness"] == "mint"
    assert parsed[1]["witness"] != "mint"
    assert parsed[1]["ntxid"] == compute_ntxid(body).hex()
