"""Predicate evaluation, hashing formulas, signature oracle."""

import hashlib

import pytest

from commitlotto.script import (
    AfterHeight,
    AllOf,
    AllSign,
    AnyOf,
    EvalContext,
    HashPreimage,
    InputWitness,
    KeySign,
    NotKeyOwner,
    SignatureOracle,
    XorParityOdd,
    commitment,
    evaluate_explain,
    parity_bit,
)

KEY_A = b"\xaa" * 32
KEY_B = b"\xbb" * 32
KEY_C = b"\xcc" * 32
DIGEST = b"\x01" * 32


def ctx(oracle=None, height=0, digest=DIGEST):
    return EvalContext(height=height, sig_digest=digest, oracle=oracle or SignatureOracle())


def witness(signatures=(), preimages=None, branch=None):
    return InputWitness(tuple(signatures), dict(preimages or {}), branch, None)


# frozen hash formulas


def test_commitment_is_plain_sha256():
    secret = b"\x07" * 32
    assert commitment(secret) == hashlib.sha256(secret).digest()


def test_parity_bit_reads_low_bit_of_last_byte():
    assert parity_bit(b"\x00" * 31 + b"\x06") == 0
    assert parity_bit(b"\x00" * 31 + b"\x03") == 1
    assert parity_bit(b"\xff\x02") == 0


# signature oracle


def test_oracle_rejects_foreign_key():
    oracle = SignatureOracle()
    oracle.register_key("alice", KEY_A)
    oracle.register_key("bob", KEY_B)
    with pytest.raises(NotKeyOwner):
        oracle.sign("bob", KEY_A, DIGEST)


def test_verify_requires_a_recorded_signing_act():
    oracle = SignatureOracle()
    oracle.register_key("alice", KEY_A)
    assert not oracle.verify(KEY_A, DIGEST)
    oracle.sign("alice", KEY_A, DIGEST)
    assert oracle.verify(KEY_A, DIGEST)
    assert not oracle.verify(KEY_A, b"\x02" * 32)
    # re-signing the same digest changes nothing
    oracle.sign("alice", KEY_A, DIGEST)
    assert oracle.verify(KEY_A, DIGEST) and not oracle.verify(KEY_A, b"\x02" * 32)


def test_sign_all_covers_exactly_the_signed_set():
    oracle = SignatureOracle()
    oracle.register_key("alice", KEY_A)
    oracle.register_key("bob", KEY_B)
    digests = frozenset((DIGEST, b"\x02" * 32))
    with pytest.raises(NotKeyOwner):
        oracle.sign_all("bob", KEY_A, digests)
    oracle.sign_all("alice", KEY_A, digests)
    assert all(oracle.verify(KEY_A, d) for d in digests)
    assert not oracle.verify(KEY_A, b"\x03" * 32)
    assert not any(oracle.verify(KEY_B, d) for d in digests)


# predicate evaluation


def test_keysign_needs_material_and_record():
    oracle = SignatureOracle()
    oracle.register_key("alice", KEY_A)
    p = KeySign(KEY_A)
    ok, why = evaluate_explain(p, witness(), ctx(oracle))
    assert not ok and "missing signature" in why
    oracle.sign("alice", KEY_A, DIGEST)
    assert evaluate_explain(p, witness([KEY_A]), ctx(oracle))[0]
    # the same signer against a different digest fails
    other = ctx(oracle, digest=b"\x02" * 32)
    ok, why = evaluate_explain(p, witness([KEY_A]), other)
    assert not ok and "signature check failed" in why


def test_allsign_requires_every_key():
    oracle = SignatureOracle()
    oracle.register_key("alice", KEY_A)
    oracle.register_key("bob", KEY_B)
    p = AllSign((KEY_A, KEY_B))
    oracle.sign("alice", KEY_A, DIGEST)
    ok, why = evaluate_explain(p, witness([KEY_A]), ctx(oracle))
    assert not ok and "missing signature" in why
    # naming a key is not signing with it
    ok, why = evaluate_explain(p, witness([KEY_A, KEY_B]), ctx(oracle))
    assert not ok and "signature check failed" in why
    oracle.sign("bob", KEY_B, DIGEST)
    assert evaluate_explain(p, witness([KEY_A, KEY_B]), ctx(oracle))[0]


# the one-probe AllSign path


KEYS3 = (KEY_A, KEY_B, KEY_C)
OTHER = b"\x02" * 32


def keyed_oracle(keys=KEYS3):
    oracle = SignatureOracle()
    for i, key in enumerate(keys):
        oracle.register_key(i, key)
    return oracle


def per_key(p, w, oracle, digest=DIGEST):
    """AllSign as one oracle check per key, with the reasons evaluate_explain gives."""
    for key in p.keys:
        if key not in w.signatures:
            return False, f"missing signature material for key {key.hex()[:12]}"
        if not oracle.verify(key, digest):
            return False, f"signature check failed for key {key.hex()[:12]}"
    return True, None


def test_verify_all_probes_a_registry_every_key_approved():
    oracle = keyed_oracle()
    registry = {DIGEST}
    for i, key in enumerate(KEYS3):
        assert not oracle.verify_all(KEYS3, DIGEST)
        oracle.sign_all(i, key, registry)
    assert oracle.verify_all(KEYS3, DIGEST)
    assert not oracle.verify_all(KEYS3, OTHER)
    registry.add(OTHER)  # the registry is kept, not copied
    assert oracle.verify_all(KEYS3, OTHER)


def test_allsign_keeps_the_per_key_semantics_and_reasons():
    p, w = AllSign(KEYS3), witness(KEYS3)
    # key C approved only a different registry
    oracle = keyed_oracle()
    approved = {DIGEST}
    oracle.sign_all(0, KEY_A, approved)
    oracle.sign_all(1, KEY_B, approved)
    oracle.sign_all(2, KEY_C, {OTHER})
    want = (False, f"signature check failed for key {KEY_C.hex()[:12]}")
    assert evaluate_explain(p, w, ctx(oracle)) == want
    # every key approved the registry, but one is missing from the witness
    oracle.sign_all(2, KEY_C, approved)
    assert evaluate_explain(p, w, ctx(oracle)) == (True, None)
    want = (False, f"missing signature material for key {KEY_B.hex()[:12]}")
    assert evaluate_explain(p, witness((KEY_A, KEY_C)), ctx(oracle)) == want
    # approvals split across two registries that both hold the digest: no
    # one registry has every key, so the probe says no and each key passes
    oracle = keyed_oracle()
    oracle.sign_all(0, KEY_A, {DIGEST, OTHER})
    oracle.sign_all(1, KEY_B, {DIGEST, OTHER})
    oracle.sign_all(2, KEY_C, frozenset((DIGEST,)))
    assert not oracle.verify_all(KEYS3, DIGEST)
    assert evaluate_explain(p, w, ctx(oracle)) == (True, None)
    # as for the atomic deposit: each key signs the one digest with `sign`
    oracle = keyed_oracle()
    for i, key in enumerate(KEYS3):
        oracle.sign(i, key, DIGEST)
    assert not oracle.verify_all(KEYS3, DIGEST)
    assert evaluate_explain(p, w, ctx(oracle)) == (True, None)
    want = (False, f"signature check failed for key {KEY_A.hex()[:12]}")
    assert evaluate_explain(p, w, ctx(oracle, digest=OTHER)) == want


def test_allsign_agrees_with_one_check_per_key_on_every_approval_mix():
    # each key approves nothing, a shared registry, a registry of its own, or
    # the digest alone; the witness names any subset of the keys
    shared, own = {DIGEST, OTHER}, {DIGEST}
    p = AllSign(KEYS3)
    for mix in range(4 ** len(KEYS3)):
        oracle = keyed_oracle()
        for i, key in enumerate(KEYS3):
            how = (mix >> (2 * i)) & 3
            if how == 1:
                oracle.sign_all(i, key, shared)
            elif how == 2:
                oracle.sign_all(i, key, set(own))
            elif how == 3:
                oracle.sign(i, key, DIGEST)
        for named in range(1 << len(KEYS3)):
            w = witness([key for i, key in enumerate(KEYS3) if named >> i & 1])
            for digest in (DIGEST, OTHER):
                want = per_key(p, w, oracle, digest)
                assert evaluate_explain(p, w, ctx(oracle, digest=digest)) == want, (mix, named)


def test_hash_preimage_slot_matching():
    secret = b"\x05" * 32
    p = HashPreimage(commitment(secret), "s")
    assert evaluate_explain(p, witness(preimages={"s": secret}), ctx())[0]
    ok, why = evaluate_explain(p, witness(), ctx())
    assert not ok and "missing preimage" in why
    ok, why = evaluate_explain(p, witness(preimages={"s": b"\x06" * 32}), ctx())
    assert not ok and "wrong preimage" in why


def test_after_height_boundary_inclusive():
    p = AfterHeight(7)
    assert not evaluate_explain(p, witness(), ctx(height=6))[0]
    assert evaluate_explain(p, witness(), ctx(height=7))[0]
    assert evaluate_explain(p, witness(), ctx(height=8))[0]


def test_xor_parity_odd():
    even = b"\x00" * 31 + b"\x06"  # low bit 0
    odd = b"\x00" * 31 + b"\x03"  # low bit 1
    p = XorParityOdd("l", "r")
    assert evaluate_explain(p, witness(preimages={"l": even, "r": odd}), ctx())[0]
    ok, why = evaluate_explain(p, witness(preimages={"l": even, "r": even}), ctx())
    assert not ok and why == "xor parity is even"
    ok, why = evaluate_explain(p, witness(preimages={"l": even}), ctx())
    assert not ok and why == "missing parity preimages"


def test_allof_reports_first_failing_term():
    p = AllOf((AfterHeight(3), HashPreimage(commitment(b"\x01" * 32), "s")))
    ok, why = evaluate_explain(p, witness(), ctx(height=0))
    assert not ok and "height 0 below lock 3" == why
    ok, why = evaluate_explain(p, witness(), ctx(height=3))
    assert not ok and "missing preimage" in why
    w = witness(preimages={"s": b"\x01" * 32})
    assert evaluate_explain(p, w, ctx(height=3))[0]


def test_anyof_uses_only_the_selected_branch():
    oracle = SignatureOracle()
    oracle.register_key("alice", KEY_A)
    oracle.sign("alice", KEY_A, DIGEST)
    p = AnyOf((KeySign(KEY_A), AfterHeight(100)))
    # branch 0 succeeds even though branch 1 cannot
    assert evaluate_explain(p, witness([KEY_A], branch=0), ctx(oracle))[0]
    # selecting the timeout branch ignores the valid signature
    ok, why = evaluate_explain(p, witness([KEY_A], branch=1), ctx(oracle))
    assert not ok and "below lock" in why
    ok, why = evaluate_explain(p, witness([KEY_A]), ctx(oracle))
    assert not ok and why == "missing branch selector"
    ok, why = evaluate_explain(p, witness(branch=2), ctx(oracle))
    assert not ok and "out of range" in why


def test_evaluate_rejects_non_predicate():
    with pytest.raises(TypeError):
        evaluate_explain("not a predicate", witness(), ctx())
