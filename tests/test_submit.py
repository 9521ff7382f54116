"""Chain.submit against the three-lookup submit it replaced, over random bodies and witnesses."""

from hypothesis import given, settings
from hypothesis import strategies as hs

from commitlotto.chain import (
    BAD_MULTI_INPUT,
    DOUBLE_SPEND,
    LOCKTIME,
    MISSING_INPUT,
    SCRIPT_FAIL,
    VALUE_MISMATCH,
    Chain,
    FixedInput,
    LogEntry,
    MultiInput,
    SubmitResult,
    TransactionBody,
    TxOutput,
)
from commitlotto.primitives import OutputRef, sha256
from commitlotto.script import (
    AfterHeight,
    AllSign,
    AnyOf,
    EvalContext,
    HashPreimage,
    InputWitness,
    KeySign,
    SignatureOracle,
    Witness,
    evaluate_explain,
)

# The reference: `Chain.submit` and the `_credit` it called, as they stood
# when `CHAIN_LOG_GOLDEN` was recorded. It looks each consumed output up
# three times and walks the outputs twice.


def ref_credit(self, out, sign):
    if isinstance(out.predicate, KeySign):
        key = out.predicate.key
        value = self._key_value.get(key, 0) + sign * out.value
        if value:
            self._key_value[key] = value
        else:
            del self._key_value[key]


def ref_submit(self, body, witness):
    ntxid, sig_digest = body.digests
    if len(witness.inputs) != len(body.inputs):
        return SubmitResult(False, None, SCRIPT_FAIL, "witness arity mismatch")
    if body.locktime > self.height:
        return SubmitResult(
            False, None, LOCKTIME, f"locktime {body.locktime} > height {self.height}"
        )

    consumed = []
    for i, (spec, iw) in enumerate(zip(body.inputs, witness.inputs)):
        if isinstance(spec, FixedInput):
            if iw.chosen_ref is not None:
                return SubmitResult(
                    False, None, BAD_MULTI_INPUT, f"input {i}: chosenRef on fixed input"
                )
            ref = spec.ref
        else:
            if iw.chosen_ref is None:
                return SubmitResult(
                    False, None, BAD_MULTI_INPUT, f"input {i}: missing chosenRef"
                )
            if iw.chosen_ref not in spec.refs:
                return SubmitResult(
                    False, None, BAD_MULTI_INPUT, f"input {i}: chosenRef not in set"
                )
            ref = iw.chosen_ref
        if ref in consumed:
            return SubmitResult(False, None, DOUBLE_SPEND, f"input {i}: repeated ref")
        if ref not in self.utxo:
            if ref in self._spent:
                return SubmitResult(
                    False, None, DOUBLE_SPEND, f"input {i}: {ref.short()} already spent"
                )
            return SubmitResult(False, None, MISSING_INPUT, f"input {i}: unknown {ref.short()}")
        consumed.append(ref)

    in_sum = sum(self.utxo[ref].value for ref in consumed)
    out_sum = sum(out.value for out in body.outputs)
    if not body.outputs or any(out.value <= 0 for out in body.outputs):
        return SubmitResult(False, None, VALUE_MISMATCH, "outputs must carry positive value")
    if in_sum != out_sum:
        return SubmitResult(
            False, None, VALUE_MISMATCH, f"inputs {in_sum} != outputs {out_sum}"
        )

    ctx = EvalContext(height=self.height, sig_digest=sig_digest, oracle=self.oracle)
    for i, iw in enumerate(witness.inputs):
        ok, why = evaluate_explain(self.utxo[consumed[i]].predicate, iw, ctx)
        if not ok:
            return SubmitResult(False, None, SCRIPT_FAIL, f"input {i}: {why}")

    for ref in consumed:
        ref_credit(self, self.utxo.pop(ref), -1)
        self._spent.add(ref)
    for k, out in enumerate(body.outputs):
        self.utxo[OutputRef(ntxid, k)] = out
        ref_credit(self, out, 1)
    self.log.append(LogEntry(body, witness, self.height))
    self.entries[ntxid] = self.log[-1]
    return SubmitResult(True, ntxid, None)


KEYS = tuple(bytes([i + 1]) * 32 for i in range(3))
PREIMAGE = b"opened"
PREDICATES = (
    KeySign(KEYS[0]),
    KeySign(KEYS[1]),
    AllSign(KEYS[:2]),
    HashPreimage(sha256(PREIMAGE), "s"),
    AfterHeight(3),
    AnyOf((KeySign(KEYS[2]), AfterHeight(2), HashPreimage(sha256(PREIMAGE), "s"))),
)
UNKNOWN = (OutputRef(b"\xee" * 32, 0), OutputRef(b"\xee" * 32, 1))


def ledger(chain):
    return (
        chain.height,
        dict(chain.utxo),
        set(chain._spent),
        list(chain.log),
        dict(chain.entries),
        dict(chain._key_value),
        chain.minted_total,
    )


def draw_ref(data, chain, known):
    """Mostly a live output; else any output ever seen, or one never made."""
    live = sorted(chain.utxo)
    if live and data.draw(hs.integers(0, 3)):
        return data.draw(hs.sampled_from(live))
    return data.draw(hs.sampled_from(sorted(known) + list(UNKNOWN)))


def draw_step(data, chain, known):
    """A body and witness that pass often enough, and break each check now and then."""
    inputs = []
    for _ in range(data.draw(hs.sampled_from([0, 1, 1, 2, 2, 3]))):
        if data.draw(hs.booleans()):
            inputs.append(FixedInput(draw_ref(data, chain, known)))
        else:
            size = data.draw(hs.integers(1, 4))
            inputs.append(MultiInput(tuple(draw_ref(data, chain, known) for _ in range(size))))
    witnesses = []
    for spec in inputs:
        if isinstance(spec, FixedInput):
            chosen = data.draw(hs.sampled_from([None] * 8 + [spec.ref, UNKNOWN[0]]))
        else:
            chosen = data.draw(hs.sampled_from([*spec.refs, spec.refs[0], None, UNKNOWN[1]]))
        if data.draw(hs.integers(0, 5)):
            iw = InputWitness(KEYS, {"s": PREIMAGE}, data.draw(hs.integers(0, 2)), chosen)
        else:
            iw = InputWitness(
                tuple(data.draw(hs.lists(hs.sampled_from(KEYS), max_size=3))),
                data.draw(hs.sampled_from([{}, {"s": PREIMAGE}, {"s": b"wrong"}])),
                data.draw(hs.sampled_from([None, 0, 1, 2, 3])),
                chosen,
            )
        witnesses.append(iw)
    arity = data.draw(hs.sampled_from([0] * 8 + [1, -1]))
    if arity > 0:
        witnesses.append(InputWitness())
    elif arity < 0 and witnesses:
        witnesses.pop()

    # the value the inputs carry if each spends the ref its witness chose
    spent = [
        spec.ref if isinstance(spec, FixedInput) else iw.chosen_ref
        for spec, iw in zip(inputs, witnesses)
    ]
    in_sum = sum(chain.utxo[ref].value for ref in spent if ref in chain.utxo)
    count = data.draw(hs.sampled_from([0, 1, 1, 2, 3]))
    if count and in_sum >= count and data.draw(hs.integers(0, 3)):  # balanced, mostly
        values = [in_sum - count + 1] + [1] * (count - 1)
    else:
        values = data.draw(hs.lists(hs.integers(0, 12), min_size=count, max_size=count))
    outputs = tuple(TxOutput(v, data.draw(hs.sampled_from(PREDICATES))) for v in values)
    locktime = data.draw(hs.sampled_from([0, 0, 0, chain.height, chain.height + 1]))
    signers = data.draw(hs.sampled_from([KEYS, KEYS, KEYS[:1], KEYS[1:], ()]))
    return TransactionBody(tuple(inputs), outputs, locktime), Witness(tuple(witnesses)), signers


@settings(max_examples=150, deadline=None)
@given(hs.data())
def test_submit_matches_the_three_lookup_submit(data):
    oracle = SignatureOracle()
    for i, key in enumerate(KEYS):
        oracle.register_key(i, key)
    chains = (Chain(oracle), Chain(oracle))
    for value, predicate in data.draw(
        hs.lists(hs.tuples(hs.integers(1, 9), hs.sampled_from(PREDICATES)), min_size=1, max_size=6)
    ):
        refs = [chain.mint(value, predicate) for chain in chains]
        assert refs[0] == refs[1]
    known = set(chains[0].utxo)
    for _ in range(data.draw(hs.integers(1, 8))):
        blocks = data.draw(hs.integers(0, 2))
        if blocks:
            for chain in chains:
                chain.advance_to(chain.height + blocks)
        body, witness, signers = draw_step(data, chains[0], known)
        for key in signers:
            oracle.sign(KEYS.index(key), key, body.digests[1])
        want = ref_submit(chains[0], body, witness)
        got = chains[1].submit(body, witness)
        assert got == want
        assert ledger(chains[1]) == ledger(chains[0])
        if got.accepted:
            known.update(OutputRef(got.ntxid, k) for k in range(len(body.outputs)))
    chains[1].audit()
