"""Simulated UTXO blockchain with a block-height clock.

The chain is an append-only log plus a UTXO set. There are no fees and no
mempool: `submit` validates against current state and either applies the
transaction at the current height or rejects it with a reason. Consumed
output references are exclusive forever, which is what the scaffold's
mutually exclusive spend paths rely on.

Transaction ids are normalized (NTXID): the digest covers the canonical body
only, never witness data, so a fully wired tree of unsigned transactions can
reference each other before any signature exists. A MultiInput input commits
to its whole candidate set; the consumed member is witness data, so every
choice leaves the NTXID and the signature digest unchanged.
"""

from __future__ import annotations

import json
from typing import NamedTuple, Optional, Union

from .primitives import (
    NULL_TXID, REF_JSON, ListOf, Nullable, OutputRef, Record, Tagged, lp_bytes, sha256, to_json, u32, u64,
)
from .script import (
    PREDICATE_JSON,
    EvalContext,
    KeySign,
    Predicate,
    SignatureOracle,
    Witness,
    evaluate_explain,
    predicate_bytes,
)

# rejection reasons
DOUBLE_SPEND = "DoubleSpend"
LOCKTIME = "Locktime"
SCRIPT_FAIL = "ScriptFail"
MISSING_INPUT = "MissingInput"
VALUE_MISMATCH = "ValueMismatch"
BAD_MULTI_INPUT = "BadMultiInput"


class FixedInput(NamedTuple):
    ref: OutputRef


class MultiInput(NamedTuple):
    refs: tuple[OutputRef, ...]


TxInput = Union[FixedInput, MultiInput]

# a fixed input's record holds its ref's fields, beside "kind": "fixed"
INPUT_JSON = Tagged("kind", {
    "fixed": (FixedInput, Record(REF_JSON.fields, lambda *ref: FixedInput(OutputRef(*ref)), lambda i: i.ref)),
    "multi": (MultiInput, Record({"refs": ListOf(REF_JSON)}, MultiInput)),
})


def multi_input(refs) -> MultiInput:
    """Normalize a candidate set: sorted, deduplicated, non-empty."""
    normalized = tuple(sorted(set(refs)))
    if not normalized:
        raise ValueError("EmptySet: MultiInput needs at least one candidate ref")
    return MultiInput(normalized)


class TxOutput(NamedTuple):
    value: int
    predicate: Predicate


OUTPUT_JSON = Record({"value": int, "predicate": PREDICATE_JSON}, TxOutput)


class _BodyFields(NamedTuple):
    inputs: tuple[TxInput, ...]
    outputs: tuple[TxOutput, ...]
    locktime: int = 0


class _kept:
    """An attribute computed from its instance the first time it is read.

    The value goes into the instance dict, which answers every later read
    without calling back here. This is `functools.cached_property` without
    the per-instance lock that it takes on Python 3.10 and 3.11.
    """

    def __init__(self, compute):
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.compute(instance)
        return value


class TransactionBody(_BodyFields):
    """An unsigned transaction: inputs, outputs and an absolute locktime.

    A body is immutable and carries its own digests (`digests`), computed
    from its canonical bytes the first time anyone reads them and kept
    with it, so each body is encoded once whoever asks first. A forged or
    `_replace`d body is a new object and is encoded afresh.
    """

    @_kept
    def digests(self) -> tuple[bytes, bytes]:
        """(ntxid, signature digest), from one encoding of this body.

        The ntxid is the witness-independent transaction id. The signature
        digest is what a signer commits to for any input: the canonical body
        already encodes a MultiInput as its full candidate set (the chosen ref
        lives in the witness), so one signing covers every member of the set,
        and all inputs of a body share a single digest.
        """
        data = body_bytes(self)
        return sha256(b"ntxid:" + data), sha256(b"sigmsg:" + data)

    def __setattr__(self, name, value):
        raise AttributeError(f"TransactionBody is immutable: cannot set {name!r}")


BODY_JSON = Record(
    {"inputs": ListOf(INPUT_JSON), "outputs": ListOf(OUTPUT_JSON), "locktime": int}, TransactionBody
)


def body_bytes(body: TransactionBody) -> bytes:
    """Canonical serialization: the counts, each input and output as one part, the locktime."""
    parts = [u32(len(body.inputs))]
    for spec in body.inputs:
        if isinstance(spec, FixedInput):
            parts.append(b"\x00" + spec.ref.txid + u32(spec.ref.index))
        else:
            refs = b"".join([r.txid + u32(r.index) for r in spec.refs])
            parts.append(b"\x01" + u32(len(spec.refs)) + refs)
    parts.append(u32(len(body.outputs)))
    for out in body.outputs:
        parts.append(u64(out.value) + lp_bytes(predicate_bytes(out.predicate)))
    parts.append(u64(body.locktime))
    return b"".join(parts)


def compute_ntxid(body: TransactionBody) -> bytes:
    """Witness-independent transaction id."""
    return body.digests[0]


def sig_digest_for(body: TransactionBody) -> bytes:
    """Digest a signer commits to when authorizing any input of a body."""
    return body.digests[1]


class SubmitResult(NamedTuple):
    accepted: bool
    ntxid: Optional[bytes]
    reason: Optional[str]
    detail: str = ""


class LogEntry(NamedTuple):
    body: TransactionBody
    witness: Optional[Witness]  # None marks a mint
    height: int

    @property
    def ntxid(self) -> bytes:
        return self.body.digests[0]


class Chain:
    """Ledger state: height, UTXO set, spent set and the accepted log."""

    def __init__(self, oracle: SignatureOracle):
        self.oracle = oracle
        self.height = 0
        self.utxo: dict[OutputRef, TxOutput] = {}
        self.log: list[LogEntry] = []
        self.entries: dict[bytes, LogEntry] = {}  # the log by ntxid: "is it on chain?"
        self.minted_total = 0
        self._spent: set[OutputRef] = set()
        self._key_value: dict[bytes, int] = {}  # unspent KeySign value per key
        self._mint_serial = 0

    def advance_to(self, height: int) -> int:
        if height > self.height:
            self.height = height
        return self.height

    def mint(self, value: int, predicate: Predicate) -> OutputRef:
        """Create value out of thin air (test and scenario setup only).

        The synthetic input references the null txid with a serial index, so
        repeated mints of identical outputs still get distinct NTXIDs.
        """
        if value <= 0:
            raise ValueError("mint value must be positive")
        body = TransactionBody(
            inputs=(FixedInput(OutputRef(NULL_TXID, self._mint_serial)),),
            outputs=(TxOutput(value, predicate),),
        )
        self._mint_serial += 1
        ref = OutputRef(body.digests[0], 0)
        self.utxo[ref] = body.outputs[0]
        self._credit(body.outputs[0], 1)
        self.minted_total += value
        self.log.append(LogEntry(body, None, self.height))
        self.entries[ref.txid] = self.log[-1]
        return ref

    def submit(self, body: TransactionBody, witness: Witness) -> SubmitResult:
        """Validate and apply atomically at the current height.

        The digests are the body's own, computed from its bytes the first
        time they were read, so a body built elsewhere is not encoded again.
        Each consumed output is looked up once, for the value and script checks.
        """
        ntxid, sig_digest = body.digests
        if len(witness.inputs) != len(body.inputs):
            return SubmitResult(False, None, SCRIPT_FAIL, "witness arity mismatch")
        if body.locktime > self.height:
            return SubmitResult(
                False, None, LOCKTIME, f"locktime {body.locktime} > height {self.height}"
            )

        consumed: list[OutputRef] = []
        spent: list[TxOutput] = []  # the output each consumed ref names, looked up once
        in_sum = 0
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
            prev = self.utxo.get(ref)
            if prev is None:
                if ref in self._spent:
                    return SubmitResult(
                        False, None, DOUBLE_SPEND, f"input {i}: {ref.short()} already spent"
                    )
                return SubmitResult(False, None, MISSING_INPUT, f"input {i}: unknown {ref.short()}")
            consumed.append(ref)
            spent.append(prev)
            in_sum += prev.value

        out_sum = 0
        for out in body.outputs:
            if out.value <= 0:
                out_sum = 0
                break
            out_sum += out.value
        if not out_sum:  # no output, or one that carries nothing
            return SubmitResult(False, None, VALUE_MISMATCH, "outputs must carry positive value")
        if in_sum != out_sum:
            return SubmitResult(
                False, None, VALUE_MISMATCH, f"inputs {in_sum} != outputs {out_sum}"
            )

        ctx = EvalContext(height=self.height, sig_digest=sig_digest, oracle=self.oracle)
        for i, (iw, prev) in enumerate(zip(witness.inputs, spent)):
            ok, why = evaluate_explain(prev.predicate, iw, ctx)
            if not ok:
                return SubmitResult(False, None, SCRIPT_FAIL, f"input {i}: {why}")

        for ref, prev in zip(consumed, spent):
            del self.utxo[ref]
            self._credit(prev, -1)
            self._spent.add(ref)
        for k, out in enumerate(body.outputs):
            self.utxo[OutputRef(ntxid, k)] = out
            self._credit(out, 1)
        self.log.append(LogEntry(body, witness, self.height))
        self.entries[ntxid] = self.log[-1]
        return SubmitResult(True, ntxid, None)

    # accounting helpers

    def _credit(self, out: TxOutput, sign: int) -> None:
        """Add (sign 1) or remove (sign -1) an output's value from its key's sum."""
        if isinstance(out.predicate, KeySign):
            key = out.predicate.key
            value = self._key_value.get(key, 0) + sign * out.value
            if value:
                self._key_value[key] = value
            else:
                del self._key_value[key]

    def total_utxo_value(self) -> int:
        return sum(out.value for out in self.utxo.values())

    def key_balance(self, key: bytes) -> int:
        """Value spendable unilaterally by one key."""
        return self._key_value.get(key, 0)

    def was_spent(self, ref: OutputRef) -> bool:
        return ref in self._spent

    def audit(self) -> None:
        """Assert ledger invariants; used by tests after every scenario."""
        assert self.total_utxo_value() == self.minted_total, "value conservation broken"
        by_key: dict[bytes, int] = {}
        for out in self.utxo.values():
            if isinstance(out.predicate, KeySign):
                by_key[out.predicate.key] = by_key.get(out.predicate.key, 0) + out.value
        assert by_key == self._key_value, "key balances out of sync with the UTXO set"
        seen: set[OutputRef] = set()
        for entry in self.log:
            if entry.witness is None:
                continue  # mint
            for spec, iw in zip(entry.body.inputs, entry.witness.inputs):
                ref = spec.ref if isinstance(spec, FixedInput) else iw.chosen_ref
                assert ref not in seen, f"output {ref.short()} consumed twice"
                seen.add(ref)
        assert seen == self._spent, "spent set out of sync with log"
        assert self.entries.keys() == {entry.ntxid for entry in self.log}, "log index out of sync"

    def export_log_jsonl(self) -> str:
        """One JSON object per accepted transaction, in order."""
        lines = []
        for entry in self.log:
            lines.append(json.dumps(_log_entry_json(entry), sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")


def _log_entry_json(entry: LogEntry) -> dict:
    summary: object
    if entry.witness is None:
        summary = "mint"
    else:
        summary = [
            {
                "signatures": len(iw.signatures),
                "preimage_slots": sorted(iw.preimages.keys()),
                "branch": iw.branch,
                "chosen_ref": to_json(iw.chosen_ref, Nullable(REF_JSON)),
            }
            for iw in entry.witness.inputs
        ]
    return {
        "ntxid": entry.ntxid.hex(),
        "height": entry.height,
        **to_json(entry.body, BODY_JSON),
        "witness": summary,
    }
