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

from .primitives import NULL_TXID, OutputRef, json_field, lp_bytes, sha256, u32, u64
from .script import (
    EvalContext,
    KeySign,
    Predicate,
    SignatureOracle,
    Witness,
    evaluate_explain,
    predicate_bytes,
    predicate_from_json,
    predicate_to_json,
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


def multi_input(refs) -> MultiInput:
    """Normalize a candidate set: sorted, deduplicated, non-empty."""
    normalized = tuple(sorted(set(refs)))
    if not normalized:
        raise ValueError("EmptySet: MultiInput needs at least one candidate ref")
    return MultiInput(normalized)


class TxOutput(NamedTuple):
    value: int
    predicate: Predicate


class TransactionBody(NamedTuple):
    inputs: tuple[TxInput, ...]
    outputs: tuple[TxOutput, ...]
    locktime: int = 0


def body_bytes(body: TransactionBody) -> bytes:
    parts = [u32(len(body.inputs))]
    for spec in body.inputs:
        if isinstance(spec, FixedInput):
            parts.append(b"\x00" + spec.ref.encode())
        else:
            parts.append(b"\x01" + u32(len(spec.refs)))
            parts.extend(r.encode() for r in spec.refs)
    parts.append(u32(len(body.outputs)))
    for out in body.outputs:
        parts.append(u64(out.value))
        parts.append(lp_bytes(predicate_bytes(out.predicate)))
    parts.append(u64(body.locktime))
    return b"".join(parts)


def body_digests(body: TransactionBody) -> tuple[bytes, bytes]:
    """Encode a body once and return its (ntxid, signature digest).

    The ntxid is the witness-independent transaction id. The signature
    digest is what a signer commits to for any input: the canonical body
    already encodes a MultiInput as its full candidate set (the chosen ref
    lives in the witness), so one signing covers every member of the set,
    and all inputs of a body share a single digest.
    """
    data = body_bytes(body)
    return sha256(b"ntxid:" + data), sha256(b"sigmsg:" + data)


def compute_ntxid(body: TransactionBody) -> bytes:
    """Witness-independent transaction id."""
    return body_digests(body)[0]


def sig_digest_for(body: TransactionBody) -> bytes:
    """Digest a signer commits to when authorizing any input of a body."""
    return body_digests(body)[1]


def body_to_json(body: TransactionBody) -> dict:
    inputs = [
        {"kind": "fixed", **spec.ref.to_json()}
        if isinstance(spec, FixedInput)
        else {"kind": "multi", "refs": [r.to_json() for r in spec.refs]}
        for spec in body.inputs
    ]
    return {
        "inputs": inputs,
        "outputs": [
            {"value": out.value, "predicate": predicate_to_json(out.predicate)}
            for out in body.outputs
        ],
        "locktime": body.locktime,
    }


def body_from_json(obj: dict, where: str = "body") -> TransactionBody:
    """Decode `body_to_json` output; malformed input raises ValueError naming `where`."""
    inputs: list[TxInput] = []
    for i, spec in enumerate(json_field(obj, "inputs", list, where)):
        at = f"{where}.inputs[{i}]"
        kind = json_field(spec, "kind", str, at)
        if kind == "fixed":
            inputs.append(FixedInput(OutputRef.from_json(spec, at)))
        elif kind == "multi":
            refs = json_field(spec, "refs", list, at)
            inputs.append(
                MultiInput(tuple(OutputRef.from_json(r, f"{at}.refs[{j}]") for j, r in enumerate(refs)))
            )
        else:
            raise ValueError(f"{at}.kind: unknown input kind {kind!r}")
    outputs = []
    for i, out in enumerate(json_field(obj, "outputs", list, where)):
        at = f"{where}.outputs[{i}]"
        pred = predicate_from_json(json_field(out, "predicate", dict, at), f"{at}.predicate")
        outputs.append(TxOutput(json_field(out, "value", int, at), pred))
    return TransactionBody(tuple(inputs), tuple(outputs), json_field(obj, "locktime", int, where))


class SubmitResult(NamedTuple):
    accepted: bool
    ntxid: Optional[bytes]
    reason: Optional[str]
    detail: str = ""


class LogEntry(NamedTuple):
    ntxid: bytes
    body: TransactionBody
    witness: Optional[Witness]  # None marks a mint
    height: int


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
        self._mint_serial = 0

    def advance(self, blocks: int = 1) -> int:
        if blocks < 1:
            raise ValueError("advance by at least one block")
        self.height += blocks
        return self.height

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
        ntxid = compute_ntxid(body)
        ref = OutputRef(ntxid, 0)
        self.utxo[ref] = body.outputs[0]
        self.minted_total += value
        self.log.append(LogEntry(ntxid, body, None, self.height))
        self.entries[ntxid] = self.log[-1]
        return ref

    def submit(self, body: TransactionBody, witness: Witness) -> SubmitResult:
        """Validate and apply atomically at the current height."""
        ntxid, sig_digest = body_digests(body)
        if len(witness.inputs) != len(body.inputs):
            return SubmitResult(False, None, SCRIPT_FAIL, "witness arity mismatch")
        if body.locktime > self.height:
            return SubmitResult(
                False, None, LOCKTIME, f"locktime {body.locktime} > height {self.height}"
            )

        consumed: list[OutputRef] = []
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
            del self.utxo[ref]
            self._spent.add(ref)
        for k, out in enumerate(body.outputs):
            self.utxo[OutputRef(ntxid, k)] = out
        self.log.append(LogEntry(ntxid, body, witness, self.height))
        self.entries[ntxid] = self.log[-1]
        return SubmitResult(True, ntxid, None)

    # accounting helpers

    def total_utxo_value(self) -> int:
        return sum(out.value for out in self.utxo.values())

    def key_balance(self, key: bytes) -> int:
        """Value spendable unilaterally by one key."""
        return sum(
            out.value
            for out in self.utxo.values()
            if isinstance(out.predicate, KeySign) and out.predicate.key == key
        )

    def is_unspent(self, ref: OutputRef) -> bool:
        return ref in self.utxo

    def was_spent(self, ref: OutputRef) -> bool:
        return ref in self._spent

    def audit(self) -> None:
        """Assert ledger invariants; used by tests after every scenario."""
        assert self.total_utxo_value() == self.minted_total, "value conservation broken"
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
                "chosen_ref": iw.chosen_ref.to_json() if iw.chosen_ref else None,
            }
            for iw in entry.witness.inputs
        ]
    return {
        "ntxid": entry.ntxid.hex(),
        "height": entry.height,
        **body_to_json(entry.body),
        "witness": summary,
    }
