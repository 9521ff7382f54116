"""Spending predicates, witnesses and the ideal signature oracle.

Predicates form a small semantic AST instead of a byte-level script VM:
N-of-N multisig, hash locks, absolute time locks, a one-bit XOR parity check
over two revealed preimages, and conjunction/alternation combinators. An
AnyOf never scans branches; the witness's branch selector picks exactly one,
so evaluation order can never leak an unintended spend path. Each node
class has one canonical encoder (`_ENCODERS`), picked by one lookup.

Signatures come from an ideal oracle that records (key, digest) pairs, one
at a time or as a whole digest registry per key. A witness names the keys
that sign it, and verification succeeds only for recorded pairs, which
models unforgeability without real cryptography and keeps runs
deterministic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Container, Mapping, Optional, Union

from .primitives import ListOf, OutputRef, Record, Tagged, lp_bytes, lp_str, sha256, u32, u64


@dataclass(frozen=True)
class KeySign:
    """Spendable by a signature from one key."""

    key: bytes


@dataclass(frozen=True)
class AllSign:
    """Spendable only with a signature from every listed key.

    The n-key master predicate sits inside almost every scaffold body, so
    its canonical encoding is built once here and reused by
    `predicate_bytes`.
    """

    keys: tuple[bytes, ...]
    encoded: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        encoded = _TAG_ALLSIGN + u32(len(self.keys)) + b"".join(lp_bytes(k) for k in self.keys)
        object.__setattr__(self, "encoded", encoded)


@dataclass(frozen=True)
class HashPreimage:
    """Requires a preimage of `digest` supplied in the named witness slot."""

    digest: bytes
    slot: str


@dataclass(frozen=True)
class AfterHeight:
    """True once the chain height reaches `height` (absolute time lock)."""

    height: int


@dataclass(frozen=True)
class XorParityOdd:
    """True iff the low bits of two slot preimages XOR to 1.

    Parity is taken from the last byte of each preimage. The slots must be
    bound by HashPreimage terms inside the same AllOf, otherwise arbitrary
    bytes could satisfy the check.
    """

    slot_a: str
    slot_b: str


@dataclass(frozen=True)
class AllOf:
    terms: tuple


@dataclass(frozen=True)
class AnyOf:
    branches: tuple


Predicate = Union[KeySign, AllSign, HashPreimage, AfterHeight, XorParityOdd, AllOf, AnyOf]

_TAG_KEYSIGN = b"\x01"
_TAG_ALLSIGN = b"\x02"
_TAG_HASHPRE = b"\x03"
_TAG_AFTER = b"\x04"
_TAG_XOR = b"\x05"
_TAG_ALLOF = b"\x06"
_TAG_ANYOF = b"\x07"


def predicate_bytes(p: Predicate) -> bytes:
    """Canonical serialization, the basis of all transaction digests.

    One lookup in `_ENCODERS` by the node's class picks its encoder, here
    and for each child of a compound node, so anything that is not a
    predicate raises TypeError at whatever depth it sits.
    """
    return _ENCODERS.get(type(p), _not_a_predicate)(p)


def _not_a_predicate(p) -> bytes:
    raise TypeError(f"not a predicate: {p!r}")


def _compound(tag: bytes, nodes: tuple) -> bytes:
    """`tag`, the child count and each child's length-prefixed encoding, in one join."""
    parts = [tag, u32(len(nodes))]
    for node in nodes:
        data = _ENCODERS.get(type(node), _not_a_predicate)(node)
        parts += (u32(len(data)), data)
    return b"".join(parts)


_ENCODERS = {
    KeySign: lambda p: _TAG_KEYSIGN + lp_bytes(p.key),
    AllSign: operator.attrgetter("encoded"),
    HashPreimage: lambda p: _TAG_HASHPRE + lp_bytes(p.digest) + lp_str(p.slot),
    AfterHeight: lambda p: _TAG_AFTER + u64(p.height),
    XorParityOdd: lambda p: _TAG_XOR + lp_str(p.slot_a) + lp_str(p.slot_b),
    AllOf: lambda p: _compound(_TAG_ALLOF, p.terms),
    AnyOf: lambda p: _compound(_TAG_ANYOF, p.branches),
}


# the JSON record of a predicate node, by its "op"; the compound nodes'
# children are predicates, so their cases are added once the table exists
PREDICATE_JSON = Tagged("op", {
    "key-sign": (KeySign, Record({"key": bytes}, KeySign)),
    "all-sign": (AllSign, Record({"keys": ListOf(bytes)}, AllSign)),
    "hash-preimage": (HashPreimage, Record({"digest": bytes, "slot": str}, HashPreimage)),
    "after-height": (AfterHeight, Record({"height": int}, AfterHeight)),
    "xor-parity-odd": (XorParityOdd, Record({"slot_a": str, "slot_b": str}, XorParityOdd)),
})
PREDICATE_JSON.cases["all-of"] = (AllOf, Record({"terms": ListOf(PREDICATE_JSON)}, AllOf))
PREDICATE_JSON.cases["any-of"] = (AnyOf, Record({"branches": ListOf(PREDICATE_JSON)}, AnyOf))


def commitment(secret: bytes) -> bytes:
    """Commitment digest for a scaffold secret."""
    return sha256(secret)


def parity_bit(preimage: bytes) -> int:
    return preimage[-1] & 1


class NotKeyOwner(Exception):
    """Raised when a party asks the oracle to sign with a key it does not own."""


class SignatureOracle:
    """Ideal signatures: verify(key, digest) is true iff key's owner signed digest.

    An owner signs one digest with `sign`, or a whole digest registry in
    one act with `sign_all`. The scaffold ceremony uses the latter: each
    player verifies the scaffold, then approves all of it, and from then on
    the oracle accepts that key's signature over a digest if and only if
    the digest is a member of the approved registry. The registry is the
    scaffold's live digest set, so the test is one membership lookup, and
    bodies of the approved scaffold that are built after the ceremony are
    covered. The oracle keeps, per registry, the keys that approved it, so
    "did every listed key approve this digest" (`verify_all`) is one probe
    of a registry they all approved.
    """

    def __init__(self) -> None:
        self._owners: dict[bytes, object] = {}
        self._signed: set[tuple[bytes, bytes]] = set()
        # id(registry) -> (registry, the keys that approved it); holding the
        # registry keeps its id from being reused
        self._registries: dict[int, tuple[Container[bytes], set[bytes]]] = {}

    def register_key(self, party, key: bytes) -> None:
        self._owners[key] = party

    def _check_owner(self, party, key: bytes) -> None:
        if self._owners.get(key) != party:
            raise NotKeyOwner(f"{party!r} does not own key {key.hex()[:12]}")

    def sign(self, party, key: bytes, digest: bytes) -> None:
        self._check_owner(party, key)
        self._signed.add((key, digest))

    def sign_all(self, party, key: bytes, digests: Container[bytes]) -> None:
        """Record key's signature over every digest in `digests`, in one act.

        The container is kept, not copied: a digest it holds when a
        signature is checked verifies.
        """
        self._check_owner(party, key)
        self._registries.setdefault(id(digests), (digests, set()))[1].add(key)

    def verify(self, key: bytes, digest: bytes) -> bool:
        if (key, digest) in self._signed:
            return True
        return any(
            key in approvers and digest in registry
            for registry, approvers in self._registries.values()
        )

    def verify_all(self, keys: tuple[bytes, ...], digest: bytes) -> bool:
        """True if every key in `keys` approved one registry that holds `digest`.

        False does not mean a key failed: approvals split across registries,
        or made one digest at a time, are found only by `verify`, key by key.
        """
        return any(
            digest in registry and approvers.issuperset(keys)
            for registry, approvers in self._registries.values()
        )


@dataclass
class InputWitness:
    """Witness material for one transaction input.

    `signatures` names the keys that sign the input; the oracle's records
    decide whether each did. `preimages` maps slot labels to revealed byte
    strings, `branch` selects an AnyOf alternative and `chosen_ref` names
    the consumed member of a MultiInput set.
    """

    signatures: tuple[bytes, ...] = ()
    preimages: Mapping[str, bytes] = field(default_factory=dict)
    branch: Optional[int] = None
    chosen_ref: Optional[OutputRef] = None


@dataclass
class Witness:
    inputs: tuple[InputWitness, ...] = ()


@dataclass
class EvalContext:
    """Information a predicate may consult during evaluation."""

    height: int
    sig_digest: bytes
    oracle: SignatureOracle


def evaluate_explain(p: Predicate, w: InputWitness, ctx: EvalContext) -> tuple[bool, Optional[str]]:
    """Evaluate and, on failure, say why.

    Malformed witnesses (missing slots, signatures or branch selectors)
    evaluate false like any other failure; the reason string distinguishes
    them for diagnostics.
    """
    if isinstance(p, KeySign):
        if p.key not in w.signatures:
            return False, f"missing signature material for key {p.key.hex()[:12]}"
        if not ctx.oracle.verify(p.key, ctx.sig_digest):
            return False, f"signature check failed for key {p.key.hex()[:12]}"
        return True, None
    if isinstance(p, AllSign):
        supplied = set(w.signatures)
        if supplied.issuperset(p.keys) and ctx.oracle.verify_all(p.keys, ctx.sig_digest):
            return True, None
        # find the first key that fails, and say why
        for key in p.keys:
            if key not in supplied:
                return False, f"missing signature material for key {key.hex()[:12]}"
            if not ctx.oracle.verify(key, ctx.sig_digest):
                return False, f"signature check failed for key {key.hex()[:12]}"
        return True, None
    if isinstance(p, HashPreimage):
        pre = w.preimages.get(p.slot)
        if pre is None:
            return False, f"missing preimage slot {p.slot!r}"
        if sha256(pre) != p.digest:
            return False, f"wrong preimage in slot {p.slot!r}"
        return True, None
    if isinstance(p, AfterHeight):
        if ctx.height < p.height:
            return False, f"height {ctx.height} below lock {p.height}"
        return True, None
    if isinstance(p, XorParityOdd):
        a = w.preimages.get(p.slot_a)
        b = w.preimages.get(p.slot_b)
        if not a or not b:
            return False, "missing parity preimages"
        if (parity_bit(a) ^ parity_bit(b)) != 1:
            return False, "xor parity is even"
        return True, None
    if isinstance(p, AllOf):
        for term in p.terms:
            ok, why = evaluate_explain(term, w, ctx)
            if not ok:
                return False, why
        return True, None
    if isinstance(p, AnyOf):
        # exactly one branch is evaluated, chosen by the witness
        if w.branch is None:
            return False, "missing branch selector"
        if not (0 <= w.branch < len(p.branches)):
            return False, f"branch selector {w.branch} out of range"
        return evaluate_explain(p.branches[w.branch], w, ctx)
    raise TypeError(f"not a predicate: {p!r}")
