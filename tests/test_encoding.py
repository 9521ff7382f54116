"""Canonical encoding: the table-driven encoder against the recursive one it
replaced; the JSON codec: each record read back as its table writes it."""

import json
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from commitlotto.chain import BODY_JSON, FixedInput, MultiInput, TransactionBody, TxOutput, body_bytes
from commitlotto.primitives import OutputRef, json_value, sha256, to_json
from commitlotto.scaffold import dump_tournament, load_tournament
from commitlotto.script import (
    PREDICATE_JSON,
    AfterHeight,
    AllOf,
    AllSign,
    AnyOf,
    HashPreimage,
    KeySign,
    XorParityOdd,
    predicate_bytes,
)

from conftest import count_builds, small_tournament

# The reference: `predicate_bytes` and `body_bytes` as they stood while
# every digest in the goldens was recorded, copied with the helpers they
# imported so that they share no code with the encoder under test. Two
# lines differ from the originals, each marked "was": an AllSign is
# encoded from its keys by the expression its `encoded` field caches, and
# an output ref by the body of the `OutputRef.encode` it called.


def ref_u32(n: int) -> bytes:
    return struct.pack("<I", n)


def ref_u64(n: int) -> bytes:
    return struct.pack("<Q", n)


def ref_lp_bytes(data: bytes) -> bytes:
    return ref_u32(len(data)) + data


def ref_lp_str(s: str) -> bytes:
    return ref_lp_bytes(s.encode("utf-8"))


def ref_predicate_bytes(p) -> bytes:
    if isinstance(p, KeySign):
        return b"\x01" + ref_lp_bytes(p.key)
    if isinstance(p, AllSign):
        # was `p.encoded`
        return b"\x02" + ref_u32(len(p.keys)) + b"".join(ref_lp_bytes(k) for k in p.keys)
    if isinstance(p, HashPreimage):
        return b"\x03" + ref_lp_bytes(p.digest) + ref_lp_str(p.slot)
    if isinstance(p, AfterHeight):
        return b"\x04" + ref_u64(p.height)
    if isinstance(p, XorParityOdd):
        return b"\x05" + ref_lp_str(p.slot_a) + ref_lp_str(p.slot_b)
    if isinstance(p, AllOf):
        return b"\x06" + ref_u32(len(p.terms)) + b"".join(
            ref_lp_bytes(ref_predicate_bytes(t)) for t in p.terms
        )
    if isinstance(p, AnyOf):
        return b"\x07" + ref_u32(len(p.branches)) + b"".join(
            ref_lp_bytes(ref_predicate_bytes(b)) for b in p.branches
        )
    raise TypeError(f"not a predicate: {p!r}")


def ref_encode(ref: OutputRef) -> bytes:
    return ref.txid + ref_u32(ref.index)


def ref_body_bytes(body: TransactionBody) -> bytes:
    parts = [ref_u32(len(body.inputs))]
    for spec in body.inputs:
        if isinstance(spec, FixedInput):
            parts.append(b"\x00" + ref_encode(spec.ref))  # was spec.ref.encode()
        else:
            parts.append(b"\x01" + ref_u32(len(spec.refs)))
            parts.extend(ref_encode(r) for r in spec.refs)  # was r.encode()
    parts.append(ref_u32(len(body.outputs)))
    for out in body.outputs:
        parts.append(ref_u64(out.value))
        parts.append(ref_lp_bytes(ref_predicate_bytes(out.predicate)))
    parts.append(ref_u64(body.locktime))
    return b"".join(parts)


# strategies

U32 = hs.integers(0, 2**32 - 1)
U64 = hs.integers(0, 2**64 - 1)
BLOB = hs.binary(max_size=40)
# any text UTF-8 can encode, so non-ASCII and astral characters but no lone surrogates
SLOT = hs.text(hs.characters(codec="utf-8"), max_size=8)

def leaves(ints):
    """Leaf predicates, each height drawn from `ints`."""
    return hs.one_of(
        hs.builds(KeySign, BLOB),
        hs.builds(lambda keys: AllSign(tuple(keys)), hs.lists(BLOB, max_size=64)),
        hs.builds(HashPreimage, BLOB, SLOT),
        hs.builds(AfterHeight, ints),
        hs.builds(XorParityOdd, SLOT, SLOT),
        hs.just(AllOf(())),
        hs.just(AnyOf(())),
    )


LEAVES = leaves(U64)
COMPOUND = hs.sampled_from([AllOf, AnyOf])


def trees(depth: int, ints=U64):
    """Predicate trees with a chain of compound nodes `depth` deep; 0 to 4 children a node."""
    if depth == 0:
        return leaves(ints)
    deeper = trees(depth - 1, ints)
    return hs.builds(
        lambda kind, before, child, after: kind((*before, child, *after)),
        COMPOUND,
        hs.lists(hs.one_of(leaves(ints), deeper), max_size=2),
        deeper,
        hs.lists(leaves(ints), max_size=1),
    )


def deep_trees(ints):
    return hs.integers(3, 4).flatmap(lambda depth: trees(depth, ints))


DEEP_TREES = deep_trees(U64)


@settings(max_examples=100, deadline=None)
@given(DEEP_TREES)
@example(AnyOf((AllOf((HashPreimage(b"\x01" * 32, "süß ✓ 𝔁"), XorParityOdd("ä", "")),),)))
def test_predicate_bytes_match_the_recursive_encoder(p):
    assert predicate_bytes(p) == ref_predicate_bytes(p)


REFS = hs.builds(OutputRef, hs.binary(min_size=32, max_size=32), U32)
INPUTS = hs.one_of(
    hs.builds(FixedInput, REFS),
    # the set size is drawn first, so large sets are as likely as small ones
    hs.integers(1, 70).flatmap(lambda k: hs.lists(REFS, min_size=k, max_size=k)).map(
        lambda refs: MultiInput(tuple(refs))
    ),
)


def bodies(ints):
    """Bodies whose values, heights and locktime are drawn from `ints`."""
    outputs = hs.builds(TxOutput, ints, hs.integers(0, 3).flatmap(lambda depth: trees(depth, ints)))
    return hs.builds(
        TransactionBody,
        hs.lists(INPUTS, max_size=4).map(tuple),
        hs.lists(outputs, max_size=3).map(tuple),
        ints,
    )


BODIES = bodies(U64)


@settings(max_examples=100, deadline=None)
@given(BODIES)
@example(
    TransactionBody(
        (MultiInput(tuple(OutputRef(bytes([i]) * 32, 2**32 - 1 - i) for i in range(70))),),
        (TxOutput(2**64 - 1, AllSign((b"\xff" * 32,) * 64)),),
        2**64 - 1,
    )
)
def test_body_bytes_match_the_recursive_encoder(body):
    assert body_bytes(body) == ref_body_bytes(body)


NOT_PREDICATES = hs.sampled_from([
    None, 7, "key-sign", b"\x01", (), [KeySign(b"k")], OutputRef(b"\x00" * 32, 0),
    TxOutput(1, KeySign(b"k")),
])


def poisoned(depth: int):
    """(tree, the non-predicate in it), with the non-predicate `depth` compound nodes down."""
    if depth == 0:
        return NOT_PREDICATES.map(lambda bad: (bad, bad))
    return hs.builds(
        lambda kind, before, inner, after: (kind((*before, inner[0], *after)), inner[1]),
        COMPOUND,
        hs.lists(LEAVES, max_size=2),
        poisoned(depth - 1),
        hs.lists(LEAVES, max_size=1),
    )


@settings(max_examples=60, deadline=None)
@given(hs.integers(0, 4).flatmap(poisoned))
def test_a_non_predicate_at_any_depth_is_a_type_error_naming_it(case):
    p, bad = case
    for encode in (predicate_bytes, ref_predicate_bytes):
        with pytest.raises(TypeError, match="not a predicate") as err:
            encode(p)
        assert str(err.value) == f"not a predicate: {bad!r}"
    with pytest.raises(TypeError, match="not a predicate"):
        body_bytes(TransactionBody((), (TxOutput(1, p),)))


# the JSON codec: a file holds no integer from 2**32 up, so the round trips
# draw below that bound


def read_back(value, kind):
    return json_value(json.loads(json.dumps(to_json(value, kind))), kind, "value")


@settings(max_examples=100, deadline=None)
@given(deep_trees(U32))
def test_a_predicate_reads_back_as_its_table_writes_it(p):
    assert read_back(p, PREDICATE_JSON) == p


@settings(max_examples=100, deadline=None)
@given(bodies(U32))
def test_a_body_reads_back_as_its_table_writes_it(body):
    assert read_back(body, BODY_JSON) == body


@pytest.mark.parametrize("mode", ["plain", "multiinput"])
@pytest.mark.parametrize("deposit_option", ["atomic", "hashlocked"])
def test_a_scaffold_file_reads_back_to_the_same_text(mode, deposit_option):
    text = dump_tournament(small_tournament(4, mode=mode, deposit_option=deposit_option))
    assert dump_tournament(load_tournament(text)) == text


# kernel templates: every kernel body's digests are those of its reference
# bytes, and ids read without building are a full build's, for plain at
# n = 2, 4 and 8 (whose final level pays `KeySign` payees), multiinput at
# n = 2 to 16, both deposit options and other bet, tau and t_commit; keys
# of another length than the template's are encoded by building the kernel
PARAMS = {"bet": 3, "tau": 5, "t_commit": 17}
TEMPLATE_CASES = [
    *[("plain", n, "atomic", {}) for n in (2, 4, 8)],
    *[("multiinput", n, "atomic", {}) for n in (2, 4, 8, 16)],
    ("plain", 4, "hashlocked", {}),
    ("multiinput", 8, "hashlocked", {}),
    ("plain", 4, "hashlocked", PARAMS),
    ("multiinput", 8, "atomic", PARAMS),
    ("plain", 4, "atomic", {"keys": [bytes([0x40 + i]) * 20 for i in range(4)]}),
    ("multiinput", 4, "hashlocked", {"keys": [bytes([0x40 + i]) * (30 + i) for i in range(4)]}),
]


@pytest.mark.parametrize("mode,n,deposit_option,params", TEMPLATE_CASES)
def test_kernel_templates_encode_every_body_as_the_reference_encoder(monkeypatch, mode, n, deposit_option, params):
    def tournament():
        return small_tournament(n, mode=mode, deposit_option=deposit_option, **params)

    kernels = dict(tournament().kernels)  # every kernel, built up front
    for kernel in kernels.values():
        for body in kernel.bodies:
            data = ref_body_bytes(body)
            assert body.digests == (sha256(b"ntxid:" + data), sha256(b"sigmsg:" + data))
    unbuilt = tournament()
    built = count_builds(monkeypatch)
    for kid in sorted(kernels, reverse=True):  # the top level first: its stakes' ids are read on the way
        assert unbuilt.kernel_ids(kid) == kernels[kid].ntxids
    if "keys" not in params:
        assert built["kernel"] == []
