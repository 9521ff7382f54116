"""Low-level helpers shared across the package.

Canonical encodings are length-prefixed fields in declaration order with
fixed-width little-endian integers, so every digest in the system is a pure
function of the encoded structure; `u32` and `u64` pack those integers
through one compiled `struct.Struct` each. The deterministic RNG is a SHA-256
counter stream; child streams are derived by label so independent consumers
never share state and replays are bit-exact across platforms.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Callable, NamedTuple, Optional

HASH_BYTES = 32
SIG_LAMBDA = 32  # nominal signature size in bytes, used for cost accounting
NULL_TXID = b"\x00" * HASH_BYTES


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


# fixed-width little-endian integers: the bound `pack` of one compiled
# Struct each, so an encoder calls the packer with no wrapper in between
u32 = struct.Struct("<I").pack
u64 = struct.Struct("<Q").pack


def lp_bytes(data: bytes) -> bytes:
    """Length-prefixed byte string."""
    return u32(len(data)) + data


def lp_str(s: str) -> bytes:
    data = s.encode("utf-8")
    return u32(len(data)) + data


class OutputRef(NamedTuple):
    """Reference to one output of a transaction, by normalized id and index."""

    txid: bytes
    index: int

    def short(self) -> str:
        return f"{self.txid.hex()[:12]}:{self.index}"


# The JSON codec. A kind is `int`, `str`, `bytes` (a hex string) or one of
# the classes below; `to_json` writes a value of a kind and `json_value`
# reads it back, so each file record is described once, by its `Record`
# table, for both directions.


class ListOf(NamedTuple):
    item: object  # read as a tuple


class Sized(NamedTuple):
    kind: object  # `bytes` or a `ListOf`, of exactly `length` bytes or items
    length: int


class Nullable(NamedTuple):
    kind: object  # or null, read as None


class Record(NamedTuple):
    """A JSON object: its keys in order, each with the kind of its value.
    `build` makes the object from those values and `parts` takes it apart
    into them, by default the attributes the keys name. A key the table
    does not name is refused."""

    fields: dict
    build: Callable
    parts: Optional[Callable] = None


class Tagged(NamedTuple):
    """One of several records, named by its key `tag`: `cases` maps each
    name to the class written under it and that class's `Record`."""

    tag: str
    cases: dict


REF_JSON = Record({"txid": Sized(bytes, HASH_BYTES), "index": int}, OutputRef)


def to_json(value, kind):
    """`value` as the JSON value of `kind` that `json_value` reads back."""
    if type(kind) is Sized:
        kind = kind.kind
    if kind is bytes:
        return value.hex()
    if type(kind) is ListOf:
        return [to_json(item, kind.item) for item in value]
    if type(kind) is Nullable:
        return None if value is None else to_json(value, kind.kind)
    if type(kind) is Tagged:
        for name, (cls, record) in kind.cases.items():
            if type(value) is cls:
                return {kind.tag: name, **to_json(value, record)}
        raise TypeError(f"no {kind.tag} is written for {value!r:.40}")
    if type(kind) is Record:
        parts = kind.parts(value) if kind.parts else [getattr(value, key) for key in kind.fields]
        return {key: to_json(part, sub) for (key, sub), part in zip(kind.fields.items(), parts)}
    return value


class _Fault(Exception):
    """Raised with (path, problem) for a part of a JSON value that is not of its kind."""


def json_value(value, kind, where: str):
    """A decoded JSON value read as `kind`; ValueError naming the part at
    fault, by its path inside `value` (`kernels[0].entry`), or `where`.

    `int` means a non-negative integer below 2**32: every integer in a file
    the program writes (a height, value, count or index) is one, and the
    bound keeps the heights and pots derived from them inside the 64-bit
    encodings. `str` means a string UTF-8 can encode, as a slot name must
    be to enter the canonical encoding; a JSON escape such as `\\udc80`
    decodes to a lone surrogate, which it cannot.
    """
    try:
        return _read(value, kind, "")
    except _Fault as fault:
        path, problem = fault.args
        raise ValueError(f"{path or where}: {problem}") from None


def _read(value, kind, path: str):
    if kind is int:
        if type(value) is int and 0 <= value < 1 << 32:
            return value
        expected = "a non-negative 32-bit integer"
    elif kind is str:
        if type(value) is str:
            try:
                value.encode("utf-8")
                return value
            except UnicodeEncodeError:
                pass
        expected = "a string UTF-8 can encode"
    elif kind is bytes:
        try:
            return bytes.fromhex(value)
        except (TypeError, ValueError):
            expected = "a hex string"
    elif type(kind) is ListOf:
        if type(value) is list:
            return tuple([_read(item, kind.item, f"{path}[{i}]") for i, item in enumerate(value)])
        expected = "a list"
    elif type(kind) is Sized:
        got = _read(value, kind.kind, path)
        if len(got) != kind.length:
            unit = "bytes" if kind.kind is bytes else "items"
            raise _Fault(path, f"expected {kind.length} {unit}, got {len(got)}")
        return got
    elif type(kind) is Nullable:
        return None if value is None else _read(value, kind.kind, path)
    elif type(value) is not dict:
        expected = "an object"
    elif type(kind) is Tagged:
        if kind.tag not in value:
            raise _Fault(path, f"missing field {kind.tag!r}")
        name = value[kind.tag]
        if type(name) is not str or name not in kind.cases:
            raise _Fault(path, f"unknown {kind.tag} {name!r:.40}")
        return _read_record(value, kind.cases[name][1], path, kind.tag)
    else:
        return _read_record(value, kind, path)
    raise _Fault(path, f"expected {expected}, got {value!r:.40}")


def _read_record(value: dict, record: Record, path: str, tag: Optional[str] = None):
    fields = record.fields
    for key in value:
        if key not in fields and key != tag:
            raise _Fault(path, f"unknown field {key!r}")
    for key in fields:
        if key not in value:
            raise _Fault(path, f"missing field {key!r}")
    parts = [_read(value[key], kind, f"{path}.{key}" if path else key) for key, kind in fields.items()]
    return record.build(*parts)


class ConfigError(ValueError):
    """Parameters no honest run can use."""


class NotPowerOfTwo(ConfigError):
    pass


# The names both backends' trials read, here so that a contract trial
# loads no part of the scaffold stack; `scaffold` re-exports them.
MODE_PLAIN = "plain"
MODE_MULTIINPUT = "multiinput"

DEPOSIT_ATOMIC = "atomic"
DEPOSIT_HASHLOCKED = "hashlocked"

# the scaffold roles a strategy tells apart (`BroadcastView.kind`)
ROLE_REVEAL = "reveal"
ROLE_OUTCOME_BP = "outcome-bp"
ROLE_DEPOSIT = "deposit"


def num_levels(n: int) -> int:
    """Levels of a bracket over n players; n must be a power of two >= 2."""
    if n < 2 or n & (n - 1):
        raise NotPowerOfTwo(f"player count {n} is not a power of two >= 2")
    return n.bit_length() - 1


def matches_at(n: int, level: int) -> int:
    """Matches at a bracket level: the one definition of a level's width."""
    return n >> (level + 1)


def level_stride(tau: int, compressed: bool = False) -> int:
    """Heights between the starts of consecutive bracket levels.

    A level spends tau on its entry window and tau on its reveal window; a
    multiinput level leaves as much again for its compression step.
    """
    return (4 if compressed else 2) * tau


def level_schedule(t_commit: int, stride: int, tau: int, level: int) -> tuple[int, int, int]:
    """(t0, t1, t2) of a bracket level: its start, entry timeout and reveal timeout."""
    t0 = t_commit + stride * level
    return t0, t0 + tau, t0 + 2 * tau


def check_params(n: int, tau: int, t_commit: int, bet: int) -> None:
    """Raise ConfigError unless the bracket parameters leave every window usable.

    The one check of these bounds: every command and both backends' builders
    call it, and verify reports its message as BadParams. A level's entry
    and reveal windows each need a height strictly inside them, so tau >= 2;
    setup and deposits need heights before the commit deadline. Heights and
    pots stay below 2**32, the cap of `json_value`, so every scaffold written
    can be read back; the height bound holds for the wider multiinput stride
    through the end of the last level, so it does not depend on the mode.
    """
    levels = num_levels(n)
    if tau < 2:
        raise ConfigError("tau must be >= 2 so action windows have usable heights")
    if t_commit < 2:
        raise ConfigError("t_commit must be >= 2 to leave room for setup")
    if bet < 1:
        raise ConfigError("bet must be a positive integer")
    if level_schedule(t_commit, level_stride(tau, True), tau, levels)[0] >= 1 << 32:
        raise ConfigError("t_commit and tau must keep every height of the schedule below 2^32")
    if n * bet >= 1 << 32:
        raise ConfigError("the final pot n * bet must be below 2^32")


class Rng:
    """Deterministic byte stream seeded by an integer, string or bytes.

    Output block i is sha256(key || i); `child(label)` derives a stream
    whose key mixes in the label, which keeps sibling consumers independent.
    """

    __slots__ = ("_key", "_counter")

    def __init__(self, seed: bytes | int | str):
        if isinstance(seed, int):
            seed = str(seed).encode("utf-8")
        elif isinstance(seed, str):
            seed = seed.encode("utf-8")
        self._key = sha256(b"rng-seed:" + seed)
        self._counter = 0

    def child(self, label) -> "Rng":
        r = Rng.__new__(Rng)
        r._key = sha256(self._key + b"/" + str(label).encode("utf-8"))
        r._counter = 0
        return r

    def bytes(self, n: int) -> bytes:
        if 0 < n <= 32:  # one block, cut
            self._counter += 1
            return sha256(self._key + u64(self._counter - 1))[:n]
        out = bytearray()
        while len(out) < n:
            out += sha256(self._key + u64(self._counter))
            self._counter += 1
        return bytes(out[:n])

    def nonzero_bytes(self, n: int) -> bytes:
        # all-zero strings are reserved as "unset" sentinels by callers
        while True:
            b = self.bytes(n)
            if any(b):
                return b

    def nonzero_u256(self) -> int:
        return int.from_bytes(self.nonzero_bytes(32), "big")
