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
from typing import NamedTuple

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

    def to_json(self) -> dict:
        return {"txid": self.txid.hex(), "index": self.index}

    @staticmethod
    def from_json(obj, where: str) -> "OutputRef":
        return OutputRef(json_field(obj, "txid", bytes, where), json_field(obj, "index", int, where))


def json_value(value, kind: type, where: str):
    """A decoded JSON value checked against `kind`; ValueError naming `where` if it fails.

    `bytes` means a hex string, returned decoded. `int` means a non-negative
    integer below 2**32: every integer in a file the program writes (a
    height, value, count or index) is one, and the bound keeps the heights
    and pots derived from them inside the 64-bit encodings. `str` means a
    string UTF-8 can encode, as a slot name must be to enter the canonical
    encoding; a JSON escape such as `\\udc80` decodes to a lone surrogate,
    which it cannot. Other kinds are isinstance checks.
    """
    if kind is bytes:
        if isinstance(value, str):
            try:
                return bytes.fromhex(value)
            except ValueError:
                pass
        expected = "a hex string"
    elif kind is str:
        if isinstance(value, str):
            try:
                value.encode("utf-8")
                return value
            except UnicodeEncodeError:
                pass
        expected = "a string UTF-8 can encode"
    elif kind is int:
        if type(value) is int and 0 <= value < 1 << 32:
            return value
        expected = "a non-negative 32-bit integer"
    elif isinstance(value, kind):
        return value
    else:
        expected = kind.__name__
    raise ValueError(f"{where}: expected {expected}, got {value!r:.40}")


def json_field(obj, key: str, kind: type, where: str):
    """`obj[key]` checked by `json_value`, where `obj` must be a JSON object that has `key`."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"{where}: missing field {key!r}")
    return json_value(obj[key], kind, f"{where}.{key}")


class ConfigError(ValueError):
    """Parameters no honest run can use."""


class NotPowerOfTwo(ConfigError):
    pass


def num_levels(n: int) -> int:
    """Levels of a bracket over n players; n must be a power of two >= 2."""
    if n < 2 or n & (n - 1):
        raise NotPowerOfTwo(f"player count {n} is not a power of two >= 2")
    return n.bit_length() - 1


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
