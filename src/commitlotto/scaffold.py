"""Pre-signed transaction scaffold for the UTXO tournament backend.

A tournament over N = 2^L players is a binary bracket. Each match is played
by a family of five-transaction kernels: an entry that joins the two stakes,
a reveal that opens the left player's commitment, and three mutually
exclusive outcomes (left wins by reveal timeout, right wins by entry
timeout, right wins by revealing odd parity). Because a match at level l+1
must be wired to concrete child outputs, plain mode needs one kernel per
combination of child (kernel, outcome) pairs, which squares per level:

    kernels(0) = 1,   kernels(l+1) = (3 * kernels(l)) ** 2

Multiinput mode collapses that blowup: per candidate winner of a match, one
compression transaction spends whichever outcome output actually paid that
candidate (a MultiInput set), so the next level only needs one kernel per
pair of candidate identities, 4^l per match.

Everything here is built unsigned, and NTXIDs never cover witness data. A
kernel is a pure function of the public parameters, its two commitments
and its two stake refs, so `Tournament.kernels` builds each kernel the
first time it is read, from its children's outcome ntxids, and keeps it. A
trial builds only the kernels play reaches, one per match; iterating the
table builds the rest, with the same bytes. The signing ceremony approves
the honest scaffold as a whole: a key's approval is membership in the
tournament's registry of signature digests, which honest construction
fills as it builds bodies.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from collections.abc import MutableMapping
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .chain import (
    FixedInput,
    TransactionBody,
    TxOutput,
    body_bytes,
    body_digests,
    body_from_json,
    body_to_json,
    multi_input,
)
from .primitives import (
    SIG_LAMBDA,
    ConfigError,
    NotPowerOfTwo,  # re-exported with num_levels
    OutputRef,
    Rng,
    check_params,
    json_field,
    json_value,
    level_schedule,
    level_stride,
    num_levels,
    sha256,
)
from .script import (
    AfterHeight,
    AllOf,
    AllSign,
    AnyOf,
    HashPreimage,
    KeySign,
    Predicate,
    SignatureOracle,
    XorParityOdd,
    commitment,
)

MODE_PLAIN = "plain"
MODE_MULTIINPUT = "multiinput"

DEPOSIT_ATOMIC = "atomic"
DEPOSIT_HASHLOCKED = "hashlocked"

SLOT_LEFT = "left"
SLOT_RIGHT = "right"
SLOT_MPC = "mpc"

# AnyOf branch indexes shared by all kernel and deposit predicates
BRANCH_REVEAL = 0
BRANCH_TIMEOUT = 1
BRANCH_DEPOSIT_SPEND = 0
BRANCH_DEPOSIT_REFUND = 1

ROLE_ENTRY = "entry"
ROLE_REVEAL = "reveal"
ROLE_OUTCOMES = ("outcome-a", "outcome-b", "outcome-bp")
ROLE_COMPRESSION = "compression"
ROLE_DEPOSIT = "deposit"

SIDE_LEFT = 0
SIDE_RIGHT = 1


class IndexOutOfRange(IndexError):
    pass


class MpcIncomplete(Exception):
    pass


class KernelId(NamedTuple):
    level: int
    match: int
    combo: int


def matches_at(n: int, level: int) -> int:
    return n >> (level + 1)


def kernel_count(level: int, mode: str = MODE_PLAIN) -> int:
    """Kernels needed per match at a level.

    Plain mode follows the squaring recurrence (closed form 9^(2^l - 1)).
    Multiinput mode needs one kernel per pair of candidate winners, 4^l.
    """
    if level < 0:
        raise IndexOutOfRange("level must be >= 0")
    if mode == MODE_MULTIINPUT:
        return 4**level
    count = 1
    for _ in range(level):
        count = 9 * count * count
    return count


def kernel_count_geometric(level: int) -> int:
    """The tempting per-level closed form 9^l.

    It matches the squaring recurrence only for levels 0 and 1; from level 2
    on it undercounts (729 vs 81 at level 2) because each parent kernel must
    name a concrete child kernel, not just a child outcome class. Exposed so
    the discrepancy stays documented by tests.
    """
    return 9**level


def unpack_index(level: int, match: int, combo: int) -> tuple[int, int, int, int]:
    """Split a plain-mode combination index into child coordinates.

    Returns (left_kernel, left_tx, right_kernel, right_tx) for the two child
    matches of `match`. The combination index enumerates left-major over
    3 * kernels(level-1) child outcomes per side.
    """
    if level < 1:
        raise IndexOutOfRange("level-0 kernels have no child coordinates")
    child_kernels = kernel_count(level - 1)
    per_side = 3 * child_kernels
    if not (0 <= combo < per_side * per_side):
        raise IndexOutOfRange(f"combo {combo} out of range for level {level}")
    left_idx, right_idx = divmod(combo, per_side)
    return (left_idx // 3, left_idx % 3, right_idx // 3, right_idx % 3)


def pack_index(level: int, left_kernel: int, left_tx: int, right_kernel: int, right_tx: int) -> int:
    """Inverse of `unpack_index`: child coordinates -> plain-mode combination index."""
    if level < 1:
        raise IndexOutOfRange("level-0 kernels have no child coordinates")
    child_kernels = kernel_count(level - 1)
    for kernel, tx in ((left_kernel, left_tx), (right_kernel, right_tx)):
        if not (0 <= kernel < child_kernels and 0 <= tx < 3):
            raise IndexOutOfRange(f"child ({kernel}, {tx}) out of range for level {level}")
    return (3 * left_kernel + left_tx) * 3 * child_kernels + 3 * right_kernel + right_tx


def winner_side(tx_index: int) -> int:
    """Which side a kernel outcome pays: outcome 0 pays left, 1 and 2 pay right."""
    if tx_index not in (0, 1, 2):
        raise IndexOutOfRange(f"outcome index {tx_index} out of range")
    return SIDE_LEFT if tx_index == 0 else SIDE_RIGHT


def candidates(n: int, level: int, match: int) -> list[int]:
    """Players whose bracket path can reach match `match` at `level`."""
    num_levels(n)
    width = 1 << (level + 1)
    if not (0 <= match < matches_at(n, level)):
        raise IndexOutOfRange(f"match {match} out of range at level {level}")
    return list(range(match * width, (match + 1) * width))


def multi_candidate_pair(n: int, level: int, match: int, combo: int) -> tuple[int, int]:
    """Multiinput combination index -> (left candidate, right candidate)."""
    side = 1 << level
    if not (0 <= combo < side * side):
        raise IndexOutOfRange(f"combo {combo} out of range for level {level}")
    left_cands = candidates(n, level - 1, 2 * match) if level else [2 * match]
    right_cands = candidates(n, level - 1, 2 * match + 1) if level else [2 * match + 1]
    return left_cands[combo // side], right_cands[combo % side]


def multi_combo_index(n: int, level: int, match: int, left: int, right: int) -> int:
    """Inverse of `multi_candidate_pair`: (left, right candidate) -> combination index."""
    if not (0 <= match < matches_at(n, level)):
        raise IndexOutOfRange(f"match {match} out of range at level {level}")
    side = 1 << level
    left_idx, right_idx = left - 2 * match * side, right - (2 * match + 1) * side
    if not (0 <= left_idx < side and 0 <= right_idx < side):
        raise IndexOutOfRange(f"players {left}, {right} do not meet in match {match}")
    return left_idx * side + right_idx


def players_of(n: int, level: int, match: int, combo: int, mode: str = MODE_PLAIN) -> tuple[int, int]:
    """Left and right player identity of a kernel, by pure index arithmetic."""
    levels = num_levels(n)
    if not (0 <= level < levels):
        raise IndexOutOfRange(f"level {level} out of range")
    if not (0 <= match < matches_at(n, level)):
        raise IndexOutOfRange(f"match {match} out of range at level {level}")
    if level == 0:
        if combo != 0:
            raise IndexOutOfRange("level 0 has a single kernel per match")
        return 2 * match, 2 * match + 1
    if mode == MODE_MULTIINPUT:
        return multi_candidate_pair(n, level, match, combo)
    lk, lt, rk, rt = unpack_index(level, match, combo)
    left_pair = players_of(n, level - 1, 2 * match, lk, mode)
    right_pair = players_of(n, level - 1, 2 * match + 1, rk, mode)
    return left_pair[winner_side(lt)], right_pair[winner_side(rt)]


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


class IdealMpcOracle:
    """Ideal multiparty computation of hash(x1 xor ... xor xN).

    Parties contribute private inputs; the oracle publishes only the digest.
    The combined preimage is available once every input arrived, modelling
    the fact that no strict subset of parties can learn it early.
    """

    def __init__(self, n: int):
        self.n = n
        self._inputs: dict[int, bytes] = {}

    def collect(self, player: int, secret: bytes) -> None:
        if len(secret) != 32 or not any(secret):
            raise ValueError("mpc inputs are nonzero 32-byte strings")
        self._inputs[player] = secret

    @property
    def complete(self) -> bool:
        return len(self._inputs) == self.n

    def combined(self) -> bytes:
        if not self.complete:
            raise MpcIncomplete(f"{len(self._inputs)}/{self.n} inputs collected")
        acc = b"\x00" * 32
        for player in sorted(self._inputs):
            acc = _xor(acc, self._inputs[player])
        return acc

    def digest(self) -> bytes:
        return sha256(self.combined())


@dataclass
class Kernel:
    """One five-transaction match kernel, fully wired and unsigned."""

    id: KernelId
    left_player: int
    right_player: int
    left_commit: bytes
    right_commit: bytes
    t0: int
    t1: int
    t2: int
    pot: int
    entry_tx: TransactionBody
    reveal_tx: TransactionBody
    outcome_txs: tuple[TransactionBody, TransactionBody, TransactionBody]
    entry_ntxid: bytes = b""
    reveal_ntxid: bytes = b""
    outcome_ntxids: tuple[bytes, bytes, bytes] = (b"", b"", b"")


class CompressionTx(NamedTuple):
    level: int
    match: int
    candidate: int
    body: TransactionBody
    ntxid: bytes


@dataclass(frozen=True)
class TransactionStats:
    total_offchain: int
    per_level: tuple[int, ...]
    kernel_bodies: int
    compression_count: int
    deposit_count: int
    on_chain_worst_case: int
    bytes_on_chain: int
    materialized: bool

    def to_json(self) -> dict:
        return {**dataclasses.asdict(self), "per_level": list(self.per_level)}

    @staticmethod
    def from_json(obj, where: str) -> "TransactionStats":
        get = lambda key, kind: json_field(obj, key, kind, where)
        counts = {f.name for f in dataclasses.fields(TransactionStats)} - {"per_level", "materialized"}
        per_level = get("per_level", list)
        return TransactionStats(
            per_level=tuple(
                json_value(x, int, f"{where}.per_level[{i}]") for i, x in enumerate(per_level)
            ),
            materialized=get("materialized", bool),
            **{name: get(name, int) for name in counts},
        )


@dataclass
class Tournament:
    """A scaffold. Treat as immutable once constructed.

    An honestly constructed scaffold builds its kernels on first read (see
    `KernelTable`); one decoded from a file has them all. The registries
    `sig_digests`, `scaffold_digests` and `secrets` hold what the built
    bodies and kernels contribute, so they grow with the kernels.
    """

    mode: str
    n: int
    bet: int
    tau: int
    t_commit: int
    level_stride: int
    deposit_option: str
    master_keys: tuple[bytes, ...]
    funding: tuple[OutputRef, ...]
    kernels: MutableMapping[KernelId, Kernel]
    compressions: dict[tuple[int, int, int], CompressionTx]
    deposit_bodies: tuple[TransactionBody, ...]
    deposit_ntxids: tuple[bytes, ...]
    refund_time: Optional[int]
    mpc_digest: Optional[bytes]
    stats: TransactionStats
    # ntxid -> signature digest of every built body, filled in the pass that computes the ntxids
    sig_digests: dict[bytes, bytes] = field(repr=False)
    # signature digests of the built kernel and compression bodies: what the ceremony approves
    scaffold_digests: set[bytes] = field(repr=False)
    secrets: dict[tuple[KernelId, int], bytes] = field(default_factory=dict, repr=False)

    @property
    def levels(self) -> int:
        return num_levels(self.n)

    def schedule(self, level: int) -> tuple[int, int, int]:
        return level_schedule(self.t_commit, self.level_stride, self.tau, level)

    def kernel(self, level: int, match: int, combo: int) -> Kernel:
        return self.kernels[KernelId(level, match, combo)]

    def secret(self, kid: KernelId, side: int) -> bytes:
        return self.secrets[(kid, side)]


class ScaffoldTx(NamedTuple):
    """A body in canonical signing/export order."""

    role: str
    key: object  # KernelId, (level, match, candidate) or deposit index
    body: TransactionBody
    ntxid: bytes


def iter_bodies(t: Tournament, include_deposits: bool = True) -> list[ScaffoldTx]:
    """All scaffold bodies in deterministic order; deposits come last."""
    out: list[ScaffoldTx] = []
    for kid in sorted(t.kernels):
        k = t.kernels[kid]
        out.append(ScaffoldTx(ROLE_ENTRY, kid, k.entry_tx, k.entry_ntxid))
        out.append(ScaffoldTx(ROLE_REVEAL, kid, k.reveal_tx, k.reveal_ntxid))
        for idx in range(3):
            out.append(ScaffoldTx(ROLE_OUTCOMES[idx], kid, k.outcome_txs[idx], k.outcome_ntxids[idx]))
    for ckey in sorted(t.compressions):
        c = t.compressions[ckey]
        out.append(ScaffoldTx(ROLE_COMPRESSION, ckey, c.body, c.ntxid))
    if include_deposits:
        for i, body in enumerate(t.deposit_bodies):
            out.append(ScaffoldTx(ROLE_DEPOSIT, i, body, t.deposit_ntxids[i]))
    return out


def _entry_predicate(master: Predicate, left_commit: bytes, t1: int) -> Predicate:
    return AnyOf(
        (
            AllOf((master, HashPreimage(left_commit, SLOT_LEFT))),
            AllOf((master, AfterHeight(t1))),
        )
    )


def _reveal_predicate(master: Predicate, left_commit: bytes, right_commit: bytes, t2: int) -> Predicate:
    return AnyOf(
        (
            AllOf(
                (
                    master,
                    HashPreimage(left_commit, SLOT_LEFT),
                    HashPreimage(right_commit, SLOT_RIGHT),
                    XorParityOdd(SLOT_LEFT, SLOT_RIGHT),
                )
            ),
            AllOf((master, AfterHeight(t2))),
        )
    )


def _hashlocked_deposit_predicate(
    master: Predicate, mpc_digest: bytes, player_key: bytes, refund_time: int
) -> Predicate:
    return AnyOf(
        (
            AllOf((master, HashPreimage(mpc_digest, SLOT_MPC))),
            AllOf((KeySign(player_key), AfterHeight(refund_time))),
        )
    )


def _kernel_bodies(
    master: Predicate,
    left_commit: bytes,
    right_commit: bytes,
    t1: int,
    t2: int,
    pot: int,
    left_ref: OutputRef,
    right_ref: OutputRef,
    pay_left: Predicate,
    pay_right: Predicate,
) -> tuple[tuple[TransactionBody, ...], tuple[tuple[bytes, bytes], ...]]:
    """The bodies entry, reveal, outcome a, b and b', and their (ntxid, sig digest).

    Outcome a pays `pay_left`, b and b' pay `pay_right`.
    """
    entry = TransactionBody(
        inputs=(FixedInput(left_ref), FixedInput(right_ref)),
        outputs=(TxOutput(pot, _entry_predicate(master, left_commit, t1)),),
    )
    entry_d = body_digests(entry)
    reveal = TransactionBody(
        inputs=(FixedInput(OutputRef(entry_d[0], 0)),),
        outputs=(TxOutput(pot, _reveal_predicate(master, left_commit, right_commit, t2)),),
    )
    reveal_d = body_digests(reveal)
    # outcome 0: left wins after the reveal times out at t2
    # outcome 1: right wins after the entry times out at t1 (left never revealed)
    # outcome 2: right wins by revealing odd parity
    tx_a = TransactionBody(
        inputs=(FixedInput(OutputRef(reveal_d[0], 0)),),
        outputs=(TxOutput(pot, pay_left),),
        locktime=t2,
    )
    tx_b = TransactionBody(
        inputs=(FixedInput(OutputRef(entry_d[0], 0)),),
        outputs=(TxOutput(pot, pay_right),),
        locktime=t1,
    )
    tx_bp = TransactionBody(
        inputs=(FixedInput(OutputRef(reveal_d[0], 0)),),
        outputs=(TxOutput(pot, pay_right),),
    )
    return (
        (entry, reveal, tx_a, tx_b, tx_bp),
        (entry_d, reveal_d, body_digests(tx_a), body_digests(tx_b), body_digests(tx_bp)),
    )


def _check_funding_values(funding_values: Optional[Sequence[int]], bet: int) -> None:
    for i, v in enumerate(funding_values or ()):
        if v != bet:
            raise ValueError(f"ValueMismatch: funding input {i} carries {v}, expected {bet}")


def build_deposit_atomic(
    funding: Sequence[OutputRef],
    funding_values: Optional[Sequence[int]],
    bet: int,
    master: Predicate,
) -> TransactionBody:
    """Single all-or-nothing deposit: N bet inputs, N bet stake outputs.

    Output 2i and 2i+1 are the stakes consumed by first-round match i. The
    body is fixed (and referenced) before anyone signs it; the ceremony
    signs it last so no player is ever exposed without a full scaffold.
    """
    _check_funding_values(funding_values, bet)
    return TransactionBody(
        inputs=tuple(FixedInput(ref) for ref in funding),
        outputs=tuple(TxOutput(bet, master) for _ in funding),
    )


def build_deposit_hashlocked(
    funding: Sequence[OutputRef],
    bet: int,
    master: Predicate,
    player_keys: Sequence[bytes],
    mpc_digest: bytes,
    refund_time: int,
) -> tuple[TransactionBody, ...]:
    """Per-player deposits spendable into the tree only with the shared preimage.

    Each output either feeds a first-round entry (all signatures plus the
    preimage of the jointly computed digest) or refunds its owner once
    refund_time passes. The refund branch unlocks exactly at the commit
    deadline, so an aborted run returns every stake within the commit window.
    """
    bodies = []
    for ref, key in zip(funding, player_keys):
        pred = _hashlocked_deposit_predicate(master, mpc_digest, key, refund_time)
        bodies.append(
            TransactionBody(inputs=(FixedInput(ref),), outputs=(TxOutput(bet, pred),))
        )
    return tuple(bodies)


def _payout(master: Predicate, key: bytes, last: bool) -> Predicate:
    """The bracket's last transaction pays the winner's key; earlier ones keep the stake under the master."""
    return KeySign(key) if last else master


def _param_problem(
    n: int,
    keys: Sequence[bytes],
    funding: Sequence[OutputRef],
    mode: str,
    deposit_option: str,
    mpc_digest: Optional[bytes],
) -> Optional[str]:
    """Why honest construction cannot run on these inputs, or None; `check_params` has passed."""
    if len(keys) != n or len(set(keys)) != n:
        return "need one distinct key per player"
    if len(funding) != n:
        return "need one funding output per player"
    if mode not in (MODE_PLAIN, MODE_MULTIINPUT):
        return f"unknown mode {mode!r}"
    if deposit_option not in (DEPOSIT_ATOMIC, DEPOSIT_HASHLOCKED):
        return f"unknown deposit option {deposit_option!r}"
    if deposit_option == DEPOSIT_HASHLOCKED and mpc_digest is None:
        return "hashlocked deposits need the joint mpc digest"
    return None


def _kernel(bodies, digests, **fields) -> Kernel:
    """A Kernel from five bodies and their (ntxid, sig digest) in `_kernel_bodies` order."""
    return Kernel(
        entry_tx=bodies[0],
        reveal_tx=bodies[1],
        outcome_txs=bodies[2:],
        entry_ntxid=digests[0][0],
        reveal_ntxid=digests[1][0],
        outcome_ntxids=tuple(ntxid for ntxid, _ in digests[2:]),
        **fields,
    )


def _compression_members(
    kernels: MutableMapping[KernelId, Kernel], level: int, match: int, candidate: int
) -> list[OutputRef]:
    """Every outcome output across a multiinput match's kernels that pays `candidate`."""
    members = []
    for combo in range(kernel_count(level, MODE_MULTIINPUT)):
        k = kernels[KernelId(level, match, combo)]
        if k.left_player == candidate:
            members.append(OutputRef(k.outcome_ntxids[0], 0))
        if k.right_player == candidate:
            members.append(OutputRef(k.outcome_ntxids[1], 0))
            members.append(OutputRef(k.outcome_ntxids[2], 0))
    return members


@dataclass
class _HonestWiring:
    """What honest construction of one kernel or compression reads and where it registers.

    The parameters are fixed when the scaffold is constructed, so a kernel
    built later is the one construction would have built then.
    `commits(kid)` supplies a kernel's (left, right) commitment digests.
    Every body built goes into `sig_digests` and `scaffold_digests`.
    """

    n: int
    keys: tuple[bytes, ...]
    bet: int
    tau: int
    t_commit: int
    mode: str
    deposit_option: str
    master: Predicate
    deposit_ntxids: tuple[bytes, ...]
    commits: Callable[[KernelId], tuple[bytes, bytes]]
    compressions: dict[tuple[int, int, int], CompressionTx]
    sig_digests: dict[bytes, bytes]
    scaffold_digests: set[bytes] = field(default_factory=set)

    def __post_init__(self):
        self.levels = num_levels(self.n)
        self.stride = level_stride(self.tau, self.mode == MODE_MULTIINPUT)

    def ids(self) -> Iterator[KernelId]:
        """Every kernel of the bracket, by level, match and combination."""
        for level in range(self.levels):
            for match in range(matches_at(self.n, level)):
                for combo in range(kernel_count(level, self.mode)):
                    yield KernelId(level, match, combo)

    def has(self, kid) -> bool:
        level, match, combo = kid
        return (
            0 <= level < self.levels
            and 0 <= match < matches_at(self.n, level)
            and 0 <= combo < kernel_count(level, self.mode)
        )

    def _register(self, digests: Sequence[tuple[bytes, bytes]]) -> None:
        self.sig_digests.update(digests)
        self.scaffold_digests.update(sig_digest for _, sig_digest in digests)

    def _stake_ref(self, kernels: "KernelTable", kid: KernelId, side: int) -> OutputRef:
        """Where one side's stake for kernel `kid` lives."""
        level, match, combo = kid
        if level == 0:
            player = 2 * match + side
            if self.deposit_option == DEPOSIT_ATOMIC:
                return OutputRef(self.deposit_ntxids[0], player)
            return OutputRef(self.deposit_ntxids[player], 0)
        child_match = 2 * match + side
        if self.mode == MODE_MULTIINPUT:
            cand = multi_candidate_pair(self.n, level, match, combo)[side]
            return OutputRef(self.compressions[(level - 1, child_match, cand)].ntxid, 0)
        lk, lt, rk, rt = unpack_index(level, match, combo)
        child_kernel, child_tx = (lk, lt) if side == SIDE_LEFT else (rk, rt)
        child = kernels[KernelId(level - 1, child_match, child_kernel)]
        return OutputRef(child.outcome_ntxids[child_tx], 0)

    def kernel(self, kernels: "KernelTable", kid: KernelId) -> Kernel:
        level = kid.level
        t0, t1, t2 = level_schedule(self.t_commit, self.stride, self.tau, level)
        pot = (1 << (level + 1)) * self.bet
        last = level == self.levels - 1 and self.mode == MODE_PLAIN  # multiinput pays out in the compression
        left, right = players_of(self.n, *kid, self.mode)
        left_commit, right_commit = self.commits(kid)
        bodies, digests = _kernel_bodies(
            self.master,
            left_commit,
            right_commit,
            t1,
            t2,
            pot,
            self._stake_ref(kernels, kid, SIDE_LEFT),
            self._stake_ref(kernels, kid, SIDE_RIGHT),
            _payout(self.master, self.keys[left], last),
            _payout(self.master, self.keys[right], last),
        )
        self._register(digests)
        return _kernel(
            bodies,
            digests,
            id=kid,
            left_player=left,
            right_player=right,
            left_commit=left_commit,
            right_commit=right_commit,
            t0=t0,
            t1=t1,
            t2=t2,
            pot=pot,
        )

    def compression(self, kernels: "KernelTable", level: int, match: int, cand: int) -> CompressionTx:
        """The multiinput compression paying `cand`; it reads every kernel of its match."""
        pot = (1 << (level + 1)) * self.bet
        body = TransactionBody(
            inputs=(multi_input(_compression_members(kernels, level, match, cand)),),
            outputs=(TxOutput(pot, _payout(self.master, self.keys[cand], level == self.levels - 1)),),
        )
        ntxid, sig_digest = body_digests(body)
        self._register(((ntxid, sig_digest),))
        return CompressionTx(level, match, cand, body, ntxid)


class KernelTable(MutableMapping):
    """The kernels of an honestly constructed scaffold, each built the first time it is read.

    Reading a kernel builds it, and the child kernels whose outcomes its
    stakes spend, and keeps it. Iterating, taking the length or writing
    first builds every kernel not yet built, in bracket order; from then on
    the table is a plain dict, so a kernel a write deletes stays deleted.
    The construction state lives on the table, so a deep copy builds into its
    own registries.
    """

    def __init__(self, wiring: _HonestWiring):
        self._wiring: Optional[_HonestWiring] = wiring  # None once every kernel is built
        self._built: dict[KernelId, Kernel] = {}

    def __getitem__(self, kid) -> Kernel:
        kernel = self._built.get(kid)
        if kernel is None:
            if self._wiring is None or not self._wiring.has(kid):
                raise KeyError(kid)
            kid = KernelId(*kid)
            kernel = self._built[kid] = self._wiring.kernel(self, kid)
        return kernel

    def _all(self) -> dict[KernelId, Kernel]:
        if self._wiring is not None:
            self._built = {kid: self[kid] for kid in self._wiring.ids()}
            self._wiring = None
        return self._built

    def __iter__(self) -> Iterator[KernelId]:
        return iter(self._all())

    def __len__(self) -> int:
        return len(self._all())

    def __setitem__(self, kid, kernel: Kernel) -> None:
        self._all()[kid] = kernel

    def __delitem__(self, kid) -> None:
        del self._all()[kid]


def _honest_scaffold(
    n: int,
    keys: Sequence[bytes],
    funding: Sequence[OutputRef],
    bet: int,
    tau: int,
    t_commit: int,
    mode: str,
    deposit_option: str,
    mpc_digest: Optional[bytes],
    commits: Callable[[KernelId], tuple[bytes, bytes]],
    stats: TransactionStats,
) -> Tournament:
    """The scaffold honest construction gives for these parameters.

    Everything in a scaffold is public except the kernels' commitment
    digests, which `commits(kid)` supplies as (left, right) when kernel
    `kid` is built. Build draws them from fresh secrets; verify passes the
    ones a scaffold carries, so the result differs from that scaffold
    exactly where it is not honest. The deposits are built here and the
    kernels when first read (`KernelTable`); multiinput compressions are
    built here, level by level, and read every kernel of their match.
    `stats` is stored as given.
    """
    master = AllSign(tuple(keys))
    refund_time = None
    if deposit_option == DEPOSIT_ATOMIC:
        deposit_bodies = (build_deposit_atomic(funding, None, bet, master),)
        mpc_digest = None
    else:
        refund_time = t_commit  # refunds must be live by the commit deadline
        deposit_bodies = build_deposit_hashlocked(funding, bet, master, keys, mpc_digest, refund_time)
    deposit_digests = [body_digests(b) for b in deposit_bodies]
    wiring = _HonestWiring(
        n=n,
        keys=tuple(keys),
        bet=bet,
        tau=tau,
        t_commit=t_commit,
        mode=mode,
        deposit_option=deposit_option,
        master=master,
        deposit_ntxids=tuple(ntxid for ntxid, _ in deposit_digests),
        commits=commits,
        compressions={},
        sig_digests=dict(deposit_digests),
    )
    kernels = KernelTable(wiring)
    if mode == MODE_MULTIINPUT:
        for level in range(wiring.levels):
            for match in range(matches_at(n, level)):
                for cand in candidates(n, level, match):
                    comp = wiring.compression(kernels, level, match, cand)
                    wiring.compressions[(level, match, cand)] = comp

    return Tournament(
        mode=mode,
        n=n,
        bet=bet,
        tau=tau,
        t_commit=t_commit,
        level_stride=wiring.stride,
        deposit_option=deposit_option,
        master_keys=tuple(keys),
        funding=tuple(funding),
        kernels=kernels,
        compressions=wiring.compressions,
        deposit_bodies=deposit_bodies,
        deposit_ntxids=wiring.deposit_ntxids,
        refund_time=refund_time,
        mpc_digest=mpc_digest,
        stats=stats,
        sig_digests=wiring.sig_digests,
        scaffold_digests=wiring.scaffold_digests,
    )


@dataclass
class _FreshSecrets:
    """Commitments over fresh kernel secrets, drawn by label from `source` and kept in `secrets`."""

    source: Rng
    secrets: dict[tuple[KernelId, int], bytes] = field(default_factory=dict)

    def __call__(self, kid: KernelId) -> tuple[bytes, bytes]:
        label = f"{kid.level}.{kid.match}.{kid.combo}"
        left = self.secrets[(kid, SIDE_LEFT)] = self.source.child(f"{label}.L").nonzero_bytes(32)
        right = self.secrets[(kid, SIDE_RIGHT)] = self.source.child(f"{label}.R").nonzero_bytes(32)
        return commitment(left), commitment(right)


def build_tournament(
    n: int,
    player_keys: Sequence[bytes],
    funding: Sequence[OutputRef],
    secret_source: Rng,
    t_commit: int,
    bet: int,
    tau: int,
    mode: str = MODE_PLAIN,
    deposit_option: str = DEPOSIT_ATOMIC,
    funding_values: Optional[Sequence[int]] = None,
    mpc_digest: Optional[bytes] = None,
    sig_model: str = "multisig",
) -> Tournament:
    """Construct the unsigned honest scaffold; its kernels are built when first read.

    Secrets are drawn per kernel per player from `secret_source`, by the
    kernel's label, when the kernel is built; their commitment digests are
    baked into the spending predicates. The returned object carries the
    secrets for simulation purposes; exports strip them.
    """
    check_params(n, tau, t_commit, bet)
    problem = _param_problem(n, player_keys, funding, mode, deposit_option, mpc_digest)
    if problem:
        raise ValueError(problem)
    _check_funding_values(funding_values, bet)
    fresh = _FreshSecrets(secret_source.child("kernel-secrets"))
    stats = scaffold_stats(n, mode, deposit_option, sig_model, bet, tau, t_commit)
    t = _honest_scaffold(
        n, player_keys, funding, bet, tau, t_commit, mode, deposit_option, mpc_digest, fresh,
        dataclasses.replace(stats, materialized=True),
    )
    return dataclasses.replace(t, secrets=fresh.secrets)


# cost model


def _auth_bytes(sig_model: str, n: int) -> int:
    # multisig carries one signature per master key; aggregate folds them
    return n * SIG_LAMBDA if sig_model == "multisig" else SIG_LAMBDA


@functools.cache
def scaffold_stats(
    n: int,
    mode: str = MODE_PLAIN,
    deposit_option: str = DEPOSIT_ATOMIC,
    sig_model: str = "multisig",
    bet: int = 1,
    tau: int = 6,
    t_commit: int = 10,
) -> TransactionStats:
    """Closed-form transaction statistics without materializing the tree.

    Representative bodies (one kernel per level, dummy digests) give exact
    byte sizes because every digest and reference field is fixed-width, so
    a built scaffold carries these same figures. Used alone for player
    counts whose plain-mode trees are too large to write out. The figures
    depend only on the arguments, so they are computed once per argument
    list; the result is frozen because every caller shares it.
    """
    levels = num_levels(n)
    per_level = tuple(
        matches_at(n, level) * kernel_count(level, mode) * 5 for level in range(levels)
    )
    kernel_bodies = sum(per_level)
    compression_count = n * levels if mode == MODE_MULTIINPUT else 0
    deposit_count = 1 if deposit_option == DEPOSIT_ATOMIC else n
    total = kernel_bodies + compression_count + deposit_count
    txs_per_match = 4 if mode == MODE_MULTIINPUT else 3
    on_chain_worst = txs_per_match * (n - 1) + deposit_count

    dummy_keys = tuple(sha256(b"size-probe-key:%d" % i) for i in range(n))
    master = AllSign(dummy_keys)
    dummy_ref = OutputRef(b"\x11" * 32, 0)
    dummy_digest = sha256(b"size-probe-commit")
    auth = _auth_bytes(sig_model, n)

    if deposit_option == DEPOSIT_ATOMIC:
        dep = build_deposit_atomic([dummy_ref] * n, None, bet, master)
        worst_bytes = len(body_bytes(dep)) + auth
    else:
        deps = build_deposit_hashlocked(
            [dummy_ref] * n, bet, master, dummy_keys, dummy_digest, t_commit + 1
        )
        worst_bytes = sum(len(body_bytes(b)) + auth for b in deps)

    stride = level_stride(tau, mode == MODE_MULTIINPUT)
    for level in range(levels):
        _t0, t1, t2 = level_schedule(t_commit, stride, tau, level)
        pot = (1 << (level + 1)) * bet
        final = level == levels - 1
        last = final and mode == MODE_PLAIN
        # the slowest path through a match publishes entry, reveal and the
        # reveal-timeout outcome; multiinput adds the winner's compression
        (entry, reveal, outcome_a, *_), _digests = _kernel_bodies(
            master, dummy_digest, sha256(dummy_digest), t1, t2, pot, dummy_ref,
            OutputRef(b"\x22" * 32, 0),
            _payout(master, dummy_keys[0], last),
            _payout(master, dummy_keys[1], last),
        )
        per_match = (
            len(body_bytes(entry)) + len(body_bytes(reveal)) + len(body_bytes(outcome_a))
        ) + 3 * auth
        if mode == MODE_MULTIINPUT:
            # representative compression set: a right-side candidate has two
            # outcome outputs per kernel it appears in, the worst case
            members = [OutputRef(sha256(b"m%d" % i), 0) for i in range(2 * (1 << level))]
            comp = TransactionBody(
                inputs=(multi_input(members),),
                outputs=(TxOutput(pot, _payout(master, dummy_keys[0], final)),),
            )
            per_match += len(body_bytes(comp)) + auth
        worst_bytes += per_match * matches_at(n, level)

    return TransactionStats(
        total_offchain=total,
        per_level=per_level,
        kernel_bodies=kernel_bodies,
        compression_count=compression_count,
        deposit_count=deposit_count,
        on_chain_worst_case=on_chain_worst,
        bytes_on_chain=worst_bytes,
        materialized=False,
    )


# verification


class Violation(NamedTuple):
    kernel: Optional[KernelId]
    rule: str
    detail: str


def verify_as_honest(t: Tournament) -> list[Violation]:
    """Rebuild the scaffold honestly from its public fields and diff.

    Everything except the secret preimages is public, so the verifier runs
    honest construction on the tournament's own parameters and the
    commitment digests it carries, then flags every divergence: rewired
    inputs, altered schedules or predicates, wrong payout keys, and
    duplicated commitment digests (the replay defense). The count fields of
    `stats` must equal the closed form for the same parameters (BadStats);
    `bytes_on_chain` cannot be checked, because a scaffold does not record
    the signature model it was sized for. An empty list means the scaffold
    is safe to sign, from every seat.
    """
    try:
        check_params(t.n, t.tau, t.t_commit, t.bet)
    except ConfigError as e:
        return [Violation(None, "BadParams", str(e))]
    problem = _param_problem(t.n, t.master_keys, t.funding, t.mode, t.deposit_option, t.mpc_digest)
    if problem:
        return [Violation(None, "BadParams", problem)]

    def commits(kid: KernelId) -> tuple[bytes, bytes]:
        k = t.kernels.get(kid)
        # a missing kernel gets placeholders: it is reported before anything is compared
        return (k.left_commit, k.right_commit) if k else (bytes(32), bytes(32))

    stats = scaffold_stats(t.n, t.mode, t.deposit_option, bet=t.bet, tau=t.tau, t_commit=t.t_commit)
    h = _honest_scaffold(
        t.n, t.master_keys, t.funding, t.bet, t.tau, t.t_commit, t.mode, t.deposit_option,
        t.mpc_digest, commits, stats,
    )
    v: list[Violation] = []
    if t.level_stride != h.level_stride:
        v.append(Violation(None, "BadSchedule", f"level stride {t.level_stride} != {h.level_stride}"))
    if t.refund_time != h.refund_time:
        detail = f"refund time {t.refund_time} != {h.refund_time}, the commit deadline"
        v.append(Violation(None, "BadDeposit", detail))
    for f in dataclasses.fields(TransactionStats):
        got, want = getattr(t.stats, f.name), getattr(stats, f.name)
        if f.name not in ("bytes_on_chain", "materialized") and got != want:
            v.append(Violation(None, "BadStats", f"stats.{f.name} {got} != {want}"))
    for kid in sorted(h.kernels.keys() - t.kernels.keys()):
        v.append(Violation(kid, "MissingKernel", "kernel absent from scaffold"))
    for kid in sorted(t.kernels.keys() - h.kernels.keys()):
        v.append(Violation(kid, "UnexpectedKernel", "kernel not part of the bracket"))
    if any(rule == "MissingKernel" for _, rule, _ in v):
        return v

    # commitment digests must be pairwise distinct across the whole tree
    seen: dict[bytes, tuple[KernelId, int]] = {}
    for kid in sorted(h.kernels):
        k = t.kernels[kid]
        for side, digest in ((SIDE_LEFT, k.left_commit), (SIDE_RIGHT, k.right_commit)):
            if digest in seen:
                other_kid, other_side = seen[digest]
                detail = f"side {side} repeats commitment of kernel {other_kid} side {other_side}"
                v.append(Violation(kid, "DuplicateCommitment", detail))
            else:
                seen[digest] = (kid, side)

    for kid in sorted(h.kernels):
        k, honest = t.kernels[kid], h.kernels[kid]
        for rule, what, got, want in (
            ("BadSchedule", "timeouts", (k.t0, k.t1, k.t2), (honest.t0, honest.t1, honest.t2)),
            ("BadPlayers", "players", (k.left_player, k.right_player),
             (honest.left_player, honest.right_player)),
            ("BadScript", "pot", k.pot, honest.pot),
        ):
            if got != want:
                v.append(Violation(kid, rule, f"{what} {got} != {want}"))

    # The ceremony approves the digest registry and the runtime trusts the
    # stored ntxids, so each must be that of its stored body, or signing would
    # cover something other than what was checked.
    stored = {}
    signable = set()
    for item in iter_bodies(t):
        stored[(item.role, item.key)] = item.body
        digests = body_digests(item.body)
        if digests != (item.ntxid, t.sig_digests.get(item.ntxid)):
            kid = item.key if isinstance(item.key, KernelId) else None
            detail = f"{item.role} {item.key}: stored digests do not match the body"
            v.append(Violation(kid, "BadDigest", detail))
        if item.role != ROLE_DEPOSIT:
            signable.add(digests[1])
    if t.scaffold_digests != signable:
        detail = "the approved digests are not those of the kernel and compression bodies"
        v.append(Violation(None, "BadDigest", detail))
    for item in iter_bodies(h):
        body = stored.pop((item.role, item.key), None)
        if body != item.body:
            v.append(_body_divergence(item.role, item.key, body, item.body))
    for (role, key), body in stored.items():
        if not isinstance(key, KernelId):  # bodies of extra kernels are reported above
            v.append(_body_divergence(role, key, body, None))
    return v


def _body_divergence(
    role: str, key: object, stored: Optional[TransactionBody], rebuilt: Optional[TransactionBody]
) -> Violation:
    """Classify a body that differs from honest construction; None marks a side that lacks it."""
    kid = key if isinstance(key, KernelId) else None
    if role == ROLE_DEPOSIT:
        rule = "BadDeposit"
    elif role == ROLE_COMPRESSION:
        rule = "BadCompression"
    elif stored.inputs != rebuilt.inputs:
        rule = "BadWiring"
    elif stored.locktime != rebuilt.locktime:
        rule = "BadTimeout"
    else:
        rule = "BadScript"
    what = f"{role} transaction" if kid else f"{role} {key}"
    if stored is None:
        return Violation(kid, rule, f"{what} is missing")
    if rebuilt is None:
        return Violation(kid, rule, f"{what} is not part of honest construction")
    return Violation(kid, rule, f"{what} diverges from honest construction")


# signing ceremony


@dataclass
class SigningView:
    """What a party sees when asked to approve the whole scaffold or the deposit."""

    player: int
    tournament: Tournament
    total_bodies: int  # bodies the approval covers, the atomic deposit included


@dataclass
class CeremonyResult:
    aborted_by: Optional[int]
    bodies_signed: int

    @property
    def complete(self) -> bool:
        return self.aborted_by is None


def signing_ceremony(
    t: Tournament, deciders: Sequence, oracle: SignatureOracle
) -> CeremonyResult:
    """Each party verifies the whole scaffold, then approves all of it at once.

    Every party is asked once (`at_signing`) with a view of the whole
    scaffold; an honest party checks it with `verify_as_honest`. A single
    refusal aborts before any key signs anything, which has no on-chain
    effect because nothing spendable exists until the deposit is complete.
    Once all approve, each party's key approves every kernel and
    compression body in one act (`SignatureOracle.sign_all`): from then on
    its signature over a digest verifies if and only if the digest is in
    the tournament's registry `scaffold_digests`. The registry holds the
    bodies built so far and grows as play builds kernels, but only with
    bodies of the honest scaffold that was approved, and a body's inputs
    can be on chain only once play has built its kernel, so this is the
    same as approving the whole scaffold up front. The count of bodies
    signed comes from the closed form in `t.stats`. The atomic deposit is
    asked about (`at_deposit`) and signed last, so no player is ever
    exposed without a full scaffold; hashlocked deposits are authorized
    solo by their owners at submission time.
    """
    atomic = t.deposit_option == DEPOSIT_ATOMIC
    scaffold_bodies = t.stats.kernel_bodies + t.stats.compression_count
    total = scaffold_bodies + (1 if atomic else 0)
    views = [SigningView(player, t, total) for player in range(t.n)]
    for player, view in enumerate(views):
        if not deciders[player].at_signing(view):
            return CeremonyResult(aborted_by=player, bodies_signed=0)
    for player, key in enumerate(t.master_keys):
        oracle.sign_all(player, key, t.scaffold_digests)
    if atomic:
        for player, view in enumerate(views):
            if not deciders[player].at_deposit(view):
                return CeremonyResult(aborted_by=player, bodies_signed=scaffold_bodies)
        deposit_digest = t.sig_digests[t.deposit_ntxids[0]]
        for player, key in enumerate(t.master_keys):
            oracle.sign(player, key, deposit_digest)
    return CeremonyResult(aborted_by=None, bodies_signed=total)


# serialization


FORMAT_TAG = "tournament-scaffold-v1"
# integer fields stored in the JSON under their attribute names
_SCAFFOLD_INTS = ("n", "bet", "tau", "t_commit", "level_stride")
_KERNEL_INTS = ("left_player", "right_player", "t0", "t1", "t2", "pot")


def tournament_to_json(t: Tournament) -> dict:
    """Public scaffold description. Secrets are never exported."""
    kernels = [
        {
            **kid._asdict(),
            **{name: getattr(k, name) for name in _KERNEL_INTS},
            "left_commit": k.left_commit.hex(),
            "right_commit": k.right_commit.hex(),
            "entry": body_to_json(k.entry_tx),
            "reveal": body_to_json(k.reveal_tx),
            "outcomes": [body_to_json(b) for b in k.outcome_txs],
        }
        for kid, k in sorted(t.kernels.items())
    ]
    compressions = [
        {"level": level, "match": match, "candidate": cand, "body": body_to_json(c.body)}
        for (level, match, cand), c in sorted(t.compressions.items())
    ]
    return {
        "format": FORMAT_TAG,
        **{name: getattr(t, name) for name in _SCAFFOLD_INTS},
        "mode": t.mode,
        "deposit_option": t.deposit_option,
        "refund_time": t.refund_time,
        "mpc_digest": t.mpc_digest.hex() if t.mpc_digest else None,
        "master_keys": [k.hex() for k in t.master_keys],
        "funding": [r.to_json() for r in t.funding],
        "deposits": [body_to_json(b) for b in t.deposit_bodies],
        "kernels": kernels,
        "compressions": compressions,
        "stats": t.stats.to_json(),
    }


def tournament_from_json(obj: dict) -> Tournament:
    """Decode `tournament_to_json` output; a malformed document raises ValueError naming the field."""
    if not isinstance(obj, dict):
        raise ValueError(f"scaffold: expected a JSON object, got {type(obj).__name__}")
    if obj.get("format") != FORMAT_TAG:
        raise ValueError(f"not a scaffold file (format {obj.get('format')!r})")
    get = lambda key, kind: json_field(obj, key, kind, "scaffold")
    mode, deposit_option = get("mode", str), get("deposit_option", str)
    if mode not in (MODE_PLAIN, MODE_MULTIINPUT):
        raise ValueError(f"scaffold.mode: unknown mode {mode!r}")
    if deposit_option not in (DEPOSIT_ATOMIC, DEPOSIT_HASHLOCKED):
        raise ValueError(f"scaffold.deposit_option: unknown deposit option {deposit_option!r}")
    kernels: dict[KernelId, Kernel] = {}
    sig_digests: dict[bytes, bytes] = {}
    for i, rec in enumerate(get("kernels", list)):
        where = f"kernels[{i}]"
        field_of = lambda key, kind: json_field(rec, key, kind, where)
        outcomes = field_of("outcomes", list)
        if len(outcomes) != 3:
            raise ValueError(f"{where}.outcomes: a kernel has 3 outcomes, found {len(outcomes)}")
        docs = [field_of("entry", dict), field_of("reveal", dict), *outcomes]
        roles = (ROLE_ENTRY, ROLE_REVEAL) + ROLE_OUTCOMES
        bodies = tuple(body_from_json(b, f"{where}.{role}") for b, role in zip(docs, roles))
        digests = tuple(body_digests(b) for b in bodies)
        sig_digests.update(digests)
        kid = KernelId(*(field_of(name, int) for name in KernelId._fields))
        kernels[kid] = _kernel(
            bodies,
            digests,
            id=kid,
            left_commit=field_of("left_commit", bytes),
            right_commit=field_of("right_commit", bytes),
            **{name: field_of(name, int) for name in _KERNEL_INTS},
        )
    compressions = {}
    for i, rec in enumerate(json_value(obj.get("compressions", []), list, "scaffold.compressions")):
        where = f"compressions[{i}]"
        body = body_from_json(json_field(rec, "body", dict, where), f"{where}.body")
        key = tuple(json_field(rec, k, int, where) for k in ("level", "match", "candidate"))
        ntxid, sig_digest = body_digests(body)
        sig_digests[ntxid] = sig_digest
        compressions[key] = CompressionTx(*key, body, ntxid)
    scaffold_digests = set(sig_digests.values())
    deposit_bodies = tuple(
        body_from_json(b, f"deposits[{i}]") for i, b in enumerate(get("deposits", list))
    )
    deposit_digests = [body_digests(b) for b in deposit_bodies]
    sig_digests.update(deposit_digests)
    keys = get("master_keys", list)
    funding = get("funding", list)
    return Tournament(
        **{name: get(name, int) for name in _SCAFFOLD_INTS},
        mode=mode,
        deposit_option=deposit_option,
        master_keys=tuple(
            json_value(k, bytes, f"scaffold.master_keys[{i}]") for i, k in enumerate(keys)
        ),
        funding=tuple(OutputRef.from_json(r, f"scaffold.funding[{i}]") for i, r in enumerate(funding)),
        kernels=kernels,
        compressions=compressions,
        deposit_bodies=deposit_bodies,
        deposit_ntxids=tuple(ntxid for ntxid, _ in deposit_digests),
        refund_time=None if obj.get("refund_time") is None else get("refund_time", int),
        mpc_digest=get("mpc_digest", bytes) if obj.get("mpc_digest") else None,
        stats=TransactionStats.from_json(get("stats", dict), "scaffold.stats"),
        sig_digests=sig_digests,
        scaffold_digests=scaffold_digests,
    )


def dump_tournament(t: Tournament) -> str:
    return json.dumps(tournament_to_json(t), indent=2, sort_keys=True) + "\n"


def load_tournament(text: str) -> Tournament:
    return tournament_from_json(json.loads(text))


# DAG export


def export_dot(t: Tournament) -> str:
    """Graphviz rendering of the scaffold's spend graph."""
    lines = ["digraph scaffold {", "  rankdir=LR;", "  node [shape=box, fontsize=9];"]
    producer: dict[bytes, str] = {}
    for i, ref in enumerate(t.funding):
        name = f"funding_{i}"
        producer[ref.txid] = name
        lines.append(f'  {name} [label="funding P{i}", shape=ellipse];')
    nodes: list[tuple[str, str, TransactionBody, bytes]] = []  # name, label, body, ntxid
    for i, (body, ntxid) in enumerate(zip(t.deposit_bodies, t.deposit_ntxids)):
        name = f"deposit_{i}" if len(t.deposit_ntxids) > 1 else "deposit"
        nodes.append((name, name, body, ntxid))
    for kid in sorted(t.kernels):
        k = t.kernels[kid]
        base = f"k{kid.level}_{kid.match}_{kid.combo}"
        for role, body, ntxid, lock in (
            ("entry", k.entry_tx, k.entry_ntxid, 0),
            ("reveal", k.reveal_tx, k.reveal_ntxid, 0),
            ("outcome_a", k.outcome_txs[0], k.outcome_ntxids[0], k.t2),
            ("outcome_b", k.outcome_txs[1], k.outcome_ntxids[1], k.t1),
            ("outcome_bp", k.outcome_txs[2], k.outcome_ntxids[2], 0),
        ):
            label = f"{base}.{role}" + (f"\\nlock={lock}" if lock else "")
            nodes.append((f"{base}_{role}", label, body, ntxid))
    for (level, match, cand), c in sorted(t.compressions.items()):
        label = f"compress L{level} M{match} -> P{cand}"
        nodes.append((f"c{level}_{match}_p{cand}", label, c.body, c.ntxid))
    for name, label, _, ntxid in nodes:
        producer[ntxid] = name
        lines.append(f'  {name} [label="{label}"];')
    for target, _, body, _ in nodes:
        for spec in body.inputs:
            fixed = isinstance(spec, FixedInput)
            for ref in (spec.ref,) if fixed else spec.refs:
                src = producer.get(ref.txid)
                if src:
                    style = "" if fixed else " [style=dashed]"
                    lines.append(f"  {src} -> {target}{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"
